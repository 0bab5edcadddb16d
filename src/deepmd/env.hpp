// Environment matrix R~ and its geometric Jacobian.
//
// For each atom i the smooth environment matrix has one row per neighbor
// slot: [s(r), s(r) x/r, s(r) y/r, s(r) z/r], normalized by the dataset's
// davg/dstd and zero-padded to a fixed per-type budget `sel[t]` (§2.1).
// Slots are grouped by neighbor type into one matrix per type, so each
// embedding net processes a single dense block.
//
// The Jacobian dR~row/dr is geometry-only (independent of the network
// weights). It is precomputed here and applied by the differentiable
// jacobian ops (jacobian_ops.hpp) to turn dE/dR~ into forces — the
// hand-implemented force path the paper uses instead of framework autograd.
#pragma once

#include <array>
#include <memory>

#include "deepmd/config.hpp"
#include "deepmd/stats.hpp"
#include "md/neighbor.hpp"
#include "md/system.hpp"
#include "tensor/tensor.hpp"

namespace fekf::deepmd {

struct SlotJacobian {
  i32 row;       ///< row index within the per-type R matrix
  i32 center;    ///< sorted index of the center atom
  i32 neighbor;  ///< sorted index of the neighbor's real atom
  /// d(R~ row)/d(r_neighbor), 4x3 row-major; d/d(r_center) is its negative.
  std::array<f64, 12> j;
};

struct EnvData {
  i64 natoms = 0;
  i32 num_types = 0;
  std::vector<i64> sel;

  /// Atoms are sorted by type; sorted index s corresponds to original atom
  /// perm[s]. type_offsets[t]..type_offsets[t+1] is type t's sorted range.
  std::vector<i64> perm;
  std::vector<i64> type_offsets;
  std::vector<i64> type_counts;

  /// Per neighbor-type normalized environment matrix, (natoms * sel[t]) x 4,
  /// atom-major (sorted order).
  std::vector<Tensor> r_mats;
  /// Per neighbor-type filled-slot Jacobians.
  std::vector<std::vector<SlotJacobian>> jacobians;

  /// Labels in sorted-atom order.
  f64 energy_label = 0.0;
  Tensor force_label;  ///< natoms x 3

  /// Neighbors dropped because a type exceeded its sel budget (should stay
  /// 0 with auto-sized sel; surfaced so callers can warn).
  i64 truncated_neighbors = 0;
};

/// Build the normalized environment matrix + Jacobian for one snapshot.
///
/// `neighbors`, when given, is a list already built for the snapshot's
/// positions and cell (an MD step's, say) at a cutoff of at least
/// config.rcut; the build then skips its own neighbor search. A list built
/// at exactly config.rcut gives the env bit for bit. From a longer list
/// the neighbors past config.rcut are dropped, and equidistant neighbors
/// may take one another's slots.
std::shared_ptr<const EnvData> build_env(
    const md::Snapshot& snapshot, const EnvStats& stats,
    std::span<const i64> sel, const ModelConfig& config,
    const md::NeighborList* neighbors = nullptr);

}  // namespace fekf::deepmd

// Periodic-image-aware neighbor list.
//
// The paper's systems are small bulk supercells (32–108 atoms) with DeePMD
// cutoffs (~6 Å) that can exceed half the box length, so a minimum-image
// convention is not enough: an atom may see several periodic images of the
// same neighbor, including images of itself. The list therefore enumerates
// integer lattice shifts out to ceil(rcut / L) in each direction — the same
// ghost-atom semantics LAMMPS / DeePMD-kit use.
//
// Shared by the MD teacher potentials and the DeePMD environment matrix.
#pragma once

#include <span>
#include <vector>

#include "md/cell.hpp"

namespace fekf::md {

struct Neighbor {
  i32 index;  ///< id of the neighbor atom (real atom; may equal the center)
  Vec3 d;     ///< displacement center -> neighbor image
  f64 r;      ///< |d|
};

class NeighborList {
 public:
  /// Build for all atoms within `rcut`. O(N^2 * images), and the largest
  /// set-up cost there is: every teacher force evaluation and every env
  /// build runs one. Shifts whose x or y component alone reaches `rcut`
  /// are skipped before the inner loops (DESIGN.md §8), and rebuilding
  /// reuses the lists' storage.
  void build(std::span<const Vec3> positions, const Cell& cell, f64 rcut);

  i64 size() const { return static_cast<i64>(lists_.size()); }
  const std::vector<Neighbor>& of(i64 i) const {
    FEKF_DCHECK(i >= 0 && i < size(), "neighbor list index");
    return lists_[static_cast<std::size_t>(i)];
  }

  /// Longest per-atom neighbor count (the DeePMD N_m candidate).
  i64 max_count() const;

  f64 rcut() const { return rcut_; }

 private:
  std::vector<std::vector<Neighbor>> lists_;
  f64 rcut_ = 0.0;
};

}  // namespace fekf::md

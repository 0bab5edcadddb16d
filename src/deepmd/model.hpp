// The DeePMD potential-energy model (paper §2.1, Figure 2).
//
// Pipeline per snapshot:
//   R~ (per neighbor type)  --embedding-->  G
//   A = (1/Nm) sum_t G_t^T R~_t            (per atom, M x 4)
//   D = A A_<^T                            (symmetry-preserving descriptor)
//   D --fitting (per center type)--> atomic energies e_i
//   E = sum_i e_i + bias,   F = -dE/dr via the env-matrix Jacobian.
//
// The descriptor contraction runs in one of two modes (ModelConfig.fusion):
// per-atom composed primitives (framework-autograd baseline) or the fused
// bmm kernels with hand-written derivatives (paper opt1; Fig. 6).
#pragma once

#include <memory>
#include <span>
#include <utility>

#include "deepmd/env.hpp"
#include "deepmd/network.hpp"
#include "deepmd/stats.hpp"

namespace fekf::deepmd {

class DeepmdModel {
 public:
  DeepmdModel(ModelConfig config, i32 num_types);

  /// Compute normalization statistics (and, if config.sel is empty, the
  /// per-type neighbor budget) from training snapshots. Must run before
  /// prepare()/predict().
  void fit_stats(std::span<const md::Snapshot> train);

  /// Inject precomputed statistics (tests, model reload).
  void set_stats(EnvStats env_stats, EnergyStats energy_stats);

  /// Geometry preprocessing; reusable across epochs for a static dataset.
  /// `neighbors` optionally reuses a list built for this snapshot at a
  /// cutoff >= config().rcut (see build_env).
  std::shared_ptr<const EnvData> prepare(
      const md::Snapshot& snapshot,
      const md::NeighborList* neighbors = nullptr) const;

  struct Prediction {
    ag::Variable energy;  ///< 1x1, eV
    ag::Variable forces;  ///< natoms x 3, eV/Å, sorted-atom order;
                          ///< undefined unless requested
  };

  /// Forward pass; set `with_forces` to also build the differentiable
  /// force graph (costs a create_graph backward pass).
  Prediction predict(const std::shared_ptr<const EnvData>& env,
                     bool with_forces) const;

  /// Batched forward pass over independent environments: one embedding /
  /// descriptor / fitting / backward launch sequence for the whole batch
  /// instead of one per snapshot, amortizing launch overhead exactly the
  /// way the minibatch FEKF amortizes updates (DESIGN.md §14). Atoms are
  /// laid out center-type-major so all per-env work is plain memcpy and
  /// numeric reduction — the graph holds the same node count as a single
  /// predict() regardless of batch width. Results are bit-identical to
  /// predict() on each env under the `auto` kernel policy: every op in
  /// the chain (row-wise gemm, elementwise tanh, per-atom-block
  /// contraction) is row- or block-independent, per-env energies replay
  /// sum_all's fixed-chunk f64 reduction over each env's own element
  /// count, and sum_all/add backward seeds every row gradient with
  /// exactly 1.0 either way. Force gradients may differ in the sign of
  /// zero (disjoint scatter-add contributes -0.0 + 0.0 = +0.0); they
  /// compare equal numerically. Unlike predict(), the returned
  /// Predictions are detached values: energies and forces carry no
  /// autograd graph, so they cannot seed a further backward pass. The
  /// serving path is the intended consumer; training uses predict().
  std::vector<Prediction> predict_batch(
      std::span<const std::shared_ptr<const EnvData>> envs,
      bool with_forces) const;

  /// All trainable leaves in the canonical flattening order (embedding
  /// nets by neighbor type, then fitting nets by center type; weight
  /// before bias within each layer).
  std::vector<ag::Variable> parameters() const;

  /// (name, element count) per parameter leaf, same order as parameters().
  std::vector<std::pair<std::string, i64>> parameter_layout() const;

  i64 num_parameters() const;

  FusionLevel fusion() const { return config_.fusion; }
  void set_fusion(FusionLevel level) { config_.fusion = level; }

  const ModelConfig& config() const { return config_; }
  i32 num_types() const { return num_types_; }
  const EnvStats& env_stats() const { return env_stats_; }
  const EnergyStats& energy_stats() const { return energy_stats_; }
  const std::vector<i64>& sel() const { return sel_; }

 private:
  ag::Variable descriptor(const std::vector<ag::Variable>& r_leaves,
                          const std::vector<ag::Variable>& g_mats,
                          i64 natoms) const;

  ModelConfig config_;
  i32 num_types_;
  std::vector<EmbeddingNet> embeddings_;  ///< one per neighbor type
  std::vector<FittingNet> fittings_;      ///< one per center type
  EnvStats env_stats_;
  EnergyStats energy_stats_;
  std::vector<i64> sel_;
  bool stats_ready_ = false;
};

}  // namespace fekf::deepmd

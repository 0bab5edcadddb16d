// Evaluation metrics: energy RMSE (per structure and per atom, eV), the
// per-atom energy residual split into its mean and its spread, and force
// RMSE (per component, eV/Å) over a set of prepared environments.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "deepmd/model.hpp"

namespace fekf::train {

using EnvPtr = std::shared_ptr<const deepmd::EnvData>;

struct Metrics {
  f64 energy_rmse = 0.0;           ///< per structure (eV)
  f64 energy_rmse_per_atom = 0.0;  ///< per atom (eV)
  /// Signed mean of the per-atom energy residual (E_pred - E_label) / N
  /// (eV): a constant energy offset, to which forces are blind.
  f64 energy_offset_per_atom = 0.0;
  /// RMS of the per-atom energy residual about that mean (eV), so
  /// energy_rmse_per_atom² = offset² + spread².
  f64 energy_spread_per_atom = 0.0;
  f64 force_rmse = 0.0;  ///< per component (eV/Å)

  /// The paper's §5.1 convergence monitor: energy + force RMSE.
  f64 total() const { return energy_rmse + force_rmse; }
};

/// Preprocess snapshots once (geometry does not change between epochs).
std::vector<EnvPtr> prepare_all(const deepmd::DeepmdModel& model,
                                std::span<const md::Snapshot> snapshots);

/// Evaluate on up to `max_samples` environments (-1 = all). Set
/// `with_forces` false to skip the force graph (energy-only metrics).
Metrics evaluate(const deepmd::DeepmdModel& model,
                 std::span<const EnvPtr> envs, i64 max_samples = -1,
                 bool with_forces = true);

}  // namespace fekf::train

// Trajectory sampler: runs thermostatted MD with a teacher potential and
// emits labelled snapshots — the stand-in for the paper's ab-initio
// trajectory data generation ("we fast generate a long sequence of the
// snapshot by a small time step and choose one for every fixed number").
#pragma once

#include "core/rng.hpp"
#include "md/lattice.hpp"
#include "md/langevin.hpp"
#include "md/system.hpp"

namespace fekf::md {

struct SamplerConfig {
  f64 dt_fs = 1.0;
  std::vector<f64> temperatures{300.0};  ///< one sub-trajectory per entry
  i64 equilibration_steps = 100;         ///< discarded steps per temperature
  i64 stride = 5;                        ///< MD steps between snapshots
  i64 snapshots_per_temperature = 100;
  f64 friction = 0.05;                   ///< Langevin friction (1/fs)
};

/// Run the sampler and label every snapshot with the teacher's energy and
/// forces, bit for bit what md::evaluate() gives at its positions.
/// Deterministic given `rng`'s state.
std::vector<Snapshot> sample_trajectory(const Potential& potential,
                                        const Structure& initial,
                                        std::span<const f64> mass_per_type,
                                        const SamplerConfig& config, Rng& rng);

}  // namespace fekf::md

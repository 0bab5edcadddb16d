// BAOAB Langevin integrator (velocity Verlet when friction is zero).
//
// Generates the temperature-mixed configuration ensembles of Table 3: each
// dataset concatenates trajectories thermostatted at the paper's listed
// temperatures, sampled every `stride` steps.
#pragma once

#include "core/rng.hpp"
#include "md/potential.hpp"
#include "md/system.hpp"

namespace fekf::md {

class LangevinIntegrator {
 public:
  struct Config {
    f64 dt_fs = 1.0;        ///< time step (fs)
    f64 temperature = 300;  ///< target temperature (K)
    f64 friction = 0.02;    ///< 1/fs; 0 gives NVE velocity Verlet
  };

  /// `potential` must outlive the integrator and keep its parameters: the
  /// integrator reuses forces it computed earlier (see run()).
  LangevinIntegrator(const Potential& potential, Config config)
      : potential_(potential), config_(config) {
    FEKF_CHECK(config.dt_fs > 0, "dt must be positive");
    FEKF_CHECK(config.friction >= 0, "friction must be non-negative");
  }

  /// Draw Maxwell–Boltzmann velocities at the configured temperature and
  /// remove the center-of-mass drift.
  void initialize_velocities(System& system, Rng& rng) const;

  /// Advance `steps` BAOAB steps. Returns the potential energy after the
  /// final step. Each step evaluates the potential once. The evaluation
  /// that ends a run() is kept, and the next run() starts from it instead
  /// of evaluating again when the system's positions, types and cell are
  /// bitwise the ones it saw; the result is the same either way.
  f64 run(System& system, i64 steps, Rng& rng);

  /// The last evaluation as a labelled snapshot: the geometry the last
  /// run() left, with the potential's energy and forces there, bit for bit
  /// what md::evaluate() gives. Valid once run() has been called.
  const Snapshot& evaluation() const { return last_; }

  void set_temperature(f64 kelvin) { config_.temperature = kelvin; }

  /// Instantaneous kinetic temperature (K).
  static f64 kinetic_temperature(const System& system);
  /// Kinetic energy (eV).
  static f64 kinetic_energy(const System& system);

 private:
  /// Evaluate at the system's positions and remember where.
  void evaluate(const System& system);
  /// True when the last evaluation was at exactly this geometry.
  bool evaluated_at(const System& system) const;

  const Potential& potential_;
  Config config_;

  NeighborList nl_;  ///< rebuilt in place each step, keeping its storage
  Snapshot last_;  ///< geometry and result of the last evaluation
  bool evaluated_ = false;
};

}  // namespace fekf::md

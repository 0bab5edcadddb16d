#include "md/sampler.hpp"

namespace fekf::md {

std::vector<Snapshot> sample_trajectory(const Potential& potential,
                                        const Structure& initial,
                                        std::span<const f64> mass_per_type,
                                        const SamplerConfig& config,
                                        Rng& rng) {
  FEKF_CHECK(!config.temperatures.empty(), "need at least one temperature");
  FEKF_CHECK(config.stride >= 1, "stride must be >= 1");

  System system;
  system.cell = initial.cell;
  system.positions = initial.positions;
  system.types = initial.types;
  system.masses.reserve(initial.positions.size());
  for (const i32 t : initial.types) {
    FEKF_CHECK(t >= 0 && t < static_cast<i32>(mass_per_type.size()),
               "type without a mass");
    system.masses.push_back(mass_per_type[static_cast<std::size_t>(t)]);
  }

  std::vector<Snapshot> snapshots;
  snapshots.reserve(static_cast<std::size_t>(
      config.snapshots_per_temperature *
      static_cast<i64>(config.temperatures.size())));

  // One integrator for every temperature: each run() starts from the
  // forces the previous one ended with, and they are the labels too, so
  // each MD step costs one teacher evaluation and labelling costs none.
  LangevinIntegrator integrator(
      potential, LangevinIntegrator::Config{config.dt_fs,
                                            config.temperatures.front(),
                                            config.friction});
  for (const f64 temperature : config.temperatures) {
    integrator.set_temperature(temperature);
    integrator.initialize_velocities(system, rng);
    integrator.run(system, config.equilibration_steps, rng);
    for (i64 s = 0; s < config.snapshots_per_temperature; ++s) {
      integrator.run(system, config.stride, rng);
      snapshots.push_back(integrator.evaluation());
    }
  }
  return snapshots;
}

}  // namespace fekf::md

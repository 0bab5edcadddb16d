#include "md/langevin.hpp"

#include <cmath>
#include <cstring>

#include "md/units.hpp"

namespace fekf::md {

void LangevinIntegrator::initialize_velocities(System& system,
                                               Rng& rng) const {
  const i64 n = system.natoms();
  FEKF_CHECK(static_cast<i64>(system.masses.size()) == n, "masses size");
  system.velocities.assign(static_cast<std::size_t>(n), Vec3{});
  Vec3 p_total{};
  f64 m_total = 0.0;
  for (i64 i = 0; i < n; ++i) {
    const f64 m = system.masses[static_cast<std::size_t>(i)];
    const f64 s = std::sqrt(kBoltzmann * config_.temperature *
                            kForceToAccel / m);
    Vec3& v = system.velocities[static_cast<std::size_t>(i)];
    v = Vec3{s * rng.gaussian(), s * rng.gaussian(), s * rng.gaussian()};
    p_total += m * v;
    m_total += m;
  }
  const Vec3 v_com = p_total / m_total;
  for (auto& v : system.velocities) v -= v_com;
}

void LangevinIntegrator::evaluate(const System& system) {
  evaluated_ = false;  // stays false if the potential throws
  nl_.build(system.positions, system.cell, potential_.cutoff());
  last_.forces.assign(system.positions.size(), Vec3{});
  last_.energy = potential_.compute(system.positions, system.types,
                                    system.cell, nl_, last_.forces);
  last_.cell = system.cell;
  last_.positions = system.positions;
  last_.types = system.types;
  evaluated_ = true;
}

bool LangevinIntegrator::evaluated_at(const System& system) const {
  // Bitwise, not ==: the reused result must be the one a fresh evaluation
  // would give, and -0.0 == 0.0 does not promise that.
  auto same = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
  };
  const Vec3& l = last_.cell.lengths();
  const Vec3& c = system.cell.lengths();
  return evaluated_ && std::memcmp(&l, &c, sizeof l) == 0 &&
         same(last_.positions, system.positions) &&
         same(last_.types, system.types);
}

f64 LangevinIntegrator::run(System& system, i64 steps, Rng& rng) {
  const i64 n = system.natoms();
  FEKF_CHECK(static_cast<i64>(system.velocities.size()) == n,
             "velocities not initialized");
  const f64 dt = config_.dt_fs;
  const f64 half_dt = 0.5 * dt;
  const f64 gamma = config_.friction;
  const f64 c1 = std::exp(-gamma * dt);
  const f64 kT = kBoltzmann * config_.temperature;

  if (!evaluated_at(system)) evaluate(system);
  const std::vector<Vec3>& forces = last_.forces;
  for (i64 step = 0; step < steps; ++step) {
    // B: half kick.
    for (i64 i = 0; i < n; ++i) {
      const f64 inv_m =
          kForceToAccel / system.masses[static_cast<std::size_t>(i)];
      system.velocities[static_cast<std::size_t>(i)] +=
          (half_dt * inv_m) * forces[static_cast<std::size_t>(i)];
    }
    // A: half drift.
    for (i64 i = 0; i < n; ++i) {
      system.positions[static_cast<std::size_t>(i)] +=
          half_dt * system.velocities[static_cast<std::size_t>(i)];
    }
    // O: Ornstein–Uhlenbeck velocity refresh.
    if (gamma > 0.0) {
      for (i64 i = 0; i < n; ++i) {
        const f64 m = system.masses[static_cast<std::size_t>(i)];
        const f64 c2 = std::sqrt((1.0 - c1 * c1) * kT * kForceToAccel / m);
        Vec3& v = system.velocities[static_cast<std::size_t>(i)];
        v = c1 * v + Vec3{c2 * rng.gaussian(), c2 * rng.gaussian(),
                          c2 * rng.gaussian()};
      }
    }
    // A: half drift + wrap.
    for (i64 i = 0; i < n; ++i) {
      Vec3& r = system.positions[static_cast<std::size_t>(i)];
      r = system.cell.wrap(r + half_dt *
                                   system.velocities[static_cast<std::size_t>(i)]);
    }
    // Recompute forces, then B: half kick.
    evaluate(system);
    for (i64 i = 0; i < n; ++i) {
      const f64 inv_m =
          kForceToAccel / system.masses[static_cast<std::size_t>(i)];
      system.velocities[static_cast<std::size_t>(i)] +=
          (half_dt * inv_m) * forces[static_cast<std::size_t>(i)];
    }
  }
  return last_.energy;
}

f64 LangevinIntegrator::kinetic_energy(const System& system) {
  f64 ke = 0.0;
  for (i64 i = 0; i < system.natoms(); ++i) {
    ke += 0.5 * system.masses[static_cast<std::size_t>(i)] *
          system.velocities[static_cast<std::size_t>(i)].norm2() /
          kForceToAccel;
  }
  return ke;
}

f64 LangevinIntegrator::kinetic_temperature(const System& system) {
  const i64 dof = 3 * system.natoms();
  if (dof == 0) return 0.0;
  return 2.0 * kinetic_energy(system) / (static_cast<f64>(dof) * kBoltzmann);
}

}  // namespace fekf::md

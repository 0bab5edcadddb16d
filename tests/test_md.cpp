// MD substrate tests: neighbor-list invariants and the oracle against the
// unpruned 27-image search, analytic-vs-numeric forces for every teacher
// potential, NVE energy conservation, Langevin thermostatting, and lattice
// builders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "core/rng.hpp"
#include "data/systems.hpp"
#include "md/bonded.hpp"
#include "md/coulomb.hpp"
#include "md/eam.hpp"
#include "md/langevin.hpp"
#include "md/lattice.hpp"
#include "md/pair.hpp"
#include "md/sampler.hpp"
#include "md/sw.hpp"
#include "md/units.hpp"

namespace fekf::md {
namespace {

void jiggle(Structure& s, f64 amplitude, u64 seed) {
  Rng rng(seed);
  for (auto& p : s.positions) {
    p += Vec3{rng.uniform(-amplitude, amplitude),
              rng.uniform(-amplitude, amplitude),
              rng.uniform(-amplitude, amplitude)};
    p = s.cell.wrap(p);
  }
}

f64 energy_of(const Potential& pot, const Structure& s) {
  return evaluate(pot, s.positions, s.types, s.cell).energy;
}

// Property: analytic forces match central finite differences of the energy
// on a handful of randomly chosen atoms/directions.
void check_forces(const Potential& pot, const Structure& s, f64 tol,
                  u64 seed = 99) {
  EnergyForces ef = evaluate(pot, s.positions, s.types, s.cell);
  Rng rng(seed);
  const f64 eps = 1e-5;
  for (int trial = 0; trial < 12; ++trial) {
    const i64 atom = static_cast<i64>(rng.uniform_index(
        static_cast<u64>(s.natoms())));
    const int axis = static_cast<int>(rng.uniform_index(3));
    Structure sp = s;
    Structure sm = s;
    auto& cp = sp.positions[static_cast<std::size_t>(atom)];
    auto& cm = sm.positions[static_cast<std::size_t>(atom)];
    (axis == 0 ? cp.x : axis == 1 ? cp.y : cp.z) += eps;
    (axis == 0 ? cm.x : axis == 1 ? cm.y : cm.z) -= eps;
    const f64 numeric = -(energy_of(pot, sp) - energy_of(pot, sm)) / (2 * eps);
    const Vec3& f = ef.forces[static_cast<std::size_t>(atom)];
    const f64 analytic = axis == 0 ? f.x : axis == 1 ? f.y : f.z;
    EXPECT_NEAR(analytic, numeric, tol * (1.0 + std::abs(numeric)))
        << "atom " << atom << " axis " << axis;
  }
}

TEST(Neighbor, SymmetricAndSorted) {
  Structure s = make_fcc(3.6, 2, 2, 2);
  jiggle(s, 0.1, 7);
  NeighborList nl;
  nl.build(s.positions, s.cell, 5.0);
  for (i64 i = 0; i < s.natoms(); ++i) {
    f64 prev = 0.0;
    for (const Neighbor& nb : nl.of(i)) {
      EXPECT_GE(nb.r, prev);  // sorted by distance
      prev = nb.r;
      EXPECT_NEAR(nb.r, nb.d.norm(), 1e-12);
      EXPECT_LT(nb.r, 5.0);
    }
    // Mirror property: i sees j as often as j sees i.
    for (i64 j = 0; j < s.natoms(); ++j) {
      i64 ij = 0, ji = 0;
      for (const Neighbor& nb : nl.of(i)) ij += nb.index == j;
      for (const Neighbor& nb : nl.of(j)) ji += nb.index == i;
      EXPECT_EQ(ij, ji) << i << " " << j;
    }
  }
}

TEST(Neighbor, SelfImagesAppearInSmallCells) {
  // One atom in a 3 Å box with a 5 Å cutoff must see its own images.
  Structure s;
  s.cell = Cell(3.0, 3.0, 3.0);
  s.positions = {Vec3{1.0, 1.0, 1.0}};
  s.types = {0};
  NeighborList nl;
  nl.build(s.positions, s.cell, 5.0);
  EXPECT_GT(nl.of(0).size(), 0u);
  for (const Neighbor& nb : nl.of(0)) EXPECT_EQ(nb.index, 0);
}

TEST(Neighbor, CountMatchesBruteForceShell) {
  // In a perfect FCC crystal the first shell has 12 neighbors.
  Structure s = make_fcc(3.6, 3, 3, 3);
  NeighborList nl;
  nl.build(s.positions, s.cell, 3.6 / std::sqrt(2.0) + 0.1);
  for (i64 i = 0; i < s.natoms(); ++i) {
    EXPECT_EQ(nl.of(i).size(), 12u);
  }
}

// The neighbor search as it was before image pruning: every shift out to
// ceil(rcut / L) is tested, and the lists are sorted as whole Neighbors. It
// is the oracle for NeighborList::build, which must reproduce it bit for
// bit — same neighbors, same d and r, same order among equal distances —
// because the teacher labels and every env matrix are built from these
// lists.
std::vector<std::vector<Neighbor>> unpruned_lists(
    std::span<const Vec3> positions, const Cell& cell, f64 rcut) {
  const i64 n = static_cast<i64>(positions.size());
  std::vector<std::vector<Neighbor>> lists(static_cast<std::size_t>(n));

  const Vec3 box = cell.lengths();
  const i32 sx = static_cast<i32>(std::ceil(rcut / box.x));
  const i32 sy = static_cast<i32>(std::ceil(rcut / box.y));
  const i32 sz = static_cast<i32>(std::ceil(rcut / box.z));
  const f64 rc2 = rcut * rcut;

  for (i64 i = 0; i < n; ++i) {
    auto& list = lists[static_cast<std::size_t>(i)];
    const Vec3 ri = positions[static_cast<std::size_t>(i)];
    for (i64 j = 0; j < n; ++j) {
      const Vec3 base = positions[static_cast<std::size_t>(j)] - ri;
      for (i32 ax = -sx; ax <= sx; ++ax) {
        for (i32 ay = -sy; ay <= sy; ++ay) {
          for (i32 az = -sz; az <= sz; ++az) {
            if (i == j && ax == 0 && ay == 0 && az == 0) continue;
            const Vec3 d{base.x + ax * box.x, base.y + ay * box.y,
                         base.z + az * box.z};
            const f64 r2 = d.norm2();
            if (r2 < rc2 && r2 > 1e-12) {
              list.push_back(
                  Neighbor{static_cast<i32>(j), d, std::sqrt(r2)});
            }
          }
        }
      }
    }
    std::sort(list.begin(), list.end(),
              [](const Neighbor& a, const Neighbor& b) { return a.r < b.r; });
  }
  return lists;
}

bool same_bits(f64 a, f64 b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Builds into `nl` (which may hold an earlier build) and compares every
// list against the oracle bitwise. Returns the number of neighbors seen.
i64 expect_matches_oracle(NeighborList& nl, std::span<const Vec3> positions,
                          const Cell& cell, f64 rcut,
                          const std::string& label) {
  nl.build(positions, cell, rcut);
  const auto want = unpruned_lists(positions, cell, rcut);
  EXPECT_EQ(nl.size(), static_cast<i64>(want.size())) << label;
  if (nl.size() != static_cast<i64>(want.size())) return 0;
  i64 total = 0;
  for (i64 i = 0; i < nl.size(); ++i) {
    const auto& got = nl.of(i);
    const auto& ref = want[static_cast<std::size_t>(i)];
    EXPECT_EQ(got.size(), ref.size()) << label << " atom " << i;
    if (got.size() != ref.size()) return total;
    for (std::size_t k = 0; k < got.size(); ++k) {
      const bool same = got[k].index == ref[k].index &&
                        same_bits(got[k].d.x, ref[k].d.x) &&
                        same_bits(got[k].d.y, ref[k].d.y) &&
                        same_bits(got[k].d.z, ref[k].d.z) &&
                        same_bits(got[k].r, ref[k].r);
      EXPECT_TRUE(same) << label << " atom " << i << " slot " << k;
      if (!same) return total;
    }
    total += static_cast<i64>(got.size());
  }
  return total;
}

TEST(NeighborOracle, CatalogStartStructures) {
  // Perfect lattices put whole shells at one distance, so the sort's tie
  // order is exercised on every system.
  NeighborList nl;
  for (const std::string& name : data::system_names()) {
    const data::SystemSpec& spec = data::get_system(name);
    Rng rng(5);
    const Structure s = spec.make_structure(rng);
    const f64 teacher_rcut = spec.make_potential(s)->cutoff();
    for (const f64 rcut : {teacher_rcut, 6.0, 3.5}) {
      EXPECT_GT(expect_matches_oracle(nl, s.positions, s.cell, rcut,
                                      name + " rcut " + std::to_string(rcut)),
                0);
    }
  }
}

TEST(NeighborOracle, JitteredMdSnapshots) {
  NeighborList nl;
  for (const std::string& name : {std::string("Cu"), std::string("CuO")}) {
    const data::SystemSpec& spec = data::get_system(name);
    Rng rng(31);
    const Structure s = spec.make_structure(rng);
    auto pot = spec.make_potential(s);
    SamplerConfig cfg;
    cfg.dt_fs = spec.dt_fs;
    cfg.temperatures = {spec.temperatures.back()};
    cfg.equilibration_steps = 4;
    cfg.stride = 2;
    cfg.snapshots_per_temperature = 3;
    for (const Snapshot& snap :
         sample_trajectory(*pot, s, spec.masses, cfg, rng)) {
      expect_matches_oracle(nl, snap.positions, snap.cell, pot->cutoff(),
                            name + " MD snapshot");
    }
  }
  for (u64 seed = 1; seed <= 4; ++seed) {
    Structure s = make_fcc(3.615, 3, 3, 3);
    jiggle(s, 0.3, seed);
    expect_matches_oracle(nl, s.positions, s.cell, 6.0, "jiggled fcc");
  }
}

TEST(NeighborOracle, ServingCellsAtThreeAngstrom) {
  // 32-atom Cu cells displaced by a gaussian and not wrapped, so some
  // coordinates sit just outside [0, L).
  const Structure fcc = make_fcc(3.615, 2, 2, 2);
  Rng rng(41);
  NeighborList nl;
  for (int c = 0; c < 8; ++c) {
    std::vector<Vec3> positions = fcc.positions;
    for (Vec3& p : positions) {
      p += Vec3{0.02 * 3.615 * rng.gaussian(), 0.02 * 3.615 * rng.gaussian(),
                0.02 * 3.615 * rng.gaussian()};
    }
    expect_matches_oracle(nl, positions, fcc.cell, 3.0, "serving cell");
  }
}

TEST(NeighborOracle, CutoffBeyondTheBoxReachesTwoImageShells) {
  // L = 7.2 and rcut = 9 > L: shifts of +-2 boxes contribute.
  Structure s = make_fcc(3.6, 2, 2, 2);
  jiggle(s, 0.1, 43);
  NeighborList nl;
  EXPECT_GT(expect_matches_oracle(nl, s.positions, s.cell, 9.0, "rcut > L"),
            0);
  expect_matches_oracle(nl, s.positions, s.cell, 4.5, "rcut > L/2");
}

TEST(NeighborOracle, OneAtomSeesItsOwnImages) {
  const std::vector<Vec3> positions = {Vec3{1.0, 1.0, 1.0}};
  NeighborList nl;
  EXPECT_GT(expect_matches_oracle(nl, positions, Cell(3.0, 3.0, 3.0), 5.0,
                                  "one atom"),
            0);
  expect_matches_oracle(nl, positions, Cell(2.5, 3.5, 6.0), 6.1,
                        "one atom, non-cubic");
}

TEST(NeighborOracle, NonCubicBoxWithAtomsOnTheEdge) {
  // Atoms at 0 and at L on an axis, one exactly rcut from another along x
  // (the prune's boundary), and a rebuild into a list that held a larger
  // system before.
  const Cell cell(4.0, 5.5, 7.25);
  const std::vector<Vec3> positions = {
      Vec3{0.0, 0.0, 0.0},   Vec3{4.0, 2.75, 0.0}, Vec3{3.0, 0.0, 0.0},
      Vec3{0.0, 5.5, 7.25},  Vec3{2.0, 5.4999, 3.625},
      Vec3{1.0, 1.0, 7.2499}};
  NeighborList nl;
  Structure big = make_fcc(3.615, 3, 3, 3);
  jiggle(big, 0.2, 47);
  expect_matches_oracle(nl, big.positions, big.cell, 6.0, "large first");
  for (const f64 rcut : {3.0, 2.75, 4.0, 5.5, 7.25, 8.0}) {
    EXPECT_GT(expect_matches_oracle(nl, positions, cell, rcut,
                                    "edge atoms rcut " + std::to_string(rcut)),
              0);
  }
}

TEST(Lattice, AtomCounts) {
  EXPECT_EQ(make_fcc(3.6, 3, 3, 3).natoms(), 108);   // paper Cu
  EXPECT_EQ(make_fcc(4.05, 2, 2, 2).natoms(), 32);   // paper Al
  EXPECT_EQ(make_hcp(3.21, 5.21, 3, 1, 3).natoms(), 36);  // paper Mg
  EXPECT_EQ(make_diamond(5.43, 2, 2, 2).natoms(), 64);
  EXPECT_EQ(make_rocksalt(5.64, 2, 2, 2, 0, 1).natoms(), 64);  // paper NaCl
  EXPECT_EQ(make_fluorite(5.08, 2, 2, 2, 0, 1).natoms(), 96);
  Rng rng(3);
  EXPECT_EQ(make_water_box(3.2, 2, 2, 4, rng).natoms(), 48);  // paper H2O
}

TEST(Lattice, MinimumDistanceSane) {
  Rng rng(4);
  const Structure boxes[] = {make_fcc(3.6, 2, 2, 2),
                             make_diamond(5.43, 2, 2, 2),
                             make_rocksalt(5.64, 2, 2, 2, 0, 1),
                             make_fluorite(5.08, 2, 2, 2, 0, 1),
                             make_water_box(3.2, 2, 2, 2, rng)};
  for (const Structure& s : boxes) {
    NeighborList nl;
    nl.build(s.positions, s.cell, 4.0);
    f64 min_r = 1e30;
    for (i64 i = 0; i < s.natoms(); ++i) {
      for (const Neighbor& nb : nl.of(i)) min_r = std::min(min_r, nb.r);
    }
    EXPECT_GT(min_r, 0.8);
  }
}

TEST(Forces, LennardJones) {
  Structure s = make_fcc(3.6, 2, 2, 2);
  jiggle(s, 0.15, 11);
  LennardJones lj(1, 5.5);
  lj.set_pair(0, 0, {0.2, 2.3});
  check_forces(lj, s, 1e-4);
}

TEST(Forces, Morse) {
  Structure s = make_rocksalt(4.3, 2, 2, 2, 0, 1);
  jiggle(s, 0.12, 12);
  Morse morse(2, 5.5);
  morse.set_pair(0, 1, {0.8, 1.8, 2.1});
  morse.set_pair(0, 0, {0.1, 1.5, 2.8});
  morse.set_pair(1, 1, {0.1, 1.5, 2.8});
  check_forces(morse, s, 1e-4);
}

TEST(Forces, BornMayerPlusWolf) {
  Structure s = make_rocksalt(5.64, 2, 2, 2, 0, 1);
  jiggle(s, 0.1, 13);
  CompositePotential pot;
  auto bm = std::make_unique<BornMayer>(2, 6.0);
  bm->set_pair(0, 1, {1200.0, 0.32, 0.0});
  bm->set_pair(0, 0, {420.0, 0.32, 1.05});
  bm->set_pair(1, 1, {3500.0, 0.32, 72.4});
  pot.add(std::move(bm));
  pot.add(std::make_unique<WolfCoulomb>(std::vector<f64>{1.0, -1.0}, 6.0));
  check_forces(pot, s, 1e-3);
}

TEST(Forces, SuttonChenCopper) {
  Structure s = make_fcc(3.615, 2, 2, 2);
  jiggle(s, 0.15, 14);
  SuttonChen sc({0.012382, 3.615, 39.432, 9.0, 6.0}, 6.0);
  check_forces(sc, s, 1e-4);
}

TEST(Forces, StillingerWeberSilicon) {
  Structure s = make_diamond(5.43, 2, 2, 2);
  jiggle(s, 0.12, 15);
  StillingerWeber sw;
  check_forces(sw, s, 1e-4);
}

TEST(Forces, WaterComposite) {
  Rng rng(16);
  Structure s = make_water_box(3.2, 2, 2, 2, rng);
  jiggle(s, 0.05, 17);
  const i64 nmol = s.natoms() / 3;
  std::vector<Bond> bonds;
  std::vector<Angle> angles;
  std::vector<i32> mols(static_cast<std::size_t>(s.natoms()));
  for (i64 m = 0; m < nmol; ++m) {
    const i32 o = static_cast<i32>(3 * m);
    bonds.push_back({o, o + 1, 45.9, 0.9572});
    bonds.push_back({o, o + 2, 45.9, 0.9572});
    angles.push_back({o + 1, o, o + 2, 3.29, 104.52 * std::numbers::pi / 180});
    mols[static_cast<std::size_t>(o)] = mols[static_cast<std::size_t>(o + 1)] =
        mols[static_cast<std::size_t>(o + 2)] = static_cast<i32>(m);
  }
  CompositePotential pot;
  pot.add(std::make_unique<BondedTerms>(bonds, angles));
  auto lj = std::make_unique<LennardJones>(2, 6.0);
  lj->set_pair(0, 0, {0.00674, 3.166});
  lj->set_molecules(mols);
  pot.add(std::move(lj));
  auto coul =
      std::make_unique<WolfCoulomb>(std::vector<f64>{-0.82, 0.41}, 6.0);
  coul->set_molecules(mols);
  pot.add(std::move(coul));
  check_forces(pot, s, 2e-3);
}

TEST(Forces, NetForceIsZero) {
  // Translational invariance: forces sum to ~0 for all teachers.
  Structure s = make_fcc(3.615, 2, 2, 2);
  jiggle(s, 0.2, 18);
  SuttonChen sc({0.012382, 3.615, 39.432, 9.0, 6.0}, 6.0);
  EnergyForces ef = evaluate(sc, s.positions, s.types, s.cell);
  Vec3 total{};
  for (const Vec3& f : ef.forces) total += f;
  EXPECT_NEAR(total.norm(), 0.0, 1e-9);
}

TEST(Langevin, NveConservesEnergy) {
  Structure s = make_fcc(3.615, 2, 2, 2);
  SuttonChen sc({0.012382, 3.615, 39.432, 9.0, 6.0}, 6.0);
  System sys{s.cell, s.positions, {}, s.types,
             std::vector<f64>(static_cast<std::size_t>(s.natoms()), 63.546)};
  LangevinIntegrator nve(sc, {1.0, 300.0, 0.0});
  Rng rng(20);
  nve.initialize_velocities(sys, rng);
  const f64 e0 = evaluate(sc, sys.positions, sys.types, sys.cell).energy +
                 LangevinIntegrator::kinetic_energy(sys);
  const f64 pe = nve.run(sys, 200, rng);
  const f64 e1 = pe + LangevinIntegrator::kinetic_energy(sys);
  EXPECT_NEAR(e0, e1, 5e-3 * std::abs(e0) + 1e-3);
}

TEST(Langevin, ThermostatsToTarget) {
  Structure s = make_fcc(3.615, 2, 2, 2);
  SuttonChen sc({0.012382, 3.615, 39.432, 9.0, 6.0}, 6.0);
  System sys{s.cell, s.positions, {}, s.types,
             std::vector<f64>(static_cast<std::size_t>(s.natoms()), 63.546)};
  LangevinIntegrator thermo(sc, {2.0, 600.0, 0.05});
  Rng rng(21);
  thermo.initialize_velocities(sys, rng);
  thermo.run(sys, 300, rng);
  // Average over a window to beat kinetic-temperature fluctuations.
  f64 t_acc = 0.0;
  const int windows = 30;
  for (int w = 0; w < windows; ++w) {
    thermo.run(sys, 10, rng);
    t_acc += LangevinIntegrator::kinetic_temperature(sys);
  }
  const f64 t_mean = t_acc / windows;
  EXPECT_NEAR(t_mean, 600.0, 150.0);
}

TEST(Langevin, CarriedEvaluationMatchesAFreshOne) {
  Structure s = make_fcc(3.615, 2, 2, 2);
  jiggle(s, 0.05, 24);
  SuttonChen sc({0.012382, 3.615, 39.432, 9.0, 6.0}, 6.0);
  const std::vector<f64> masses(static_cast<std::size_t>(s.natoms()), 63.546);
  System a{s.cell, s.positions, {}, s.types, masses};
  System b = a;
  LangevinIntegrator carried(sc, {1.0, 500.0, 0.05});
  Rng rng_a(25), rng_b(25);
  carried.initialize_velocities(a, rng_a);
  LangevinIntegrator(sc, {1.0, 500.0, 0.05}).initialize_velocities(b, rng_b);
  for (int chunk = 0; chunk < 4; ++chunk) {
    const f64 ea = carried.run(a, 3, rng_a);
    const f64 eb = LangevinIntegrator(sc, {1.0, 500.0, 0.05}).run(b, 3, rng_b);
    EXPECT_EQ(std::memcmp(&ea, &eb, sizeof ea), 0) << chunk;
    ASSERT_EQ(std::memcmp(a.positions.data(), b.positions.data(),
                          a.positions.size() * sizeof(Vec3)),
              0)
        << chunk;
    ASSERT_EQ(std::memcmp(a.velocities.data(), b.velocities.data(),
                          a.velocities.size() * sizeof(Vec3)),
              0)
        << chunk;
  }
  // Moving an atom between runs makes the next run evaluate afresh.
  a.positions[3].x += 0.01;
  carried.run(a, 0, rng_a);
  const EnergyForces moved = evaluate(sc, a.positions, a.types, a.cell);
  const Snapshot& last = carried.evaluation();
  EXPECT_EQ(last.energy, moved.energy);
  ASSERT_EQ(last.forces.size(), moved.forces.size());
  EXPECT_EQ(std::memcmp(last.forces.data(), moved.forces.data(),
                        moved.forces.size() * sizeof(Vec3)),
            0);
}

TEST(Sampler, ProducesLabelledSnapshots) {
  Structure s = make_fcc(3.615, 2, 2, 2);
  SuttonChen sc({0.012382, 3.615, 39.432, 9.0, 6.0}, 6.0);
  SamplerConfig cfg;
  cfg.temperatures = {300.0, 600.0};
  cfg.equilibration_steps = 20;
  cfg.stride = 2;
  cfg.snapshots_per_temperature = 5;
  Rng rng(22);
  const f64 masses[] = {63.546};
  auto snaps = sample_trajectory(sc, s, masses, cfg, rng);
  ASSERT_EQ(snaps.size(), 10u);
  for (const Snapshot& snap : snaps) {
    EXPECT_EQ(snap.natoms(), s.natoms());
    EXPECT_EQ(snap.forces.size(), snap.positions.size());
    EXPECT_TRUE(std::isfinite(snap.energy));
  }
  // Different temperatures should yield distinct configurations/energies.
  EXPECT_NE(snaps.front().energy, snaps.back().energy);
}

TEST(Sampler, DeterministicGivenSeed) {
  Structure s = make_fcc(3.615, 2, 2, 2);
  SuttonChen sc({0.012382, 3.615, 39.432, 9.0, 6.0}, 6.0);
  SamplerConfig cfg;
  cfg.temperatures = {400.0};
  cfg.equilibration_steps = 5;
  cfg.snapshots_per_temperature = 3;
  const f64 masses[] = {63.546};
  Rng rng1(23), rng2(23);
  auto a = sample_trajectory(sc, s, masses, cfg, rng1);
  auto b = sample_trajectory(sc, s, masses, cfg, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].energy, b[i].energy);
  }
}

}  // namespace
}  // namespace fekf::md

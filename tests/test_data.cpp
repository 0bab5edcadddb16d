// Data-module tests: the 8-system catalog (Table 3 fidelity + teacher
// stability as a parameterized sweep), dataset splitting, and the batch
// sampler's epoch semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <span>

#include "data/dataset.hpp"
#include "data/systems.hpp"
#include "md/langevin.hpp"
#include "md/neighbor.hpp"
#include "md/sampler.hpp"
#include "md/units.hpp"

namespace fekf::data {
namespace {

TEST(Systems, CatalogHasEightPaperSystems) {
  const auto& names = system_names();
  ASSERT_EQ(names.size(), 8u);
  const std::vector<std::string> expected = {"Cu",  "Al",  "Si",  "NaCl",
                                             "Mg",  "H2O", "CuO", "HfO2"};
  EXPECT_EQ(names, expected);
  EXPECT_THROW(get_system("Unobtainium"), Error);
}

TEST(Systems, Table3Metadata) {
  // Spot-check the Table 3 columns the catalog encodes.
  EXPECT_EQ(get_system("Cu").paper_snapshots, 72102);
  EXPECT_EQ(get_system("Cu").dt_fs, 2.0);
  EXPECT_EQ(get_system("Mg").paper_snapshots, 12800);
  EXPECT_EQ(get_system("HfO2").paper_snapshots, 28577);
  EXPECT_EQ(get_system("H2O").elements.size(), 2u);
  EXPECT_EQ(get_system("NaCl").temperatures.size(), 3u);
}

TEST(Systems, PaperAtomCounts) {
  Rng rng(1);
  EXPECT_EQ(get_system("Cu").make_structure(rng).natoms(), 108);
  EXPECT_EQ(get_system("Al").make_structure(rng).natoms(), 32);
  EXPECT_EQ(get_system("Mg").make_structure(rng).natoms(), 36);
  EXPECT_EQ(get_system("NaCl").make_structure(rng).natoms(), 64);
  EXPECT_EQ(get_system("H2O").make_structure(rng).natoms(), 48);
  EXPECT_EQ(get_system("CuO").make_structure(rng).natoms(), 64);
  // Si and HfO2 are the two the supercell geometry cannot hit exactly
  // (paper: 72 and 98).
  EXPECT_EQ(get_system("Si").make_structure(rng).natoms(), 64);
  EXPECT_EQ(get_system("HfO2").make_structure(rng).natoms(), 96);
}

// Parameterized teacher-stability sweep: every catalog system must survive
// short MD at its highest listed temperature without atoms fusing or the
// energy diverging.
class TeacherStability : public ::testing::TestWithParam<std::string> {};

TEST_P(TeacherStability, HighTemperatureMdIsSane) {
  const SystemSpec& spec = get_system(GetParam());
  Rng rng(17);
  md::Structure st = spec.make_structure(rng);
  auto pot = spec.make_potential(st);

  md::System sys;
  sys.cell = st.cell;
  sys.positions = st.positions;
  sys.types = st.types;
  for (const i32 t : st.types) {
    sys.masses.push_back(spec.masses[static_cast<std::size_t>(t)]);
  }
  md::LangevinIntegrator integrator(
      *pot, {spec.dt_fs, spec.temperatures.back(), 0.05});
  integrator.initialize_velocities(sys, rng);
  const f64 e0 =
      md::evaluate(*pot, sys.positions, sys.types, sys.cell).energy;
  const f64 e1 = integrator.run(sys, 150, rng);
  EXPECT_TRUE(std::isfinite(e1));
  // Energy scale should not explode (thermal fluctuation, not meltdown).
  EXPECT_LT(std::abs(e1 - e0),
            2.0 * md::kBoltzmann * spec.temperatures.back() * 3.0 *
                    static_cast<f64>(sys.natoms()) +
                0.5 * std::abs(e0) + 50.0);
  // No fused atoms.
  md::NeighborList nl;
  nl.build(sys.positions, sys.cell, 3.0);
  for (i64 i = 0; i < sys.natoms(); ++i) {
    for (const md::Neighbor& nb : nl.of(i)) {
      EXPECT_GT(nb.r, 0.55) << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, TeacherStability,
                         ::testing::ValuesIn(system_names()),
                         [](const auto& info) { return info.param; });

// The sampler as it was before the integrator carried its last
// evaluation: every run() starts with a fresh integrator (so with a fresh
// force evaluation), and the labels come from md::evaluate().
std::vector<md::Snapshot> reference_trajectory(
    const md::Potential& potential, const md::Structure& initial,
    std::span<const f64> mass_per_type, const md::SamplerConfig& config,
    Rng& rng) {
  md::System system;
  system.cell = initial.cell;
  system.positions = initial.positions;
  system.types = initial.types;
  for (const i32 t : initial.types) {
    system.masses.push_back(mass_per_type[static_cast<std::size_t>(t)]);
  }
  const auto fresh = [&](f64 temperature) {
    return md::LangevinIntegrator(
        potential, md::LangevinIntegrator::Config{config.dt_fs, temperature,
                                                  config.friction});
  };
  std::vector<md::Snapshot> snapshots;
  for (const f64 temperature : config.temperatures) {
    fresh(temperature).initialize_velocities(system, rng);
    fresh(temperature).run(system, config.equilibration_steps, rng);
    for (i64 s = 0; s < config.snapshots_per_temperature; ++s) {
      fresh(temperature).run(system, config.stride, rng);
      md::EnergyForces labels =
          md::evaluate(potential, system.positions, system.types, system.cell);
      snapshots.push_back(md::Snapshot{system.cell, system.positions,
                                       system.types, labels.energy,
                                       std::move(labels.forces)});
    }
  }
  return snapshots;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool same_bits(f64 a, f64 b) { return std::memcmp(&a, &b, sizeof a) == 0; }

class SamplerLabels : public ::testing::TestWithParam<std::string> {};

TEST_P(SamplerLabels, CarriedEvaluationsAreTheTeacherLabelsBitForBit) {
  const SystemSpec& spec = get_system(GetParam());
  Rng rng(61);
  const md::Structure st = spec.make_structure(rng);
  auto pot = spec.make_potential(st);
  md::SamplerConfig cfg;
  cfg.dt_fs = spec.dt_fs;
  cfg.temperatures = {spec.temperatures.front(), spec.temperatures.back()};
  cfg.equilibration_steps = 6;
  cfg.stride = 3;
  cfg.snapshots_per_temperature = 3;
  Rng rng_a(62), rng_b(62);
  const auto got = md::sample_trajectory(*pot, st, spec.masses, cfg, rng_a);
  const auto want = reference_trajectory(*pot, st, spec.masses, cfg, rng_b);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    const md::Snapshot& snap = got[k];
    const md::EnergyForces at =
        md::evaluate(*pot, snap.positions, snap.types, snap.cell);
    EXPECT_TRUE(same_bits(snap.energy, at.energy)) << "snapshot " << k;
    EXPECT_TRUE(same_bits(snap.forces, at.forces)) << "snapshot " << k;
    EXPECT_TRUE(same_bits(snap.positions, want[k].positions))
        << "snapshot " << k;
    EXPECT_TRUE(same_bits(snap.energy, want[k].energy)) << "snapshot " << k;
    EXPECT_TRUE(same_bits(snap.forces, want[k].forces)) << "snapshot " << k;
  }
  // Both consumed the same random stream.
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

INSTANTIATE_TEST_SUITE_P(MetalAndComposite, SamplerLabels,
                         ::testing::Values("Cu", "CuO"),
                         [](const auto& info) { return info.param; });

TEST(Dataset, SplitCoversAllTemperatures) {
  DatasetConfig cfg;
  cfg.train_per_temperature = 4;
  cfg.test_per_temperature = 2;
  const SystemSpec& spec = get_system("NaCl");
  Dataset ds = build_dataset(spec, cfg);
  EXPECT_EQ(ds.train.size(), 4u * spec.temperatures.size());
  EXPECT_EQ(ds.test.size(), 2u * spec.temperatures.size());
  EXPECT_EQ(ds.natoms(), 64);
  for (const md::Snapshot& s : ds.train) {
    EXPECT_TRUE(std::isfinite(s.energy));
    EXPECT_EQ(s.forces.size(), s.positions.size());
  }
}

TEST(Dataset, DeterministicForSeed) {
  DatasetConfig cfg;
  cfg.train_per_temperature = 3;
  cfg.test_per_temperature = 1;
  cfg.seed = 77;
  Dataset a = build_dataset(get_system("Cu"), cfg);
  Dataset b = build_dataset(get_system("Cu"), cfg);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].energy, b.train[i].energy);
  }
}

TEST(BatchSampler, CoversEpochExactlyOnce) {
  BatchSampler sampler(10, 3, 5);
  std::vector<i64> batch;
  std::multiset<i64> seen;
  int batches = 0;
  while (sampler.next(batch)) {
    seen.insert(batch.begin(), batch.end());
    ++batches;
  }
  EXPECT_EQ(batches, 4);  // 3+3+3+1
  EXPECT_EQ(seen.size(), 10u);
  for (i64 i = 0; i < 10; ++i) EXPECT_EQ(seen.count(i), 1u);
}

TEST(BatchSampler, ReshufflesBetweenEpochs) {
  BatchSampler sampler(32, 32, 6);
  std::vector<i64> epoch1, epoch2, batch;
  while (sampler.next(batch)) {
    epoch1 = batch;
  }
  while (sampler.next(batch)) {
    epoch2 = batch;
  }
  EXPECT_NE(epoch1, epoch2);  // astronomically unlikely to match
  EXPECT_EQ(sampler.batches_per_epoch(), 1);
}

TEST(BatchSampler, BatchesPerEpochRoundsUp) {
  EXPECT_EQ(BatchSampler(10, 3, 0).batches_per_epoch(), 4);
  EXPECT_EQ(BatchSampler(9, 3, 0).batches_per_epoch(), 3);
  EXPECT_EQ(BatchSampler(1, 8, 0).batches_per_epoch(), 1);
}

}  // namespace
}  // namespace fekf::data

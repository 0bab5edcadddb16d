// Virtual-cluster tests: interconnect model properties, communication
// ledger accounting (FEKF ships gradients only, never P), and distributed
// training equivalence/scaling behaviour on the shared resilient loop.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/fault.hpp"
#include "data/dataset.hpp"
#include "dist/cluster.hpp"
#include "tensor/workspace.hpp"
#include "train/observer.hpp"

namespace fekf::dist {
namespace {

TEST(Interconnect, SingleRankIsFree) {
  InterconnectModel net;
  EXPECT_EQ(net.allreduce_seconds(1 << 20, 1), 0.0);
  EXPECT_EQ(InterconnectModel::allreduce_bytes(1 << 20, 1), 0);
}

TEST(Interconnect, TimeGrowsWithRanksAndBytes) {
  InterconnectModel net;
  const f64 t4 = net.allreduce_seconds(1 << 20, 4);
  const f64 t16 = net.allreduce_seconds(1 << 20, 16);
  EXPECT_GT(t16, t4);
  EXPECT_GT(net.allreduce_seconds(8 << 20, 4), t4);
}

TEST(Interconnect, PaperAccountingOfBytes) {
  // §3.3: (r - 1) * Mem(g).
  EXPECT_EQ(InterconnectModel::allreduce_bytes(1000, 5), 4000);
}

TEST(Interconnect, BandwidthDominatesForLargePayloads) {
  InterconnectModel net;
  net.latency_s = 0.0;
  // 2 (r-1)/r * bytes / BW.
  const i64 bytes = 100 << 20;
  const f64 expected =
      2.0 * 3.0 * (static_cast<f64>(bytes) / 4.0) / (25.0 * 1e9);
  EXPECT_NEAR(net.allreduce_seconds(bytes, 4), expected, 1e-9);
}

struct Fixture {
  data::Dataset dataset;
  std::unique_ptr<deepmd::DeepmdModel> model;
  std::vector<train::EnvPtr> train_envs;
};

Fixture make_fixture(i64 per_temp = 8) {
  Fixture f;
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature = per_temp;
  dcfg.test_per_temperature = 1;
  deepmd::ModelConfig mcfg;
  mcfg.rcut = 5.0;
  mcfg.rcut_smth = 2.5;
  mcfg.embed_width = 8;
  mcfg.axis_neurons = 4;
  mcfg.fitting_width = 16;
  const data::SystemSpec& spec = data::get_system("Cu");
  f.dataset = data::build_dataset(spec, dcfg);
  f.model = std::make_unique<deepmd::DeepmdModel>(mcfg, 1);
  f.model->fit_stats(f.dataset.train);
  f.train_envs = train::prepare_all(*f.model, f.dataset.train);
  return f;
}

/// Pins the injector to `spec` for the test, restoring the ambient
/// FEKF_FAULT_SPEC arms on scope exit.
struct InjectorGuard {
  explicit InjectorGuard(const std::string& spec = {}) {
    FaultInjector::instance().configure(spec);
  }
  ~InjectorGuard() { FaultInjector::instance().configure_from_env(); }
};

std::vector<f64> gather_weights(deepmd::DeepmdModel& model) {
  optim::FlatParams flat(model.parameters());
  std::vector<f64> w(static_cast<std::size_t>(flat.size()));
  flat.gather(w);
  return w;
}

DistributedConfig base_config(i64 ranks, i64 batch) {
  DistributedConfig cfg;
  cfg.ranks = ranks;
  cfg.options.batch_size = batch;
  cfg.options.max_epochs = 1;
  cfg.options.eval_max_samples = 8;
  cfg.kalman.blocksize = 1024;
  return cfg;
}

TEST(Distributed, LedgerCountsGradientsNotP) {
  Fixture f = make_fixture(6);
  DistributedConfig cfg = base_config(4, 8);
  DistributedResult result =
      train_fekf_distributed(*f.model, f.train_envs, {}, cfg);
  EXPECT_GT(result.comm.gradient_bytes, 0);
  EXPECT_GT(result.comm.error_bytes, 0);
  // The per-step gradient payload is (r-1) * N * 8 bytes — and nothing
  // else scales with the covariance size.
  optim::FlatParams flat(f.model->parameters());
  const i64 per_step = 3 * (flat.size() * 8);
  EXPECT_EQ(result.comm.gradient_bytes, result.comm.steps * per_step);
  // 5 measurement reductions per training step (1 energy + 4 force).
  EXPECT_EQ(result.comm.steps, result.train.steps * 5);
}

TEST(Distributed, SingleRankHasNoCommTime) {
  Fixture f = make_fixture(6);
  DistributedConfig cfg = base_config(1, 4);
  DistributedResult result =
      train_fekf_distributed(*f.model, f.train_envs, {}, cfg);
  EXPECT_EQ(result.comm.comm_seconds, 0.0);
  EXPECT_EQ(result.comm.gradient_bytes, 0);
  EXPECT_GT(result.simulated_seconds, 0.0);
}

TEST(Distributed, MoreRanksReduceSimulatedComputeTime) {
  // Same global batch split over more ranks -> smaller max-shard compute.
  Fixture f = make_fixture(8);
  DistributedConfig cfg1 = base_config(1, 16);
  DistributedConfig cfg4 = base_config(4, 16);
  // Fresh models so both start identically.
  Fixture f1 = make_fixture(8);
  DistributedResult r1 =
      train_fekf_distributed(*f1.model, f1.train_envs, {}, cfg1);
  Fixture f4 = make_fixture(8);
  DistributedResult r4 =
      train_fekf_distributed(*f4.model, f4.train_envs, {}, cfg4);
  EXPECT_LT(r4.compute_seconds, r1.compute_seconds);
}

TEST(Distributed, TrainingLearns) {
  Fixture f = make_fixture(10);
  DistributedConfig cfg = base_config(4, 8);
  cfg.options.max_epochs = 3;
  train::Metrics before =
      train::evaluate(*f.model, f.train_envs, 8, true);
  DistributedResult result =
      train_fekf_distributed(*f.model, f.train_envs, {}, cfg);
  EXPECT_LT(result.train.final_train.force_rmse, before.force_rmse);
  EXPECT_EQ(result.train.history.size(), 3u);
}

TEST(Distributed, ConvergenceRecordsSimulatedTime) {
  Fixture f = make_fixture(6);
  DistributedConfig cfg = base_config(2, 4);
  cfg.options.max_epochs = 5;
  cfg.options.target_total_rmse = 1e9;  // converge immediately
  DistributedResult result =
      train_fekf_distributed(*f.model, f.train_envs, {}, cfg);
  EXPECT_TRUE(result.train.converged);
  EXPECT_GT(result.simulated_seconds_to_converge, 0.0);
  EXPECT_LE(result.simulated_seconds_to_converge,
            result.simulated_seconds + 1e-9);
}

TEST(Distributed, SingleRankMatchesKalmanTrainerBitExactly) {
  // One rank reduces nothing, so the distributed step is KalmanTrainer's
  // FEKF step: same loop, force-group stream and quasi-learning rate.
  InjectorGuard guard;
  for (const f64 qlr_factor : {-1.0, 1.0}) {
    SCOPED_TRACE(qlr_factor);
    DistributedConfig cfg = base_config(1, 4);
    cfg.options.max_epochs = 2;
    cfg.options.qlr_factor = qlr_factor;
    Fixture local = make_fixture(4);
    train::KalmanTrainer trainer(*local.model, cfg.kalman, cfg.options);
    const train::TrainResult expected = trainer.train(local.train_envs, {});
    Fixture dist = make_fixture(4);
    const DistributedResult result =
        train_fekf_distributed(*dist.model, dist.train_envs, {}, cfg);

    EXPECT_EQ(gather_weights(*dist.model), gather_weights(*local.model));
    EXPECT_EQ(result.train.steps, expected.steps);
    ASSERT_EQ(result.train.history.size(), expected.history.size());
    for (std::size_t e = 0; e < expected.history.size(); ++e) {
      EXPECT_EQ(result.train.history[e].train.energy_rmse,
                expected.history[e].train.energy_rmse);
      EXPECT_EQ(result.train.history[e].train.force_rmse,
                expected.history[e].train.force_rmse);
    }
  }
}

/// Arena allocations between the first and the last step of a one-epoch
/// run, so the epoch evaluation's own scope is not counted.
struct StepArenaAllocs : train::TrainObserver {
  void on_step(const train::StepEvent&) override {
    last = Workspace::stats().allocs;
    if (first < 0) first = last;
  }
  i64 first = -1, last = -1;
};

TEST(Distributed, ArenaDoesNotChangeTrajectory) {
  // Every update of a distributed run opens KalmanTrainer's arena scope,
  // which changes where the shard graphs live and never what they hold.
  InjectorGuard guard;
  const bool was_enabled = Workspace::enabled();
  std::vector<f64> weights[2];
  i64 step_allocs[2] = {-1, -1};
  for (const bool arena : {false, true}) {
    Workspace::set_enabled(arena);
    Fixture f = make_fixture(4);
    StepArenaAllocs counter;
    DistributedConfig cfg = base_config(2, 4);
    cfg.options.observers = {&counter};
    train_fekf_distributed(*f.model, f.train_envs, {}, cfg);
    step_allocs[arena] = counter.last - counter.first;
    weights[arena] = gather_weights(*f.model);
  }
  Workspace::set_enabled(was_enabled);
  EXPECT_EQ(step_allocs[0], 0);
  EXPECT_GT(step_allocs[1], 0);
  ASSERT_EQ(weights[0].size(), weights[1].size());
  EXPECT_EQ(std::memcmp(weights[0].data(), weights[1].data(),
                        weights[0].size() * sizeof(f64)),
            0);
}

TEST(Distributed, NanGradientRollsBackAndTrainingContinues) {
  InjectorGuard guard("nan_grad@step=2");
  Fixture f = make_fixture(4);
  DistributedConfig cfg = base_config(2, 4);
  const DistributedResult result =
      train_fekf_distributed(*f.model, f.train_envs, {}, cfg);
  ASSERT_EQ(result.train.faults.count("nonfinite_signal"), 1);
  for (const FaultEvent& e : result.train.faults.events) {
    if (e.kind != "nonfinite_signal") continue;
    EXPECT_EQ(e.step, 2);
    EXPECT_EQ(e.action, "rollback_skip_batch");
  }
  for (const f64 w : gather_weights(*f.model)) {
    ASSERT_TRUE(std::isfinite(w));
  }
}

TEST(Distributed, MaxStepsStopsTheRun) {
  Fixture f = make_fixture(4);
  DistributedConfig cfg = base_config(2, 4);
  cfg.options.max_steps = 3;
  const DistributedResult result =
      train_fekf_distributed(*f.model, f.train_envs, {}, cfg);
  EXPECT_EQ(result.train.steps, 3);
  EXPECT_EQ(result.comm.steps, 3 * 5);
}

}  // namespace
}  // namespace fekf::dist

// Serving-subsystem tests (DESIGN.md §14): registry versioning and
// publish/read memory-ordering (the dedicated TSan CI leg runs this
// binary), batch-vs-direct bit-exactness (re-run at widths 1 and 4 via the
// *_mt4 leg and under FEKF_KERNEL_BACKEND=scalar), pinned-version reads
// surviving a publish storm, deadline dispatch, and trainer integration —
// including the chaos leg (test_serve_chaos) that re-runs everything with
// an ambient rank_fail while the RegistryPublisher publishes mid-training.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <limits>
#include <thread>
#include <unistd.h>
#include <vector>

#include "data/dataset.hpp"
#include "deepmd/serialize.hpp"
#include "dist/cluster.hpp"
#include "serve/batching.hpp"
#include "serve/potential.hpp"
#include "serve/registry.hpp"
#include "train/metrics.hpp"
#include "train/trainer.hpp"

namespace fekf::serve {
namespace {

data::Dataset small_dataset(const char* system = "Cu") {
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature = 3;
  dcfg.test_per_temperature = 2;
  return data::build_dataset(data::get_system(system), dcfg);
}

deepmd::ModelConfig small_config() {
  deepmd::ModelConfig cfg;
  cfg.rcut = 5.0;
  cfg.rcut_smth = 2.5;
  cfg.embed_width = 8;
  cfg.axis_neurons = 4;
  cfg.fitting_width = 12;
  return cfg;
}

deepmd::DeepmdModel make_model(const data::Dataset& ds, i32 num_types) {
  deepmd::DeepmdModel model(small_config(), num_types);
  model.fit_stats(ds.train);
  return model;
}

// ---------------------------------------------------------------------------
// ModelRegistry
// ---------------------------------------------------------------------------

TEST(Registry, VersionsAreMonotonicDenseAndRetained) {
  data::Dataset ds = small_dataset();
  deepmd::DeepmdModel model = make_model(ds, 1);

  ModelRegistry registry;
  EXPECT_EQ(registry.latest_version(), 0u);
  EXPECT_EQ(registry.latest(), nullptr);
  EXPECT_EQ(registry.version(1), nullptr);

  for (u64 v = 1; v <= 5; ++v) {
    EXPECT_EQ(registry.publish_copy(model, static_cast<i64>(10 * v)), v);
    EXPECT_EQ(registry.latest_version(), v);
  }
  for (u64 v = 1; v <= 5; ++v) {
    const ModelSnapshot* snap = registry.version(v);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->version, v);
    EXPECT_EQ(snap->source_step, static_cast<i64>(10 * v));
    ASSERT_NE(snap->model, nullptr);
  }
  EXPECT_EQ(registry.version(0), nullptr);
  EXPECT_EQ(registry.version(6), nullptr);
  EXPECT_EQ(registry.latest(), registry.version(5));
}

TEST(Registry, PublishedCloneIsDecoupledAndBitExact) {
  data::Dataset ds = small_dataset();
  deepmd::DeepmdModel model = make_model(ds, 1);
  auto env = model.prepare(ds.test.front());
  const f32 before = model.predict(env, false).energy.item();

  ModelRegistry registry;
  registry.publish_copy(model);

  // Perturb the live model; the published snapshot must not move.
  train::TrainOptions opts;
  opts.batch_size = 4;
  opts.max_epochs = 1;
  opts.eval_max_samples = 2;
  optim::KalmanConfig kcfg;
  train::KalmanTrainer trainer(model, kcfg, opts);
  auto train_envs = train::prepare_all(model, ds.train);
  trainer.train(train_envs, {});
  const f32 after = model.predict(env, false).energy.item();
  ASSERT_NE(before, after);  // training moved the live weights

  const ModelSnapshot* snap = registry.latest();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->model->predict(env, false).energy.item(), before);
}

TEST(Registry, IncompatiblePublishThrows) {
  data::Dataset cu = small_dataset("Cu");
  data::Dataset nacl = small_dataset("NaCl");
  deepmd::DeepmdModel one = make_model(cu, 1);
  deepmd::DeepmdModel two = make_model(nacl, 2);

  ModelRegistry registry;
  registry.publish_copy(one);
  EXPECT_THROW(registry.publish_copy(two), Error);
}

TEST(Registry, PublishReadRaceIsClean) {
  // The TSan leg's main target: hammer latest()/version() from reader
  // threads while the writer publishes. Readers must only ever observe
  // fully-constructed snapshots with versions <= the published count.
  data::Dataset ds = small_dataset();
  deepmd::DeepmdModel model = make_model(ds, 1);

  ModelRegistry registry;
  std::atomic<bool> stop{false};
  std::atomic<i64> observed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      u64 last_seen = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const u64 latest = registry.latest_version();
        if (const ModelSnapshot* snap = registry.latest()) {
          // Monotonic from any single reader's perspective.
          EXPECT_GE(snap->version, last_seen);
          EXPECT_GE(snap->version, latest);  // read after latest_version()
          EXPECT_NE(snap->model, nullptr);
          last_seen = snap->version;
        }
        if (latest > 0) {
          const u64 pick = 1 + last_seen % latest;
          const ModelSnapshot* snap = registry.version(pick);
          ASSERT_NE(snap, nullptr);
          EXPECT_EQ(snap->version, pick);
          EXPECT_NE(snap->model, nullptr);
          observed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  auto published =
      std::make_shared<const deepmd::DeepmdModel>(deepmd::clone_model(model));
  for (i64 v = 0; v < 24; ++v) {
    registry.publish(published, v);  // same immutable model, new version
  }
  // On a single-core host the publish loop can finish before any reader
  // thread is ever scheduled; keep the readers alive until they have
  // actually raced against the published state.
  while (observed.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(registry.latest_version(), 24u);
  EXPECT_GT(observed.load(), 0);
}

// ---------------------------------------------------------------------------
// Unified evaluation API: batch-vs-direct bit-exactness
// ---------------------------------------------------------------------------

void expect_batch_matches_direct(const deepmd::DeepmdModel& model,
                                 std::span<const md::Snapshot> snaps) {
  std::vector<EvalRequest> requests;
  std::vector<EvalResult> direct;
  for (const md::Snapshot& snap : snaps) {
    EvalRequest req;
    req.snapshot = snap;
    req.with_forces = true;
    direct.push_back(evaluate_with(model, req));
    requests.push_back(std::move(req));
  }
  std::vector<EvalResult> batched = evaluate_batch_with(model, requests);
  ASSERT_EQ(batched.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    // Bit-exact energies under the auto kernel policy; forces may differ
    // only in the sign of zero (model.hpp), which == treats as equal.
    EXPECT_EQ(batched[i].energy, direct[i].energy) << "request " << i;
    ASSERT_EQ(batched[i].forces.size(), direct[i].forces.size());
    for (std::size_t a = 0; a < direct[i].forces.size(); ++a) {
      EXPECT_EQ(batched[i].forces[a].x, direct[i].forces[a].x);
      EXPECT_EQ(batched[i].forces[a].y, direct[i].forces[a].y);
      EXPECT_EQ(batched[i].forces[a].z, direct[i].forces[a].z);
    }
    EXPECT_EQ(batched[i].batch_size, static_cast<i64>(snaps.size()));
  }
}

TEST(Evaluator, BatchMatchesDirectBitExactSingleType) {
  data::Dataset ds = small_dataset("Cu");
  deepmd::DeepmdModel model = make_model(ds, 1);
  expect_batch_matches_direct(model, std::span(ds.test.data(), 4));
}

TEST(Evaluator, BatchMatchesDirectBitExactTwoTypes) {
  data::Dataset ds = small_dataset("NaCl");
  deepmd::DeepmdModel model = make_model(ds, 2);
  expect_batch_matches_direct(model, std::span(ds.test.data(), 4));
}

TEST(Evaluator, BatchMatchesDirectAcrossFusionLevels) {
  data::Dataset ds = small_dataset("NaCl");
  deepmd::DeepmdModel model = make_model(ds, 2);
  for (auto level :
       {deepmd::FusionLevel::kBaseline, deepmd::FusionLevel::kOpt1}) {
    model.set_fusion(level);
    expect_batch_matches_direct(model, std::span(ds.test.data(), 2));
  }
}

TEST(Evaluator, SingletonBatchIsTheDirectPath) {
  data::Dataset ds = small_dataset("Cu");
  deepmd::DeepmdModel model = make_model(ds, 1);
  EvalRequest req;
  req.snapshot = ds.test.front();
  const EvalResult direct = evaluate_with(model, req);
  const std::vector<EvalResult> batched =
      evaluate_batch_with(model, std::span(&req, 1));
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_EQ(batched[0].energy, direct.energy);
}

// ---------------------------------------------------------------------------
// BatchingEvaluator
// ---------------------------------------------------------------------------

TEST(Batching, ConcurrentWalkersGetBitExactAnswers) {
  data::Dataset ds = small_dataset("Cu");
  deepmd::DeepmdModel model = make_model(ds, 1);
  ModelRegistry registry;
  registry.publish_copy(model, 1);

  // Direct ground truth per test snapshot.
  std::vector<f64> expected;
  for (const md::Snapshot& snap : ds.test) {
    EvalRequest req;
    req.snapshot = snap;
    req.with_forces = false;
    expected.push_back(evaluate_with(model, req).energy);
  }

  BatchingConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_s = 2e-3;
  BatchingEvaluator evaluator(registry, cfg);

  constexpr int kWalkers = 8;
  constexpr int kRequestsPerWalker = 4;
  std::vector<std::thread> walkers;
  std::atomic<int> mismatches{0};
  for (int w = 0; w < kWalkers; ++w) {
    walkers.emplace_back([&, w] {
      for (int k = 0; k < kRequestsPerWalker; ++k) {
        const std::size_t pick =
            static_cast<std::size_t>(w + k) % ds.test.size();
        EvalRequest req;
        req.snapshot = ds.test[pick];
        req.with_forces = false;
        const EvalResult res = evaluator.evaluate(req);
        if (res.energy != expected[pick] || res.model_version != 1 ||
            res.batch_size < 1) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : walkers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Batching, PinnedVersionSurvivesPublishStorm) {
  data::Dataset ds = small_dataset("Cu");
  deepmd::DeepmdModel model = make_model(ds, 1);
  ModelRegistry registry;
  registry.publish_copy(model, 1);  // v1: the version we pin

  EvalRequest probe;
  probe.snapshot = ds.test.front();
  probe.with_forces = false;
  const f64 v1_energy =
      evaluate_with(*registry.version(1)->model, probe).energy;

  BatchingConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait_s = 1e-3;
  BatchingEvaluator evaluator(registry, cfg);

  // Publisher storm: perturbed clones land as v2..v13 while pinned reads
  // are in flight.
  std::thread publisher([&] {
    for (int k = 0; k < 12; ++k) registry.publish_copy(model, 100 + k);
  });
  std::vector<std::future<EvalResult>> pinned;
  std::vector<std::future<EvalResult>> fresh;
  for (int k = 0; k < 16; ++k) {
    EvalRequest req = probe;
    req.pin_version = 1;
    pinned.push_back(evaluator.submit(req));
    fresh.push_back(evaluator.submit(probe));  // serve-latest
  }
  for (auto& fut : pinned) {
    const EvalResult res = fut.get();
    EXPECT_EQ(res.model_version, 1u);
    EXPECT_EQ(res.energy, v1_energy);
  }
  for (auto& fut : fresh) {
    EXPECT_GE(fut.get().model_version, 1u);
  }
  publisher.join();
  EXPECT_EQ(registry.latest_version(), 13u);
}

TEST(Batching, DeadlineDispatchesUnderfullBatch) {
  data::Dataset ds = small_dataset("Cu");
  deepmd::DeepmdModel model = make_model(ds, 1);
  ModelRegistry registry;
  registry.publish_copy(model);

  BatchingConfig cfg;
  cfg.max_batch = 64;
  cfg.max_wait_s = 30.0;  // without the deadline this would hang the test
  BatchingEvaluator evaluator(registry, cfg);

  EvalRequest req;
  req.snapshot = ds.test.front();
  req.with_forces = false;
  req.deadline_s = 1e-3;
  auto fut = evaluator.submit(req);
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(20)),
            std::future_status::ready);
  const EvalResult res = fut.get();
  EXPECT_EQ(res.batch_size, 1);
  EXPECT_TRUE(std::isfinite(res.energy));
}

TEST(Batching, SubmitValidation) {
  data::Dataset ds = small_dataset("Cu");
  deepmd::DeepmdModel model = make_model(ds, 1);
  EvalRequest req;
  req.snapshot = ds.test.front();
  {
    ModelRegistry empty;
    BatchingEvaluator evaluator(empty);
    EXPECT_THROW(evaluator.evaluate(req), Error);  // nothing published
  }
  ModelRegistry registry;
  registry.publish_copy(model);
  BatchingEvaluator evaluator(registry);
  EvalRequest unknown = req;
  unknown.pin_version = 99;
  EXPECT_THROW(evaluator.evaluate(unknown), Error);
  evaluator.shutdown();
  EXPECT_THROW(evaluator.evaluate(req), Error);  // after shutdown
}

TEST(Batching, MaxWaitMustBeFiniteAndAtMostOneDay) {
  // A non-finite or huge wait overflows the worker's condition-variable
  // deadline (the lone request never completes and the worker spins), so
  // the constructor rejects it with one line naming the field.
  ModelRegistry registry;
  const std::pair<f64, bool> rows[] = {  // {max_wait_s, accepted}
      {0.0, true},           {200e-6, true},
      {86400.0, true},       {86400.5, false},
      {1e300 * 1e-6, false},  // FEKF_SERVE_MAX_WAIT_US=1e300
      {std::numeric_limits<f64>::infinity(), false},
      {std::numeric_limits<f64>::quiet_NaN(), false},
      {-1.0, false},
  };
  for (const auto& [max_wait_s, accepted] : rows) {
    BatchingConfig cfg;
    cfg.max_wait_s = max_wait_s;
    if (accepted) {
      EXPECT_NO_THROW((BatchingEvaluator{registry, cfg})) << max_wait_s;
      continue;
    }
    try {
      BatchingEvaluator evaluator(registry, cfg);
      ADD_FAILURE() << "accepted max_wait_s " << max_wait_s;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("max_wait_s"), std::string::npos) << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
  }
  // The env knob reaches the same check.
  ::setenv("FEKF_SERVE_MAX_WAIT_US", "inf", 1);
  const BatchingConfig from_env = BatchingConfig::from_env();
  ::unsetenv("FEKF_SERVE_MAX_WAIT_US");
  EXPECT_THROW((BatchingEvaluator{registry, from_env}), Error);
}

// ---------------------------------------------------------------------------
// Trainer integration (and the chaos leg)
// ---------------------------------------------------------------------------

TEST(Publisher, CheckpointHookPublishes) {
  data::Dataset ds = small_dataset("Cu");
  deepmd::DeepmdModel model = make_model(ds, 1);
  auto train_envs = train::prepare_all(model, ds.train);

  ModelRegistry registry;
  RegistryPublisher publisher(registry, model);
  const std::string ckpt = std::string(::testing::TempDir()) +
                           "serve_pub_" + std::to_string(getpid()) + ".ckpt";
  train::TrainOptions opts;
  opts.batch_size = 4;
  opts.max_epochs = 2;
  opts.eval_max_samples = 2;
  opts.checkpoint_every = 2;
  opts.checkpoint_path = ckpt;
  opts.observers.push_back(&publisher);
  optim::KalmanConfig kcfg;
  train::KalmanTrainer trainer(model, kcfg, opts);
  trainer.train(train_envs, {});
  std::remove(ckpt.c_str());

  ASSERT_GE(registry.latest_version(), 1u);
  const ModelSnapshot* snap = registry.latest();
  EXPECT_GT(snap->source_step, 0);
  // The published snapshot serves through the unified API.
  EvalRequest req;
  req.snapshot = ds.test.front();
  req.with_forces = false;
  EXPECT_TRUE(std::isfinite(evaluate_with(*snap->model, req).energy));
}

TEST(Publisher, DistributedTrainingPublishesUnderAmbientChaos) {
  // Plain run: step-driven publishing during elastic distributed training
  // with concurrent readers. Under the test_serve_chaos ctest leg an
  // ambient rank_fail@step=3 silences a rank mid-run; publishing and
  // reading must ride through the eviction/re-shard untouched.
  data::Dataset ds = small_dataset("Cu");
  deepmd::DeepmdModel model = make_model(ds, 1);
  auto train_envs = train::prepare_all(model, ds.train);

  ModelRegistry registry;
  RegistryPublisher publisher(registry, model, /*every_steps=*/2);
  dist::DistributedConfig cfg;
  cfg.ranks = 3;
  cfg.options.batch_size = 3;
  cfg.options.max_epochs = 2;
  cfg.options.eval_max_samples = 2;
  cfg.options.observers.push_back(&publisher);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    u64 last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (const ModelSnapshot* snap = registry.latest()) {
        EXPECT_GE(snap->version, last);
        EXPECT_NE(snap->model, nullptr);
        last = snap->version;
      }
      std::this_thread::yield();
    }
  });
  dist::DistributedResult result =
      dist::train_fekf_distributed(model, train_envs, {}, cfg);
  stop.store(true);
  reader.join();

  EXPECT_GE(result.train.steps, 4);
  EXPECT_GE(registry.latest_version(), 2u);
  // Every published version stays consistent after the run.
  for (u64 v = 1; v <= registry.latest_version(); ++v) {
    const ModelSnapshot* snap = registry.version(v);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->version, v);
  }
}

// ---------------------------------------------------------------------------
// serve::ModelPotential over a batching evaluator
// ---------------------------------------------------------------------------

TEST(Potential, MdOverBatchingEvaluatorMatchesDirect) {
  data::Dataset ds = small_dataset("Cu");
  deepmd::DeepmdModel model = make_model(ds, 1);
  ModelRegistry registry;
  registry.publish_copy(model);

  BatchingConfig cfg;
  cfg.max_wait_s = 1e-4;
  BatchingEvaluator batching(registry, cfg);
  ModelPotential served(batching, model.config().rcut);
  ModelPotential direct(model);

  const md::Snapshot& snap = ds.test.front();
  md::EnergyForces a =
      md::evaluate(served, snap.positions, snap.types, snap.cell);
  md::EnergyForces b =
      md::evaluate(direct, snap.positions, snap.types, snap.cell);
  EXPECT_EQ(a.energy, b.energy);
  ASSERT_EQ(a.forces.size(), b.forces.size());
  for (std::size_t i = 0; i < a.forces.size(); ++i) {
    EXPECT_EQ(a.forces[i].x, b.forces[i].x);
    EXPECT_EQ(a.forces[i].y, b.forces[i].y);
    EXPECT_EQ(a.forces[i].z, b.forces[i].z);
  }
}

}  // namespace
}  // namespace fekf::serve

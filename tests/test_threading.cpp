// Determinism suite for the multithreaded hot path (DESIGN.md "Threading &
// determinism"): every parallel kernel must produce BIT-IDENTICAL results
// at width 1 and width 4, and a short FEKF training run must follow the
// same trajectory at both widths. The ArenaThreads cases pin the per-thread
// arena rules (tensor/workspace.hpp): who is armed, who rewinds, and that a
// trainer and a server sharing the pool both keep their results bit for bit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "deepmd/bmm.hpp"
#include "deepmd/serialize.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/batching.hpp"
#include "tensor/kernels.hpp"
#include "tensor/workspace.hpp"
#include "train/trainer.hpp"

namespace fekf {
namespace {

/// Restore the default width when a test exits, pass or fail.
struct WidthGuard {
  ~WidthGuard() { set_num_threads(0); }
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  // An empty tensor's data() may be null, which memcmp does not accept.
  return a.same_shape(b) &&
         (a.numel() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<std::size_t>(a.numel()) * sizeof(f32)) == 0);
}

Tensor random_tensor(i64 rows, i64 cols, u64 seed) {
  Rng rng(seed);
  return Tensor::randn(rows, cols, rng);
}

/// Evaluate `fn` at width 1 and width 4 and require bit-identical tensors.
template <typename Fn>
void expect_width_invariant(Fn&& fn) {
  WidthGuard guard;
  set_num_threads(1);
  const Tensor serial = fn();
  set_num_threads(4);
  const Tensor threaded = fn();
  EXPECT_TRUE(bitwise_equal(serial, threaded));
}

TEST(ThreadDeterminism, Gemm) {
  // 128 rows x (64*96) flops/row exceeds the grain: the wide run splits.
  const Tensor a = random_tensor(128, 64, 11);
  const Tensor b = random_tensor(64, 96, 12);
  expect_width_invariant([&] { return kernels::matmul(a, b); });
  const Tensor at = random_tensor(64, 128, 13);
  expect_width_invariant([&] { return kernels::matmul_tn(at, b); });
  const Tensor bt = random_tensor(96, 64, 14);
  expect_width_invariant([&] { return kernels::matmul_nt(a, bt); });
  const Tensor bias = random_tensor(1, 96, 15);
  expect_width_invariant([&] { return kernels::linear_fused(a, b, bias); });
}

TEST(ThreadDeterminism, ElementwiseAndReductions) {
  const Tensor a = random_tensor(300, 200, 21);
  const Tensor b = random_tensor(300, 200, 22);
  expect_width_invariant([&] { return kernels::add(a, b); });
  expect_width_invariant([&] { return kernels::mul(a, b); });
  expect_width_invariant([&] { return kernels::tanh(a); });
  // Every tail length of tanh's 16-lane body, alone and after whole vectors.
  for (i64 n = 0; n <= 40; ++n) {
    const Tensor x = kernels::scale(random_tensor(1, n, 100 + n), 8.0f);
    expect_width_invariant([&] { return kernels::tanh(x); });
  }
  expect_width_invariant([&] { return kernels::transpose(a); });
  expect_width_invariant([&] { return kernels::sum_rows(a); });
  expect_width_invariant([&] { return kernels::sum_cols(a); });
  expect_width_invariant([&] { return kernels::sum_all(a); });
  WidthGuard guard;
  set_num_threads(1);
  const f64 dot_serial = kernels::dot_all(a, b);
  set_num_threads(4);
  const f64 dot_threaded = kernels::dot_all(a, b);
  EXPECT_EQ(dot_serial, dot_threaded);
}

TEST(ThreadDeterminism, Bmm) {
  const i64 nb = 32, p = 8, q = 12, s = 16;
  const Tensor x = random_tensor(nb * p, q, 31);
  const Tensor y = random_tensor(nb * q, s, 32);
  expect_width_invariant(
      [&] { return deepmd::bmm_nn(ag::Variable(x), ag::Variable(y), p).value(); });
  const Tensor xt = random_tensor(nb * q, p, 33);
  expect_width_invariant(
      [&] { return deepmd::bmm_tn(ag::Variable(xt), ag::Variable(y), q).value(); });
  const Tensor yn = random_tensor(nb * s, q, 34);
  expect_width_invariant([&] {
    return deepmd::bmm_nt(ag::Variable(x), ag::Variable(yn), p, s).value();
  });
}

TEST(ThreadDeterminism, PUpdate) {
  const i64 n = 256;
  Rng rng(41);
  std::vector<f64> p0(static_cast<std::size_t>(kernels::packed_size(n)));
  std::vector<f64> k(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    k[static_cast<std::size_t>(i)] = rng.gaussian();
    for (i64 j = i; j < n; ++j) {
      p0[static_cast<std::size_t>(kernels::packed_row(i, n) + j - i)] =
          rng.gaussian();
    }
  }
  WidthGuard guard;
  auto run_fused = [&](i64 width) {
    set_num_threads(width);
    std::vector<f64> p = p0;
    kernels::p_update_fused(p, k, 0.37, 0.98, n);
    return p;
  };
  const std::vector<f64> serial = run_fused(1);
  const std::vector<f64> threaded = run_fused(4);
  EXPECT_EQ(std::memcmp(serial.data(), threaded.data(),
                        serial.size() * sizeof(f64)), 0);

  auto run_unfused = [&](i64 width) {
    set_num_threads(width);
    std::vector<f64> p = p0;
    std::vector<f64> scratch(static_cast<std::size_t>(n * n));
    kernels::p_update_unfused(p, k, 0.37, 0.98, scratch, n);
    return p;
  };
  const std::vector<f64> serial_u = run_unfused(1);
  const std::vector<f64> threaded_u = run_unfused(4);
  EXPECT_EQ(std::memcmp(serial_u.data(), threaded_u.data(),
                        serial_u.size() * sizeof(f64)), 0);
}

TEST(ThreadDeterminism, SymvAndDot) {
  const i64 n = 512;
  Rng rng(43);
  std::vector<f64> p(static_cast<std::size_t>(kernels::packed_size(n)));
  std::vector<f64> g(static_cast<std::size_t>(n));
  for (auto& v : p) v = rng.gaussian();
  for (auto& v : g) v = rng.gaussian();
  WidthGuard guard;
  auto run = [&](i64 width) {
    set_num_threads(width);
    std::vector<f64> y(static_cast<std::size_t>(n));
    kernels::symv(p, g, y, n);
    return y;
  };
  const std::vector<f64> serial = run(1);
  const std::vector<f64> threaded = run(4);
  EXPECT_EQ(std::memcmp(serial.data(), threaded.data(),
                        serial.size() * sizeof(f64)), 0);
  set_num_threads(1);
  const f64 d1 = kernels::dot(p, p);
  set_num_threads(4);
  const f64 d4 = kernels::dot(p, p);
  EXPECT_EQ(d1, d4);
}

// ---------------------------------------------------------------------------
// End-to-end: a 50-step FEKF run follows the identical trajectory at widths
// 1 and 4 (measurement assembly parallelizes over samples; every kernel is
// width-invariant; combines are order-pinned).
// ---------------------------------------------------------------------------

deepmd::ModelConfig tiny_model() {
  deepmd::ModelConfig cfg;
  cfg.rcut = 5.0;
  cfg.rcut_smth = 2.5;
  cfg.embed_width = 8;
  cfg.axis_neurons = 4;
  cfg.fitting_width = 16;
  return cfg;
}

TEST(ThreadDeterminism, FekfTrajectory50Steps) {
  const data::SystemSpec& spec = data::get_system("Cu");
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature = 2;
  dcfg.test_per_temperature = 1;
  data::Dataset dataset = data::build_dataset(spec, dcfg);

  WidthGuard guard;
  auto run = [&](i64 width) {
    set_num_threads(width);
    deepmd::DeepmdModel model(tiny_model(), spec.num_types());
    model.fit_stats(dataset.train);
    auto envs = train::prepare_all(model, dataset.train);
    const i64 batch = std::min<i64>(4, static_cast<i64>(envs.size()));
    std::span<const train::EnvPtr> batch_span(envs.data(),
                                              static_cast<std::size_t>(batch));
    train::TrainOptions opts;
    opts.batch_size = batch;
    optim::KalmanConfig kcfg;
    kcfg.blocksize = 512;
    train::KalmanTrainer trainer(model, kcfg, opts);
    Rng group_rng(7);
    auto groups =
        train::make_force_groups(envs.front()->natoms, 4, group_rng);
    std::vector<f64> checkpoints;
    for (i64 step = 0; step < 50; ++step) {
      trainer.energy_update(batch_span);
      trainer.force_update(batch_span,
                           groups[static_cast<std::size_t>(step % 4)]);
      if (step % 10 == 9) {
        f64 checksum = 0.0;
        for (const ag::Variable& p : model.parameters()) {
          const Tensor& t = p.value();
          for (i64 i = 0; i < t.numel(); ++i) {
            checksum += static_cast<f64>(t.data()[i]);
          }
        }
        checkpoints.push_back(checksum);
      }
    }
    train::Metrics final_rmse = train::evaluate(model, envs, -1, true);
    checkpoints.push_back(final_rmse.energy_rmse);
    checkpoints.push_back(final_rmse.force_rmse);
    return checkpoints;
  };
  const std::vector<f64> serial = run(1);
  const std::vector<f64> threaded = run(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "trajectory checkpoint " << i;
  }
}

// ---------------------------------------------------------------------------
// Per-thread arena arming and own-thread rewinds (tensor/workspace.hpp)
// ---------------------------------------------------------------------------

/// Force-enable the arena for a test and restore the ambient setting.
struct ArenaEnableGuard {
  bool was = Workspace::enabled();
  ArenaEnableGuard() { Workspace::set_enabled(true); }
  ~ArenaEnableGuard() { Workspace::set_enabled(was); }
};

/// Run `fn` once on `pool`'s worker, as a for_range helper task issued from
/// the calling thread. The pool must have exactly one worker: each of the
/// two indices waits for the other, so they run on different threads.
/// Returns whether the worker ran `fn`.
bool on_worker(ThreadPool& pool, const std::function<void()>& fn) {
  const std::thread::id issuer = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::atomic<bool> ran{false};
  pool.for_range(0, 2, [&](i64) {
    if (std::this_thread::get_id() != issuer) {
      fn();
      ran.store(true);
    }
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  return ran.load();
}

Tensor filled(i64 rows, i64 cols, f32 value) {
  Tensor t(rows, cols);
  for (i64 i = 0; i < t.numel(); ++i) t.data()[i] = value;
  return t;
}

TEST(ArenaThreads, WalkerPrepareStaysOnHeapWhileABatchScopeIsOpen) {
  ArenaEnableGuard enable;
  const data::SystemSpec& spec = data::get_system("Cu");
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature = 1;
  dcfg.test_per_temperature = 1;
  const data::Dataset dataset = data::build_dataset(spec, dcfg);
  deepmd::DeepmdModel model(tiny_model(), spec.num_types());
  model.fit_stats(dataset.train);

  ArenaScope batch;  // the serving worker's open batch
  ASSERT_TRUE(Workspace::armed());
  const i64 before = Workspace::stats().allocs;
  bool walker_armed = true;
  std::shared_ptr<const deepmd::EnvData> env;
  std::thread walker([&] {
    walker_armed = Workspace::armed();
    env = model.prepare(dataset.train.front());
  });
  walker.join();
  EXPECT_FALSE(walker_armed);
  ASSERT_NE(env, nullptr);
  EXPECT_EQ(Workspace::stats().allocs, before)
      << "the walker's prepare() drew from an arena";
  // The batch scope itself is armed: its own tensors do come from the arena.
  const Tensor t(4, 4);
  EXPECT_EQ(Workspace::stats().allocs, before + 1);
}

TEST(ArenaThreads, PoolTasksInheritTheIssuersArmBit) {
  ArenaEnableGuard enable;
  ThreadPool pool(2);
  auto probe = [&](bool* armed) {
    return on_worker(pool, [armed] {
      *armed = Workspace::armed();
      const Tensor t = filled(8, 8, 1.0f);
    });
  };

  bool armed = true;
  i64 before = Workspace::stats().allocs;
  ASSERT_TRUE(probe(&armed));
  EXPECT_FALSE(armed) << "task issued from an unarmed thread";
  EXPECT_EQ(Workspace::stats().allocs, before);

  ArenaScope scope;
  armed = false;
  before = Workspace::stats().allocs;
  ASSERT_TRUE(probe(&armed));
  EXPECT_TRUE(armed) << "task issued from an armed thread";
  EXPECT_EQ(Workspace::stats().allocs, before + 1);
}

TEST(ArenaThreads, WorkerArenaRewindsLazilyAndNeverUnderALiveTensor) {
  ArenaEnableGuard enable;
  Workspace::reset_stats();
  ThreadPool pool(2);
  constexpr i64 kRows = 64, kCols = 64;

  // The worker's allocation in one thread's scope, and then its allocation
  // in a later scope of another thread: the first scope's exit bumped the
  // epoch, so the worker rewound its own arena and reused the same bytes.
  auto scope_on = [&](const std::function<void()>& fn) {
    std::thread owner([&] {
      ArenaScope scope;
      ASSERT_TRUE(on_worker(pool, fn));
    });
    owner.join();
  };
  const f32* first = nullptr;
  const f32* second = nullptr;
  scope_on([] { const Tensor warm = filled(kRows, kCols, 0.0f); });
  scope_on([&] { first = filled(kRows, kCols, 1.0f).data(); });
  {
    ArenaScope scope;
    ASSERT_TRUE(on_worker(pool, [&] {
      second = filled(kRows, kCols, 2.0f).data();
    }));
  }
  EXPECT_EQ(first, second) << "the worker arena did not rewind itself";

  // Now the main thread's step keeps a worker-allocated tensor alive while
  // another thread closes a scope and then clobbers the worker's arena.
  ArenaScope step;
  Tensor live;
  ASSERT_TRUE(on_worker(pool, [&] {
    live = Tensor(kRows, kCols);
    for (i64 i = 0; i < live.numel(); ++i) {
      live.data()[i] = static_cast<f32>(i);
    }
  }));
  const Tensor expect = [&] {
    const bool was = Workspace::enabled();
    Workspace::set_enabled(false);  // a heap copy outside the arena
    Tensor copy = live.clone();
    Workspace::set_enabled(was);
    return copy;
  }();
  const f32* clobber_lo = nullptr;
  const f32* clobber_hi = nullptr;
  scope_on([] { const Tensor bump = filled(kRows, kCols, 0.0f); });
  scope_on([&] {
    const Tensor clobber = filled(4 * kRows, kCols, -1.0f);
    clobber_lo = clobber.data();
    clobber_hi = clobber.data() + clobber.numel();
  });
  EXPECT_TRUE(clobber_hi <= live.data() ||
              clobber_lo >= live.data() + live.numel())
      << "a lazy rewind handed out a live tensor's bytes";
  EXPECT_EQ(std::memcmp(live.data(), expect.data(),
                        static_cast<std::size_t>(live.numel()) * sizeof(f32)),
            0);
  EXPECT_EQ(Workspace::stats().retired_slabs, 0)
      << "a lazy rewind retired another owner's slab";
}

TEST(ArenaThreads, TrainerAndServerShareThePoolBitForBit) {
  const data::SystemSpec& spec = data::get_system("Cu");
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature = 2;
  dcfg.test_per_temperature = 1;
  const data::Dataset dataset = data::build_dataset(spec, dcfg);
  deepmd::DeepmdModel start(tiny_model(), spec.num_types());
  start.fit_stats(dataset.train);

  WidthGuard width;
  set_num_threads(2);
  constexpr i64 kSteps = 4;
  auto train = [&](deepmd::DeepmdModel& model) {
    auto envs = train::prepare_all(model, dataset.train);
    const i64 batch = std::min<i64>(4, static_cast<i64>(envs.size()));
    std::span<const train::EnvPtr> batch_span(envs.data(),
                                              static_cast<std::size_t>(batch));
    train::TrainOptions opts;
    opts.batch_size = batch;
    optim::KalmanConfig kcfg;
    kcfg.blocksize = 512;
    train::KalmanTrainer trainer(model, kcfg, opts);
    Rng group_rng(7);
    auto groups = train::make_force_groups(envs.front()->natoms, 4, group_rng);
    for (i64 step = 0; step < kSteps; ++step) {
      trainer.energy_update(batch_span);
      trainer.force_update(batch_span,
                           groups[static_cast<std::size_t>(step % 4)]);
    }
  };

  deepmd::DeepmdModel reference = deepmd::clone_model(start);
  {
    const bool was = Workspace::enabled();
    Workspace::set_enabled(false);
    train(reference);
    Workspace::set_enabled(was);
  }

  ArenaEnableGuard enable;
  serve::ModelRegistry registry;
  registry.publish_copy(start, 1);
  std::vector<serve::EvalResult> expected;
  for (const md::Snapshot& snap : dataset.test) {
    serve::EvalRequest req;
    req.snapshot = snap;
    expected.push_back(serve::evaluate_with(start, req));
  }
  serve::BatchingConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait_s = 1e-3;
  serve::BatchingEvaluator evaluator(registry, cfg);

  std::atomic<bool> training{true};
  std::atomic<int> served{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> walkers;
  for (int w = 0; w < 2; ++w) {
    walkers.emplace_back([&, w] {
      for (std::size_t k = static_cast<std::size_t>(w);
           training.load() || served.load() < 4; ++k) {
        const std::size_t pick = k % dataset.test.size();
        serve::EvalRequest req;
        req.snapshot = dataset.test[pick];
        const serve::EvalResult res = evaluator.evaluate(req);
        const serve::EvalResult& want = expected[pick];
        bool same = res.energy == want.energy &&
                    res.forces.size() == want.forces.size();
        // == on forces: the batched pass may flip the sign of a zero
        // (DeepmdModel::predict_batch).
        for (std::size_t a = 0; same && a < want.forces.size(); ++a) {
          same = res.forces[a].x == want.forces[a].x &&
                 res.forces[a].y == want.forces[a].y &&
                 res.forces[a].z == want.forces[a].z;
        }
        if (!same) mismatches.fetch_add(1);
        served.fetch_add(1);
      }
    });
  }
  deepmd::DeepmdModel model = deepmd::clone_model(start);
  train(model);
  training.store(false);
  for (std::thread& t : walkers) t.join();

  EXPECT_GE(served.load(), 4);
  EXPECT_EQ(mismatches.load(), 0) << "served results moved under training";
  const std::vector<ag::Variable> got = model.parameters();
  const std::vector<ag::Variable> want = reference.parameters();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(got[i].value(), want[i].value()))
        << "parameter " << i << " differs from the arena-off run";
  }
}

}  // namespace
}  // namespace fekf

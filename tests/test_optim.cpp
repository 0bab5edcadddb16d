// Optimizer tests: RLEKF block gather/split layout (including the paper's
// {1350, 10240, 9760, ...} network), Kalman-filter convergence on linear
// regression, equivalence of the fused/unfused P-update kernels and of the
// Pg-caching toggle, covariance-limiting guards, and Adam on a quadratic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "optim/adam.hpp"
#include "optim/ekf_blocks.hpp"
#include "optim/kalman.hpp"
#include "tensor/kernel_counter.hpp"
#include "tensor/kernels.hpp"

namespace fekf::optim {
namespace {

using Layout = std::vector<std::pair<std::string, i64>>;

TEST(Blocks, GatherSmallLayers) {
  Layout layout = {{"a", 100}, {"b", 200}, {"c", 300}};
  auto blocks = split_blocks(layout, 1000);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].size, 600);
  EXPECT_EQ(blocks[0].offset, 0);
}

TEST(Blocks, FlushWhenBudgetExceeded) {
  Layout layout = {{"a", 600}, {"b", 600}, {"c", 600}};
  auto blocks = split_blocks(layout, 1000);
  ASSERT_EQ(blocks.size(), 3u);
  for (const auto& b : blocks) EXPECT_EQ(b.size, 600);
}

TEST(Blocks, SplitLargeLayerBlocksizeFirst) {
  Layout layout = {{"big", 2500}};
  auto blocks = split_blocks(layout, 1000);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].size, 1000);
  EXPECT_EQ(blocks[1].size, 1000);
  EXPECT_EQ(blocks[2].size, 500);
}

TEST(Blocks, ChunksAreClosedToLaterLayers) {
  // A small layer after a split must start a new group, not merge into the
  // remainder chunk (the paper keeps 9760 standalone).
  Layout layout = {{"big", 1500}, {"small", 100}};
  auto blocks = split_blocks(layout, 1000);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[1].size, 500);
  EXPECT_EQ(blocks[2].size, 100);
}

TEST(Blocks, PaperNetworkLayout) {
  // The paper's one-element DeePMD network (§5.3): embedding 50+650+650,
  // fitting 20000 (w) + 50 (b) + 2550 + 2550 + 51. With blocksize 10240
  // this reproduces the reported {1350, 10240, 9760, ...} structure.
  Layout layout = {{"e0.w", 25},    {"e0.b", 25},   {"e1.w", 625},
                   {"e1.b", 25},    {"e2.w", 625},  {"e2.b", 25},
                   {"f0.w", 20000}, {"f0.b", 50},   {"f1.w", 2500},
                   {"f1.b", 50},    {"f2.w", 2500}, {"f2.b", 50},
                   {"f3.w", 50},    {"f3.b", 1}};
  auto blocks = split_blocks(layout, 10240);
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(blocks[0].size, 1350);   // gathered embedding net
  EXPECT_EQ(blocks[1].size, 10240);  // first chunk of the split f0.w
  EXPECT_EQ(blocks[2].size, 9760);   // remainder chunk
  EXPECT_EQ(blocks[3].size, 5201);   // gathered tail of the fitting net
  // Blocks tile the parameter vector.
  i64 total = 0;
  for (const auto& b : blocks) {
    EXPECT_EQ(b.offset, total);
    total += b.size;
  }
  EXPECT_EQ(total, 26551);
}

// EKF on a linear measurement y = x^T w* converges to w* (RLS is exact for
// linear models).
TEST(Kalman, ConvergesOnLinearRegression) {
  const i64 n = 24;
  Rng rng(7);
  std::vector<f64> w_true(n), w(n, 0.0), g(n);
  for (auto& v : w_true) v = rng.gaussian();

  KalmanConfig cfg;
  cfg.process_noise = 0.0;  // static parameters: textbook RLS
  cfg.max_step_norm = 0.0;
  auto blocks = split_blocks(Layout{{"w", n}}, 64);
  KalmanOptimizer kal(blocks, cfg);
  for (int step = 0; step < 200; ++step) {
    for (i64 i = 0; i < n; ++i) g[i] = rng.gaussian();
    f64 y = 0.0, h = 0.0;
    for (i64 i = 0; i < n; ++i) {
      y += g[i] * w_true[i];
      h += g[i] * w[i];
    }
    // Sign-flip scalarization of a single scalar measurement.
    f64 err = y - h;
    if (err < 0) {
      err = -err;
      for (auto& v : g) v = -v;
    }
    kal.update(g, err, w);
  }
  for (i64 i = 0; i < n; ++i) {
    EXPECT_NEAR(w[i], w_true[i], 5e-2) << "i=" << i;
  }
}

TEST(Kalman, BlockSplitStillConverges) {
  // Same regression split across 3 covariance blocks.
  const i64 n = 30;
  Rng rng(8);
  std::vector<f64> w_true(n), w(n, 0.0), g(n);
  for (auto& v : w_true) v = rng.gaussian();
  KalmanConfig cfg;
  cfg.process_noise = 0.0;
  cfg.max_step_norm = 0.0;
  auto blocks = split_blocks(Layout{{"a", 10}, {"b", 10}, {"c", 10}}, 10);
  ASSERT_EQ(blocks.size(), 3u);
  KalmanOptimizer kal(blocks, cfg);
  for (int step = 0; step < 400; ++step) {
    for (i64 i = 0; i < n; ++i) g[i] = rng.gaussian();
    f64 err = 0.0;
    for (i64 i = 0; i < n; ++i) err += g[i] * (w_true[i] - w[i]);
    if (err < 0) {
      err = -err;
      for (auto& v : g) v = -v;
    }
    kal.update(g, err, w);
  }
  f64 mse = 0.0;
  for (i64 i = 0; i < n; ++i) mse += (w[i] - w_true[i]) * (w[i] - w_true[i]);
  EXPECT_LT(std::sqrt(mse / n), 0.1);
}

TEST(Kalman, FusedAndUnfusedPUpdatesAgree) {
  const i64 n = 16;
  Rng rng(9);
  std::vector<f64> p1(static_cast<std::size_t>(kernels::packed_size(n)));
  for (auto& v : p1) v = rng.gaussian() * 0.1;
  for (i64 i = 0; i < n; ++i) {
    p1[static_cast<std::size_t>(kernels::packed_row(i, n))] += 2.0;
  }
  std::vector<f64> p2 = p1;
  std::vector<f64> k(static_cast<std::size_t>(n));
  for (auto& v : k) v = rng.gaussian();
  std::vector<f64> scratch(static_cast<std::size_t>(n * n));

  kernels::p_update_fused(p1, k, 0.37, 0.98, n);
  kernels::p_update_unfused(p2, k, 0.37, 0.98, scratch, n);
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_NEAR(p1[i], p2[i], 1e-12);
  }
}

TEST(Kalman, FusedPUpdateIsOneKernelUnfusedThree) {
  const i64 n = 8;
  std::vector<f64> p(static_cast<std::size_t>(kernels::packed_size(n)), 0.0);
  for (i64 i = 0; i < n; ++i) {
    p[static_cast<std::size_t>(kernels::packed_row(i, n))] = 1.0;
  }
  std::vector<f64> k(static_cast<std::size_t>(n), 0.5);
  std::vector<f64> scratch(static_cast<std::size_t>(n * n));
  {
    KernelCountScope scope;
    kernels::p_update_fused(p, k, 0.5, 0.98, n);
    EXPECT_EQ(scope.count(), 1);
  }
  {
    KernelCountScope scope;
    kernels::p_update_unfused(p, k, 0.5, 0.98, scratch, n);
    EXPECT_EQ(scope.count(), 3);
  }
}

TEST(Kalman, CachedAndUncachedPgAgree) {
  const i64 n = 20;
  Rng rng(10);
  auto blocks = split_blocks(Layout{{"w", n}}, 64);
  KalmanConfig cached_cfg;  // default: kFused
  KalmanConfig uncached_cfg;
  uncached_cfg.level = EkfLevel::kFramework;
  KalmanOptimizer a(blocks, cached_cfg), b(blocks, uncached_cfg);
  std::vector<f64> wa(static_cast<std::size_t>(n), 0.0), wb = wa,
                   g(static_cast<std::size_t>(n));
  for (int step = 0; step < 25; ++step) {
    for (auto& v : g) v = rng.gaussian();
    a.update(g, 0.3, wa);
    b.update(g, 0.3, wb);
  }
  for (i64 i = 0; i < n; ++i) EXPECT_NEAR(wa[i], wb[i], 1e-10);
}

TEST(Kalman, MemoryAccounting) {
  auto blocks =
      split_blocks(Layout{{"a", 100}, {"b", 300}}, 128);  // {100+?}: a=100,
  KalmanConfig fused;
  KalmanOptimizer kal(blocks, fused);
  i64 expected = 0;
  // Packed upper triangles: n(n+1)/2 entries of 8 bytes per block.
  for (const auto& b : kal.blocks()) expected += b.size * (b.size + 1) / 2 * 8;
  EXPECT_EQ(kal.p_bytes(), expected);
  EXPECT_EQ(kal.scratch_bytes(), 0);  // fused kernel needs no scratch

  KalmanConfig unfused;
  unfused.level = EkfLevel::kFramework;
  KalmanOptimizer kal2(blocks, unfused);
  i64 max_block = 0;
  for (const auto& b : kal2.blocks()) max_block = std::max(max_block, b.size);
  EXPECT_EQ(kal2.scratch_bytes(), max_block * max_block * 8);
  EXPECT_GT(kal2.peak_bytes(), kal.peak_bytes());
}

TEST(Kalman, LambdaScheduleApproachesOne) {
  // Eq. 3: lambda_{t+1} = lambda_t + (1 - nu)(1 - lambda_t), monotone to 1.
  auto blocks = split_blocks(Layout{{"w", 4}}, 16);
  KalmanConfig cfg;
  KalmanOptimizer kal(blocks, cfg);
  std::vector<f64> w(4, 0.0), g{1, 0, 0, 0};
  f64 prev = kal.lambda();
  EXPECT_DOUBLE_EQ(prev, 0.98);
  for (int step = 0; step < 2000; ++step) {
    kal.update(g, 0.0, w);
    EXPECT_GE(kal.lambda(), prev);
    prev = kal.lambda();
  }
  EXPECT_NEAR(kal.lambda(), 1.0, 0.002);
}

TEST(Kalman, LargeBatchHyperparameters) {
  // §3.2: bs > 1024 switches to lambda 0.90, nu 0.996.
  EXPECT_DOUBLE_EQ(KalmanConfig::for_batch_size(32).lambda0, 0.98);
  EXPECT_DOUBLE_EQ(KalmanConfig::for_batch_size(4096).lambda0, 0.90);
  EXPECT_DOUBLE_EQ(KalmanConfig::for_batch_size(4096).nu, 0.996);
}

TEST(Kalman, CovarianceLimitingBoundsP) {
  auto blocks = split_blocks(Layout{{"w", 8}}, 16);
  KalmanConfig cfg;
  cfg.lambda0 = 0.5;  // aggressive forgetting -> fast P inflation
  cfg.nu = 1.0;       // keep lambda at 0.5
  cfg.p_max = 5.0;
  cfg.process_noise = 0.0;
  KalmanOptimizer kal(blocks, cfg);
  std::vector<f64> w(8, 0.0), g(8, 0.0);
  g[0] = 1.0;  // only direction 0 excited; others inflate as 2^t
  for (int step = 0; step < 40; ++step) kal.update(g, 0.01, w);
  // Re-run one update with a gradient along an unexcited direction; the
  // step must stay bounded thanks to p_max.
  std::vector<f64> g2(8, 0.0);
  g2[7] = 1.0;
  std::vector<f64> w2 = w;
  kal.update(g2, 1.0, w2, /*step_norm_cap=*/0.0);
  f64 step_norm = 0.0;
  for (i64 i = 0; i < 8; ++i) step_norm += (w2[i] - w[i]) * (w2[i] - w[i]);
  EXPECT_LT(std::sqrt(step_norm), 10.0);
}

TEST(Kalman, TrustRegionClipsStepNorm) {
  auto blocks = split_blocks(Layout{{"w", 8}}, 16);
  KalmanConfig cfg;
  cfg.max_step_norm = 0.01;
  KalmanOptimizer kal(blocks, cfg);
  std::vector<f64> w(8, 0.0), g(8, 1.0);
  kal.update(g, 100.0, w);  // absurd kscale
  f64 norm = 0.0;
  for (const f64 v : w) norm += v * v;
  EXPECT_LE(std::sqrt(norm), 0.01 + 1e-12);
}

TEST(Kalman, NewtonClosureClampPreventsOvershoot) {
  // With abe passed, the measurement change g^T dw never exceeds abe.
  auto blocks = split_blocks(Layout{{"w", 8}}, 16);
  KalmanConfig cfg;
  cfg.max_step_norm = 0.0;
  KalmanOptimizer kal(blocks, cfg);
  std::vector<f64> w(8, 0.0), g(8, 2.0);
  const f64 abe = 0.05;
  const f64 kscale = 8.0 * abe;  // sqrt(bs)=8 style overshoot
  kal.update(g, kscale, w, 0.0, abe);
  f64 gdw = 0.0;
  for (i64 i = 0; i < 8; ++i) gdw += g[static_cast<std::size_t>(i)] * w[static_cast<std::size_t>(i)];
  EXPECT_LE(gdw, abe * 1.0001);
}

TEST(Adam, ConvergesOnQuadratic) {
  // min ||w - c||^2.
  const i64 n = 16;
  Rng rng(11);
  std::vector<f64> c(static_cast<std::size_t>(n)), w(static_cast<std::size_t>(n), 0.0),
      g(static_cast<std::size_t>(n));
  for (auto& v : c) v = rng.gaussian();
  AdamConfig cfg;
  cfg.lr = 0.05;
  cfg.decay_steps = 100000;
  Adam adam(n, cfg);
  for (int step = 0; step < 2000; ++step) {
    for (i64 i = 0; i < n; ++i) {
      g[static_cast<std::size_t>(i)] = 2.0 * (w[static_cast<std::size_t>(i)] - c[static_cast<std::size_t>(i)]);
    }
    adam.step(g, w);
  }
  for (i64 i = 0; i < n; ++i) {
    EXPECT_NEAR(w[static_cast<std::size_t>(i)], c[static_cast<std::size_t>(i)], 1e-3);
  }
}

TEST(Adam, LearningRateSchedule) {
  AdamConfig cfg;
  cfg.lr = 1e-3;
  cfg.decay_rate = 0.95;
  cfg.decay_steps = 10;
  cfg.lr_scale = 4.0;
  Adam adam(4, cfg);
  EXPECT_DOUBLE_EQ(adam.current_lr(), 4e-3);
  std::vector<f64> g(4, 0.0), w(4, 0.0);
  for (int i = 0; i < 10; ++i) adam.step(g, w);
  EXPECT_NEAR(adam.current_lr(), 4e-3 * 0.95, 1e-12);
}

TEST(Validation, KalmanConfigRejectsBadValues) {
  auto reject = [](auto&& mutate) {
    KalmanConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), Error);
  };
  reject([](KalmanConfig& c) { c.blocksize = 0; });
  reject([](KalmanConfig& c) { c.lambda0 = 0.0; });
  reject([](KalmanConfig& c) { c.lambda0 = 1.5; });
  reject([](KalmanConfig& c) { c.nu = 0.0; });
  reject([](KalmanConfig& c) { c.p_init = 0.0; });
  reject([](KalmanConfig& c) { c.p_init = std::nan(""); });
  reject([](KalmanConfig& c) { c.p_max = std::nan(""); });
  reject([](KalmanConfig& c) {
    c.p_init = 10.0;
    c.p_max = 5.0;  // limiter below the starting diagonal
  });
  reject([](KalmanConfig& c) { c.process_noise = -1.0; });
  reject([](KalmanConfig& c) { c.max_step_norm = std::nan(""); });
  EXPECT_NO_THROW(KalmanConfig{}.validate());
  // Constructors validate too.
  KalmanConfig bad;
  bad.lambda0 = -1.0;
  auto blocks = split_blocks(Layout{{"w", 4}}, 16);
  EXPECT_THROW(KalmanOptimizer(blocks, bad), Error);
}

TEST(Validation, AdamConfigRejectsBadValues) {
  auto reject = [](auto&& mutate) {
    AdamConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), Error);
  };
  reject([](AdamConfig& c) { c.lr = 0.0; });
  reject([](AdamConfig& c) { c.beta1 = 1.0; });
  reject([](AdamConfig& c) { c.beta2 = -0.1; });
  reject([](AdamConfig& c) { c.eps = 0.0; });
  reject([](AdamConfig& c) { c.decay_steps = 0; });
  reject([](AdamConfig& c) { c.lr_scale = 0.0; });
  EXPECT_NO_THROW(AdamConfig{}.validate());
  AdamConfig bad;
  bad.lr = -1.0;
  EXPECT_THROW(Adam(4, bad), Error);
}

TEST(Kalman, OptionalStepCapSemantics) {
  // nullopt -> config cap applies; explicit <= 0 -> uncapped; explicit
  // positive -> that cap. (The old API abused NaN as "use config".)
  auto blocks = split_blocks(Layout{{"w", 8}}, 16);
  KalmanConfig cfg;
  cfg.max_step_norm = 0.01;
  auto step_norm = [&](std::optional<f64> cap) {
    KalmanOptimizer kal(blocks, cfg);
    std::vector<f64> w(8, 0.0), g(8, 1.0);
    kal.update(g, 100.0, w, cap);
    f64 norm = 0.0;
    for (const f64 v : w) norm += v * v;
    return std::sqrt(norm);
  };
  EXPECT_LE(step_norm(std::nullopt), 0.01 + 1e-12);
  EXPECT_LE(step_norm(0.5), 0.5 + 1e-12);
  EXPECT_GT(step_norm(0.5), 0.01);
  EXPECT_GT(step_norm(0.0), 0.5);  // uncapped
}

TEST(Kalman, StateRoundTripRestoresTrajectory) {
  auto blocks = split_blocks(Layout{{"w", 12}}, 8);
  KalmanConfig cfg;
  KalmanOptimizer kal(blocks, cfg);
  Rng rng(21);
  std::vector<f64> w(12, 0.0), g(12);
  for (int step = 0; step < 5; ++step) {
    for (auto& v : g) v = rng.gaussian();
    kal.update(g, 0.1, w);
  }
  const KalmanState saved = kal.state();
  const std::vector<f64> w_saved = w;
  const Rng rng_saved = rng;

  // Continue, then rewind and replay: bit-identical weights.
  std::vector<f64> w1 = w;
  for (int step = 0; step < 5; ++step) {
    for (auto& v : g) v = rng.gaussian();
    kal.update(g, 0.1, w1);
  }
  kal.set_state(saved);
  std::vector<f64> w2 = w_saved;
  Rng rng2 = rng_saved;
  for (int step = 0; step < 5; ++step) {
    for (auto& v : g) v = rng2.gaussian();
    kal.update(g, 0.1, w2);
  }
  EXPECT_EQ(w1, w2);

  // Shape mismatches are rejected.
  KalmanState wrong = saved;
  wrong.p.pop_back();
  EXPECT_THROW(kal.set_state(wrong), Error);
}

bool same_state(const KalmanState& a, const KalmanState& b) {
  if (std::memcmp(&a.lambda, &b.lambda, sizeof(f64)) != 0) return false;
  if (a.p.size() != b.p.size()) return false;
  for (std::size_t blk = 0; blk < a.p.size(); ++blk) {
    if (a.p[blk].size() != b.p[blk].size() ||
        std::memcmp(a.p[blk].data(), b.p[blk].data(),
                    a.p[blk].size() * sizeof(f64)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(Kalman, SnapshotIsAFlipAndRollbackIsASwap) {
  // The sentinel snapshot copies nothing: snapshot() marks the live
  // buffers, the next update writes the spare ones and swaps, rollback()
  // swaps back. So only two buffers per block ever appear, updates never
  // touch the snapshot's bytes, rollback restores lambda and P bit for bit
  // (again after recondition or set_state wrote in place), and taking
  // snapshots does not change what any level computes.
  for (const EkfLevel level :
       {EkfLevel::kFused, EkfLevel::kOpt3, EkfLevel::kFramework}) {
    SCOPED_TRACE("level " + std::to_string(static_cast<int>(level)));
    auto blocks = split_blocks(Layout{{"w", 40}, {"b", 9}}, 16);
    KalmanConfig cfg;
    cfg.level = level;
    KalmanOptimizer kal(blocks, cfg), plain(blocks, cfg);
    const std::size_t nblocks = kal.state().p.size();
    ASSERT_GE(nblocks, 2u);
    Rng rng(23);
    std::vector<f64> w(49, 0.0), w_plain(49, 0.0), g(49);
    std::vector<std::vector<const f64*>> seen(nblocks);
    auto record = [&] {
      for (std::size_t b = 0; b < nblocks; ++b) {
        const f64* ptr = kal.state().p[b].data();
        if (std::find(seen[b].begin(), seen[b].end(), ptr) == seen[b].end()) {
          seen[b].push_back(ptr);
        }
      }
    };
    auto step = [&](bool also_plain) {
      for (auto& v : g) v = rng.gaussian();
      kal.update(g, 0.1, w);
      if (also_plain) plain.update(g, 0.1, w_plain);
      record();
    };
    record();

    // A snapshot before every update, as the trainer takes them: the
    // same trajectory as no snapshot at all.
    for (int cycle = 0; cycle < 4; ++cycle) {
      kal.snapshot();
      step(true);
    }
    EXPECT_TRUE(same_state(kal.state(), plain.state()));
    EXPECT_EQ(w, w_plain);

    kal.snapshot();
    const KalmanState snap = kal.state();
    std::vector<const f64*> snap_storage;
    for (const auto& block : kal.state().p) snap_storage.push_back(block.data());
    step(false);
    step(false);
    ASSERT_NE(kal.lambda(), snap.lambda);
    for (std::size_t b = 0; b < nblocks; ++b) {
      EXPECT_NE(kal.state().p[b].data(), snap_storage[b]) << "block " << b;
      EXPECT_EQ(std::memcmp(snap_storage[b], snap.p[b].data(),
                            snap.p[b].size() * sizeof(f64)),
                0)
          << "updates wrote the snapshot of block " << b;
    }

    kal.rollback();
    EXPECT_TRUE(same_state(kal.state(), snap));
    // recondition rescales the blocks lambda inflated past p_init, in
    // place; a second rollback still finds the untouched snapshot.
    kal.recondition();
    EXPECT_FALSE(same_state(kal.state(), snap));
    kal.rollback();
    EXPECT_TRUE(same_state(kal.state(), snap));
    // So does set_state while the snapshot is live.
    kal.set_state(plain.state());
    EXPECT_TRUE(same_state(kal.state(), plain.state()));
    kal.rollback();
    EXPECT_TRUE(same_state(kal.state(), snap));
    step(false);
    kal.rollback();
    EXPECT_TRUE(same_state(kal.state(), snap));

    for (std::size_t b = 0; b < nblocks; ++b) {
      EXPECT_EQ(seen[b].size(), 2u) << "block " << b;
    }
  }
}

bool same_bits(f64 a, f64 b) { return std::memcmp(&a, &b, sizeof(f64)) == 0; }

TEST(Kalman, FusedMatchesOpt3AcrossEveryStateEvent) {
  // kFused leaves each update's P step pending for the next update's
  // sweep and runs the blocks in parallel; kOpt3 applies every step
  // eagerly, block by block. Over 48 updates on three blocks of odd sizes
  // (n % 4 = 1, 3, 1), with every event that reads or replaces the filter
  // state interleaved as the trainer makes them — a snapshot every fifth
  // update, rollbacks, a mid-sequence state(), set_state from a captured
  // checkpoint, recondition, a NaN gradient and p_max rescales — weights,
  // lambda, last_max_diag and P agree bit for bit.
  const std::vector<BlockSpec> blocks{{0, 37, "a"}, {37, 23, "b"},
                                      {60, 13, "c"}};
  const std::size_t total = 73;
  KalmanConfig cfg;
  cfg.p_max = 1.2;  // lambda and the noise push the diagonal past it
  cfg.level = EkfLevel::kFused;
  KalmanOptimizer fused(blocks, cfg);
  cfg.level = EkfLevel::kOpt3;
  KalmanOptimizer opt3(blocks, cfg);
  const bool metrics_were = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& rescales =
      obs::MetricsRegistry::instance().counter("kalman.p_rescales");
  const i64 rescales0 = rescales.value();

  Rng rng(41);
  std::vector<f64> wf(total, 0.0), wo(total, 0.0), g(total);
  std::vector<f64> snap_w = wf, ckpt_w;
  KalmanState ckpt_f, ckpt_o;
  auto expect_same_p = [&](int update) {
    const KalmanState& pf = fused.state();
    const KalmanState& po = opt3.state();
    ASSERT_TRUE(same_bits(pf.lambda, po.lambda)) << "update " << update;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      ASSERT_EQ(std::memcmp(pf.p[b].data(), po.p[b].data(),
                            pf.p[b].size() * sizeof(f64)),
                0)
          << "update " << update << " block " << b;
    }
  };
  auto restore = [&](const std::vector<f64>& w) {
    wf = w;
    wo = w;
  };
  for (int update = 0; update < 48; ++update) {
    SCOPED_TRACE("update " + std::to_string(update));
    if (update % 5 == 0) {
      fused.snapshot();
      opt3.snapshot();
      snap_w = wf;
    }
    for (f64& v : g) v = rng.gaussian();
    if (update == 33) g[40] = std::nan("");
    const f64 kscale = 0.05 + 0.01 * (update % 7);
    const std::optional<f64> cap =
        update % 3 == 0 ? std::optional<f64>(0.0) : std::nullopt;
    const f64 abe = update % 2 == 0 ? 0.4 : -1.0;
    const i64 before = rescales.value();
    fused.update(g, kscale, wf, cap, abe);
    const i64 fused_rescales = rescales.value() - before;
    opt3.update(g, kscale, wo, cap, abe);
    EXPECT_EQ(fused_rescales, rescales.value() - before - fused_rescales);
    ASSERT_TRUE(same_bits(fused.lambda(), opt3.lambda()));
    if (update == 33) {
      // The sentinel's response: NaN health, then rollback + recondition.
      ASSERT_TRUE(std::isnan(fused.last_max_diag()));
      ASSERT_TRUE(std::isnan(opt3.last_max_diag()));
      fused.rollback();
      opt3.rollback();
      fused.recondition();
      opt3.recondition();
      restore(snap_w);
      expect_same_p(update);
      continue;
    }
    ASSERT_TRUE(same_bits(fused.last_max_diag(), opt3.last_max_diag()));
    ASSERT_TRUE(wf == wo);
    switch (update) {
      case 10:
      case 42:
        fused.rollback();
        opt3.rollback();
        restore(snap_w);
        break;
      case 17:
        expect_same_p(update);  // writes fused's pending step mid-sequence
        break;
      case 23:
        ckpt_f = fused.state();
        ckpt_o = opt3.state();
        ckpt_w = wf;
        break;
      case 29:
        fused.set_state(ckpt_f);
        opt3.set_state(ckpt_o);
        restore(ckpt_w);
        break;
      case 38:
        fused.recondition();
        opt3.recondition();
        ASSERT_TRUE(same_bits(fused.last_max_diag(), opt3.last_max_diag()));
        break;
      default:
        break;
    }
  }
  expect_same_p(48);
  EXPECT_GT(rescales.value() - rescales0, 0) << "p_max never fired";
  obs::set_metrics_enabled(metrics_were);
}

TEST(Kalman, ReconditionRepairsDivergedCovariance) {
  auto blocks = split_blocks(Layout{{"w", 8}}, 16);
  KalmanConfig cfg;
  cfg.p_init = 1.0;
  KalmanOptimizer kal(blocks, cfg);
  std::vector<f64> w(8, 0.0), g(8, 1.0);
  g[0] = std::nan("");
  kal.update(g, 0.1, w);
  EXPECT_FALSE(std::isfinite(kal.last_max_diag()));

  kal.recondition();
  const KalmanState repaired = kal.state();
  for (const auto& block : repaired.p) {
    for (const f64 v : block) ASSERT_TRUE(std::isfinite(v));
  }
  EXPECT_TRUE(std::isfinite(kal.lambda()));
  // Repaired filter optimizes again.
  std::fill(w.begin(), w.end(), 0.0);
  std::fill(g.begin(), g.end(), 1.0);
  kal.update(g, 0.1, w);
  for (const f64 v : w) EXPECT_TRUE(std::isfinite(v));
}

TEST(Adam, StateRoundTripRestoresTrajectory) {
  AdamConfig cfg;
  cfg.decay_steps = 50;
  Adam adam(6, cfg);
  Rng rng(22);
  std::vector<f64> w(6, 0.0), g(6);
  for (int step = 0; step < 4; ++step) {
    for (auto& v : g) v = rng.gaussian();
    adam.step(g, w);
  }
  const AdamState saved = adam.state();
  const std::vector<f64> w_saved = w;
  const Rng rng_saved = rng;

  std::vector<f64> w1 = w;
  for (int step = 0; step < 4; ++step) {
    for (auto& v : g) v = rng.gaussian();
    adam.step(g, w1);
  }
  adam.set_state(saved);
  std::vector<f64> w2 = w_saved;
  Rng rng2 = rng_saved;
  for (int step = 0; step < 4; ++step) {
    for (auto& v : g) v = rng2.gaussian();
    adam.step(g, w2);
  }
  EXPECT_EQ(w1, w2);

  AdamState wrong = saved;
  wrong.m.pop_back();
  EXPECT_THROW(adam.set_state(wrong), Error);
}

}  // namespace
}  // namespace fekf::optim

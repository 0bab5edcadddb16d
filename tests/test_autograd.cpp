// Autograd engine tests: analytic vs finite-difference gradients for every
// op, double-backward correctness, fused-vs-composed equivalence, tape
// lifetime behaviour, and the per-term parallel sweep against the serial
// one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include "autograd/ops.hpp"
#include "autograd/variable.hpp"
#include "core/rng.hpp"
#include "data/dataset.hpp"
#include "data/systems.hpp"
#include "deepmd/model.hpp"
#include "md/sampler.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernel_counter.hpp"
#include "train/measurement.hpp"
#include "train/trainer.hpp"

namespace fekf::ag {
namespace {

namespace op = ops;

// Central finite difference of scalar_fn w.r.t. entry (r, c) of x.
f64 numeric_grad(const std::function<f64(const Tensor&)>& scalar_fn, Tensor x,
                 i64 r, i64 c, f64 eps = 1e-3) {
  Tensor xp = x.clone();
  Tensor xm = x.clone();
  xp.at(r, c) += static_cast<f32>(eps);
  xm.at(r, c) -= static_cast<f32>(eps);
  return (scalar_fn(xp) - scalar_fn(xm)) / (2.0 * eps);
}

// Checks d(sum(f(x)))/dx against finite differences on every entry.
void check_grad(const std::function<Variable(const Variable&)>& f,
                const Tensor& x0, f64 tol = 5e-2) {
  Variable x(x0.clone(), /*requires_grad=*/true);
  Variable y = op::sum_all(f(x));
  auto grads = grad(y, std::vector<Variable>{x});
  ASSERT_EQ(grads.size(), 1u);
  const Tensor& gx = grads[0].value();
  auto scalar_fn = [&](const Tensor& xt) -> f64 {
    NoGradGuard guard;
    Variable xv(xt.clone(), true);  // requires_grad irrelevant under guard
    return op::sum_all(f(xv)).item();
  };
  for (i64 r = 0; r < x0.rows(); ++r) {
    for (i64 c = 0; c < x0.cols(); ++c) {
      const f64 expected = numeric_grad(scalar_fn, x0, r, c);
      EXPECT_NEAR(gx.at(r, c), expected, tol * (1.0 + std::abs(expected)))
          << "entry (" << r << ", " << c << ")";
    }
  }
}

Tensor random_tensor(i64 r, i64 c, u64 seed, f64 scale = 1.0) {
  Rng rng(seed);
  return Tensor::randn(r, c, rng, scale);
}

TEST(Autograd, AddGrad) {
  Tensor b = random_tensor(3, 4, 2);
  check_grad([&](const Variable& x) { return op::add(x, Variable(b)); },
             random_tensor(3, 4, 1));
}

TEST(Autograd, SubGrad) {
  Tensor b = random_tensor(3, 4, 3);
  check_grad([&](const Variable& x) { return op::sub(Variable(b), x); },
             random_tensor(3, 4, 4));
}

TEST(Autograd, MulGrad) {
  Tensor b = random_tensor(3, 4, 5);
  check_grad([&](const Variable& x) { return op::mul(x, Variable(b)); },
             random_tensor(3, 4, 6));
}

TEST(Autograd, SquareGrad) {
  check_grad([](const Variable& x) { return op::square(x); },
             random_tensor(2, 5, 7));
}

TEST(Autograd, TanhGrad) {
  check_grad([](const Variable& x) { return op::tanh(x); },
             random_tensor(3, 3, 8));
}

TEST(Autograd, TanhFusedGrad) {
  check_grad([](const Variable& x) { return op::tanh_fused(x); },
             random_tensor(3, 3, 8));
}

TEST(Autograd, TanhFusedMatchesComposed) {
  Tensor x0 = random_tensor(4, 4, 9);
  Variable x1(x0.clone(), true);
  Variable x2(x0.clone(), true);
  Variable y1 = op::sum_all(op::square(op::tanh(x1)));
  Variable y2 = op::sum_all(op::square(op::tanh_fused(x2)));
  EXPECT_FLOAT_EQ(y1.item(), y2.item());
  auto g1 = grad(y1, std::vector<Variable>{x1});
  auto g2 = grad(y2, std::vector<Variable>{x2});
  for (i64 i = 0; i < x0.numel(); ++i) {
    EXPECT_NEAR(g1[0].value().data()[i], g2[0].value().data()[i], 1e-6f);
  }
}

TEST(Autograd, MatmulGrad) {
  Tensor b = random_tensor(4, 2, 11);
  check_grad([&](const Variable& x) { return op::matmul(x, Variable(b)); },
             random_tensor(3, 4, 10));
}

TEST(Autograd, MatmulGradRhs) {
  Tensor a = random_tensor(3, 4, 12);
  check_grad([&](const Variable& x) { return op::matmul(Variable(a), x); },
             random_tensor(4, 2, 13));
}

TEST(Autograd, MatmulNtGrad) {
  Tensor b = random_tensor(5, 4, 14);
  check_grad([&](const Variable& x) { return op::matmul_nt(x, Variable(b)); },
             random_tensor(3, 4, 15));
}

TEST(Autograd, MatmulTnGrad) {
  Tensor b = random_tensor(4, 5, 16);
  check_grad([&](const Variable& x) { return op::matmul_tn(x, Variable(b)); },
             random_tensor(4, 3, 17));
}

TEST(Autograd, TransposeGrad) {
  Tensor b = random_tensor(4, 3, 18);
  check_grad(
      [&](const Variable& x) {
        return op::mul(op::transpose(x), Variable(b));
      },
      random_tensor(3, 4, 19));
}

TEST(Autograd, LinearMatchesFused) {
  Tensor x0 = random_tensor(6, 3, 20);
  Tensor w0 = random_tensor(3, 4, 21);
  Tensor b0 = random_tensor(1, 4, 22);
  Variable x1(x0.clone(), true), w1(w0.clone(), true), bb1(b0.clone(), true);
  Variable x2(x0.clone(), true), w2(w0.clone(), true), bb2(b0.clone(), true);
  Variable y1 = op::sum_all(op::tanh(op::linear(x1, w1, bb1)));
  Variable y2 = op::sum_all(op::tanh(op::linear_fused(x2, w2, bb2)));
  EXPECT_NEAR(y1.item(), y2.item(), 1e-5f);
  auto g1 = grad(y1, std::vector<Variable>{x1, w1, bb1});
  auto g2 = grad(y2, std::vector<Variable>{x2, w2, bb2});
  for (std::size_t v = 0; v < g1.size(); ++v) {
    for (i64 i = 0; i < g1[v].numel(); ++i) {
      EXPECT_NEAR(g1[v].value().data()[i], g2[v].value().data()[i], 1e-5f);
    }
  }
}

TEST(Autograd, SliceAndPadGrad) {
  check_grad(
      [](const Variable& x) {
        return op::square(op::slice_cols(x, 1, 3));
      },
      random_tensor(3, 5, 23));
  check_grad(
      [](const Variable& x) { return op::square(op::pad_cols(x, 6, 2)); },
      random_tensor(3, 2, 24));
}

TEST(Autograd, RowSliceConcatGrad) {
  Tensor b = random_tensor(2, 4, 25);
  check_grad(
      [&](const Variable& x) {
        Variable top = op::slice_rows(x, 0, 2);
        Variable cat = op::concat_rows(top, Variable(b));
        return op::square(cat);
      },
      random_tensor(5, 4, 26));
}

TEST(Autograd, ReductionGrads) {
  check_grad([](const Variable& x) { return op::sum_rows(op::square(x)); },
             random_tensor(4, 3, 27));
  check_grad([](const Variable& x) { return op::sum_cols(op::square(x)); },
             random_tensor(4, 3, 28));
  check_grad([](const Variable& x) { return op::mean_all(op::square(x)); },
             random_tensor(4, 3, 29));
}

TEST(Autograd, BroadcastGrads) {
  check_grad(
      [](const Variable& x) { return op::square(op::broadcast_rows(x, 5)); },
      random_tensor(1, 4, 30));
  check_grad(
      [](const Variable& x) { return op::square(op::broadcast_cols(x, 5)); },
      random_tensor(4, 1, 31));
}

TEST(Autograd, ReshapeGrad) {
  check_grad(
      [](const Variable& x) { return op::square(op::reshape(x, 2, 6)); },
      random_tensor(3, 4, 32));
}

// Double backward: d/dx of (dy/dx) for y = sum(tanh(x)^2).
// Analytic: dy/dx = 2 t (1-t^2); d2y/dx2 = 2(1-t^2)(1-3t^2), t = tanh(x).
TEST(Autograd, DoubleBackwardTanh) {
  for (const bool fused : {false, true}) {
    Tensor x0 = random_tensor(3, 3, 33);
    Variable x(x0.clone(), true);
    Variable t = fused ? op::tanh_fused(x) : op::tanh(x);
    Variable y = op::sum_all(op::square(t));
    auto g = grad(y, std::vector<Variable>{x}, {}, /*create_graph=*/true);
    Variable gsum = op::sum_all(g[0]);
    auto gg = grad(gsum, std::vector<Variable>{x});
    for (i64 i = 0; i < x0.numel(); ++i) {
      const f64 tv = std::tanh(static_cast<f64>(x0.data()[i]));
      const f64 expected = 2.0 * (1 - tv * tv) * (1 - 3 * tv * tv);
      EXPECT_NEAR(gg[0].value().data()[i], expected, 1e-4)
          << (fused ? "fused" : "composed") << " i=" << i;
    }
  }
}

// Double backward through matmul: y = sum((x w)^2); g = 2 x w w^T;
// sum(g) differentiated w.r.t. w again.
TEST(Autograd, DoubleBackwardMatmul) {
  Tensor x0 = random_tensor(3, 2, 34);
  Tensor w0 = random_tensor(2, 2, 35);
  Variable x(x0.clone(), false);
  Variable w(w0.clone(), true);
  Variable y = op::sum_all(op::square(op::matmul(x, w)));
  auto g = grad(y, std::vector<Variable>{w}, {}, /*create_graph=*/true);
  Variable gsum = op::sum_all(g[0]);
  auto gg = grad(gsum, std::vector<Variable>{w});
  // Finite difference of gsum(w).
  auto gsum_fn = [&](const Tensor& wt) -> f64 {
    Variable wv(wt.clone(), true);
    Variable yy = op::sum_all(op::square(op::matmul(Variable(x0), wv)));
    auto gv = grad(yy, std::vector<Variable>{wv});
    f64 acc = 0.0;
    for (i64 i = 0; i < gv[0].numel(); ++i) acc += gv[0].value().data()[i];
    return acc;
  };
  for (i64 r = 0; r < 2; ++r) {
    for (i64 c = 0; c < 2; ++c) {
      const f64 expected = numeric_grad(gsum_fn, w0, r, c);
      EXPECT_NEAR(gg[0].value().data()[r * 2 + c], expected,
                  5e-2 * (1.0 + std::abs(expected)));
    }
  }
}

TEST(Autograd, GradOfUnusedInputIsZero) {
  Variable x(random_tensor(2, 2, 36), true);
  Variable unused(random_tensor(3, 3, 37), true);
  Variable y = op::sum_all(op::square(x));
  auto g = grad(y, std::vector<Variable>{x, unused});
  for (i64 i = 0; i < unused.numel(); ++i) {
    EXPECT_EQ(g[1].value().data()[i], 0.0f);
  }
}

TEST(Autograd, SharedSubexpressionAccumulates) {
  // y = sum(x*x + x*x) should give 4x, exercising gradient accumulation
  // when one variable feeds two consumers.
  Tensor x0 = random_tensor(2, 3, 38);
  Variable x(x0.clone(), true);
  Variable sq = op::square(x);
  Variable y = op::sum_all(op::add(sq, sq));
  auto g = grad(y, std::vector<Variable>{x});
  for (i64 i = 0; i < x0.numel(); ++i) {
    EXPECT_NEAR(g[0].value().data()[i], 4.0f * x0.data()[i], 1e-5f);
  }
}

TEST(Autograd, NoGradGuardDisablesTape) {
  Variable x(random_tensor(2, 2, 39), true);
  NoGradGuard guard;
  Variable y = op::square(x);
  EXPECT_FALSE(y.requires_grad());
  EXPECT_EQ(y.node(), nullptr);
}

TEST(Autograd, ConstantsProduceNoNode) {
  Variable a(random_tensor(2, 2, 40), false);
  Variable b(random_tensor(2, 2, 41), false);
  Variable y = op::mul(a, b);
  EXPECT_FALSE(y.requires_grad());
  EXPECT_EQ(y.node(), nullptr);
}

TEST(Autograd, FusedLinearLaunchesFewerKernels) {
  Variable x(random_tensor(8, 4, 42), true);
  Variable w(random_tensor(4, 4, 43), true);
  Variable b(random_tensor(1, 4, 44), true);
  i64 composed = 0, fused = 0;
  {
    KernelCountScope scope;
    (void)op::linear(x, w, b);
    composed = scope.count();
  }
  {
    KernelCountScope scope;
    (void)op::linear_fused(x, w, b);
    fused = scope.count();
  }
  EXPECT_EQ(fused, 1);
  EXPECT_GT(composed, fused);
}

TEST(Autograd, GradRootSeed) {
  // grad with an explicit non-unit seed scales linearly.
  Variable x(random_tensor(2, 2, 45), true);
  Variable y = op::sum_all(op::square(x));
  Variable seed(Tensor::scalar(3.0f));
  auto g1 = grad(y, std::vector<Variable>{x});
  auto g3 = grad(y, std::vector<Variable>{x}, seed);
  for (i64 i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(g3[0].value().data()[i], 3.0f * g1[0].value().data()[i],
                1e-5f);
  }
}

// ---------------------------------------------------------------------------
// Needs-grad pruning
// ---------------------------------------------------------------------------

/// Restores the default pool width on scope exit.
struct WidthGuard {
  ~WidthGuard() { set_num_threads(0); }
};

bool same_bytes(const Variable& a, const Variable& b) {
  return a.value().same_shape(b.value()) &&
         std::memcmp(a.value().data(), b.value().data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(f32)) == 0;
}

/// Requires-grad leaves reachable from `root` that are not in `exclude`.
std::vector<Variable> other_leaves(const Variable& root,
                                   const std::vector<Variable>& exclude) {
  std::unordered_set<const VarImpl*> skip, seen;
  for (const Variable& v : exclude) skip.insert(v.key());
  std::vector<Variable> leaves, stack = {root};
  seen.insert(root.key());
  while (!stack.empty()) {
    const Variable v = stack.back();
    stack.pop_back();
    if (!v.node()) {
      if (v.requires_grad() && !skip.count(v.key())) leaves.push_back(v);
      continue;
    }
    for (const Variable& input : v.node()->inputs) {
      if (input.defined() && input.requires_grad() &&
          seen.insert(input.key()).second) {
        stack.push_back(input);
      }
    }
  }
  return leaves;
}

std::vector<Variable> concat(std::vector<Variable> a,
                             const std::vector<Variable>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Asking for fewer gradients prunes the tape but must not move a bit of the
// ones still asked for: the force measurement's weight gradients (second
// backward) against the same entries of the gradient w.r.t. weights ∪ env
// leaves, and the first backward's dE/dR~ against dE/d(R~ ∪ weights), at
// every fusion level and at widths 1 and 4.
TEST(Autograd, PrunedGradientsMatchFullGradients) {
  WidthGuard width_guard;
  const data::SystemSpec& spec = data::get_system("NaCl");
  Rng rng(501);
  md::Structure st = spec.make_structure(rng);
  auto pot = spec.make_potential(st);
  md::SamplerConfig sampler;
  sampler.dt_fs = spec.dt_fs;
  sampler.temperatures = {spec.temperatures.front()};
  sampler.equilibration_steps = 10;
  sampler.stride = 2;
  sampler.snapshots_per_temperature = 1;
  const auto snaps = md::sample_trajectory(*pot, st, spec.masses, sampler, rng);
  for (const auto level :
       {deepmd::FusionLevel::kBaseline, deepmd::FusionLevel::kOpt1,
        deepmd::FusionLevel::kOpt2}) {
    deepmd::ModelConfig cfg;
    cfg.rcut = 5.0;
    cfg.rcut_smth = 2.5;
    cfg.embed_width = 8;
    cfg.axis_neurons = 4;
    cfg.fitting_width = 12;
    cfg.fusion = level;
    deepmd::DeepmdModel model(cfg, 2);
    model.fit_stats(snaps);
    const auto env = model.prepare(snaps[0]);
    const std::vector<Variable> params = model.parameters();
    Rng sign_rng(502);
    Tensor sign_t(env->natoms, 3);
    for (i64 i = 0; i < sign_t.numel(); ++i) {
      sign_t.data()[i] = sign_rng.uniform() < 0.5 ? -1.0f : 1.0f;
    }
    for (const i64 width : {1, 4}) {
      SCOPED_TRACE("fusion " + std::to_string(static_cast<int>(level)) +
                   " width " + std::to_string(width));
      set_num_threads(width);
      const auto pred = model.predict(env, /*with_forces=*/true);

      // Second backward: weights only vs weights ∪ env leaves.
      const Variable m = op::sum_all(op::mul(pred.forces, Variable(sign_t)));
      const std::vector<Variable> env_leaves = other_leaves(m, params);
      ASSERT_FALSE(env_leaves.empty());
      const auto pruned = grad(m, params);
      const auto full = grad(m, concat(params, env_leaves));
      for (std::size_t p = 0; p < params.size(); ++p) {
        EXPECT_TRUE(same_bytes(pruned[p], full[p])) << "param " << p;
      }

      // First backward (create_graph, as predict() takes it): env leaves
      // only vs env leaves ∪ weights.
      const std::vector<Variable> r_leaves = other_leaves(pred.energy, params);
      ASSERT_FALSE(r_leaves.empty());
      const auto pruned_r = grad(pred.energy, r_leaves, {}, true);
      const auto full_r =
          grad(pred.energy, concat(r_leaves, params), {}, true);
      for (std::size_t t = 0; t < r_leaves.size(); ++t) {
        EXPECT_TRUE(same_bytes(pruned_r[t], full_r[t])) << "leaf " << t;
      }
    }
  }
}

TEST(Autograd, NeedsMaskIsScopedToEachClosure) {
  EXPECT_TRUE(needs_input_grad(0));  // outside grad(): everything
  Variable a(random_tensor(2, 3, 60), true);
  Variable b(random_tensor(2, 3, 61), true);
  std::vector<bool> seen;
  const Variable z(random_tensor(2, 2, 62), true);
  const Variable inner = op::sum_all(op::mul(z, z));
  Variable y = Variable::make_op(
      a.value().clone(), "probe", {a, b},
      [&seen, &z, &inner](const Variable& g) -> std::vector<Variable> {
        seen = {needs_input_grad(0), needs_input_grad(1)};
        // A nested grad() installs and removes its own masks...
        (void)grad(inner, std::vector<Variable>{z});
        // ...and leaves this closure's mask in place.
        seen.push_back(needs_input_grad(0));
        seen.push_back(needs_input_grad(1));
        return {needs_input_grad(0) ? g : Variable{},
                needs_input_grad(1) ? g : Variable{}};
      });
  const auto g = grad(op::sum_all(y), std::vector<Variable>{a});
  EXPECT_EQ(seen, (std::vector<bool>{true, false, true, false}));
  EXPECT_EQ(g[0].value().at(0, 0), 1.0f);
  EXPECT_TRUE(needs_input_grad(1));

  // A throwing closure must not leak its mask past grad().
  Variable t = Variable::make_op(
      a.value().clone(), "throws", {a, b},
      [](const Variable&) -> std::vector<Variable> {
        throw std::runtime_error("closure failed");
      });
  EXPECT_THROW((void)grad(op::sum_all(t), std::vector<Variable>{b}),
               std::runtime_error);
  EXPECT_TRUE(needs_input_grad(0));
  EXPECT_TRUE(needs_input_grad(1));
}

// ---------------------------------------------------------------------------
// Per-term parallel sweep: grad() splits a left fold of adds into one pool
// task per term; every result must match the serial sweep bit for bit.
// ---------------------------------------------------------------------------

/// grad(root, wrt) at width 1 (the serial sweep) and at width 4.
std::pair<std::vector<Variable>, std::vector<Variable>> grads_at_1_and_4(
    const Variable& root, const std::vector<Variable>& wrt) {
  WidthGuard guard;
  set_num_threads(1);
  auto serial = grad(root, wrt);
  set_num_threads(4);
  auto split = grad(root, wrt);
  return {std::move(serial), std::move(split)};
}

void expect_same_bytes(const std::vector<Variable>& a,
                       const std::vector<Variable>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_bytes(a[i], b[i])) << "gradient " << i;
  }
}

/// Counts the backward calls of tagged() nodes inside and outside a pool
/// task, which tells whether grad() split the sweep.
struct TaskProbe {
  std::atomic<int> in_task{0};
  std::atomic<int> serial{0};
};

/// Identity op whose backward reports to `probe`.
Variable tagged(const Variable& x, TaskProbe& probe) {
  return Variable::make_op(
      x.value(), "probe", {x},
      [&probe](const Variable& g) -> std::vector<Variable> {
        (in_parallel_region() ? probe.in_task : probe.serial).fetch_add(1);
        return {g};
      });
}

/// A term with several contributions to each leaf, so the order leaf
/// gradients are summed in shows in the low bits.
Variable mlp_term(const Variable& w, const Variable& b, const Variable& x) {
  const Variable h = op::linear(x, w, b);
  return op::sum_all(op::mul(op::tanh(h), op::matmul(x, w)));
}

Variable left_fold(const std::vector<Variable>& terms) {
  Variable acc = terms.front();
  for (std::size_t i = 1; i < terms.size(); ++i) acc = op::add(acc, terms[i]);
  return acc;
}

struct Leaves {
  Variable w{random_tensor(8, 8, 70, 0.4), true};
  Variable b{random_tensor(1, 8, 71, 0.4), true};
  std::vector<Variable> xs;
  Leaves() {
    for (u64 k = 0; k < 6; ++k) xs.emplace_back(random_tensor(16, 8, 80 + k));
  }
  std::vector<Variable> wrt() const { return {w, b}; }
};

TEST(ParallelSweep, DisjointTermsSplitBitForBit) {
  Leaves l;
  TaskProbe probe;
  std::vector<Variable> terms;
  for (const Variable& x : l.xs) {
    terms.push_back(tagged(mlp_term(l.w, l.b, x), probe));
  }
  const auto [serial, split] = grads_at_1_and_4(left_fold(terms), l.wrt());
  expect_same_bytes(serial, split);
  EXPECT_EQ(probe.serial.load(), 6);  // width 1
  EXPECT_EQ(probe.in_task.load(), 6);
}

TEST(ParallelSweep, TermsSharingAnInteriorNodeStaySerial) {
  // t0 and the latest term share `s`: no term splits off.
  Leaves l;
  TaskProbe probe;
  const Variable s = op::tanh(op::matmul(l.xs[0], l.w));
  std::vector<Variable> terms = {tagged(op::sum_all(op::square(s)), probe)};
  for (std::size_t k = 1; k + 1 < l.xs.size(); ++k) {
    terms.push_back(tagged(mlp_term(l.w, l.b, l.xs[k]), probe));
  }
  terms.push_back(tagged(op::sum_all(op::mul(s, op::matmul(l.xs.back(), l.w))),
                         probe));
  const auto [serial, split] = grads_at_1_and_4(left_fold(terms), l.wrt());
  expect_same_bytes(serial, split);
  EXPECT_EQ(probe.in_task.load(), 0);
  EXPECT_EQ(probe.serial.load(), 2 * static_cast<int>(terms.size()));
}

TEST(ParallelSweep, TermReachingASpineAddStaysSerial) {
  // root = add(add(add(x, y), z), t) with t built from add(x, y): the
  // leaf terms x, y and z merge under their adds, and t shares one of
  // those adds, so nothing splits.
  const Variable x(random_tensor(1, 1, 73), true);
  const Variable y(random_tensor(1, 1, 74), true);
  const Variable z(random_tensor(1, 1, 75), true);
  TaskProbe probe;
  const Variable a = op::add(x, y);
  const Variable t = tagged(op::mul(op::tanh(a), a), probe);
  const auto [serial, split] =
      grads_at_1_and_4(op::add(op::add(a, z), t), {x, y, z});
  expect_same_bytes(serial, split);
  EXPECT_EQ(probe.in_task.load(), 0);
}

TEST(ParallelSweep, SharingAtTheFoldsBottomSplitsTheRest) {
  // t0 and t1 share `s` (as a per-sample add(loss_e, loss_f) does): they
  // run as one task under their add, the later terms one task each.
  Leaves l;
  TaskProbe bottom, rest;
  const Variable s = op::tanh(op::matmul(l.xs[0], l.w));
  std::vector<Variable> terms = {
      tagged(op::sum_all(op::square(s)), bottom),
      tagged(op::sum_all(op::mul(s, op::matmul(l.xs[1], l.w))), bottom)};
  for (std::size_t k = 2; k < l.xs.size(); ++k) {
    terms.push_back(tagged(mlp_term(l.w, l.b, l.xs[k]), rest));
  }
  const auto [serial, split] = grads_at_1_and_4(left_fold(terms), l.wrt());
  expect_same_bytes(serial, split);
  EXPECT_EQ(bottom.in_task.load(), 2);
  EXPECT_EQ(rest.in_task.load(), 4);
}

TEST(ParallelSweep, LeafTermsFoldInSerialOrder) {
  // A scalar wrt leaf as a term, in the middle of the fold and at its
  // bottom: its direct gradient must join the ones the other terms send it
  // where the serial sweep adds it.
  Leaves l;
  const Variable c(random_tensor(1, 1, 72), true);
  TaskProbe probe;
  auto term = [&](std::size_t k) {
    return tagged(op::mul(mlp_term(l.w, l.b, l.xs[k]), c), probe);
  };
  const std::vector<Variable> middle = {term(0), c, term(1), term(2)};
  const std::vector<Variable> bottom = {c, term(3), term(4), term(5)};
  for (const auto& terms : {middle, bottom}) {
    const auto [serial, split] =
        grads_at_1_and_4(left_fold(terms), {l.w, l.b, c});
    expect_same_bytes(serial, split);
  }
  EXPECT_GT(probe.in_task.load(), 0);
}

TEST(ParallelSweep, ScaledFoldOfPerSampleSumsMatchesAdamLoss) {
  // AdamTrainer::batch_loss's shape: scale(fold of add(loss_e, loss_f)),
  // with both per-sample losses reading the same prediction.
  Leaves l;
  TaskProbe probe;
  std::vector<Variable> samples;
  for (const Variable& x : l.xs) {
    const Variable h = op::tanh(op::linear(x, l.w, l.b));
    const Variable loss_e = tagged(op::scale(op::sum_all(h), 0.25f), probe);
    const Variable loss_f = op::sum_all(op::square(op::matmul(h, l.w)));
    samples.push_back(op::add(loss_e, loss_f));
  }
  const Variable root = op::scale(left_fold(samples), 1.0f / 6.0f);
  const auto [serial, split] = grads_at_1_and_4(root, l.wrt());
  expect_same_bytes(serial, split);
  EXPECT_EQ(probe.in_task.load(), 6);
}

TEST(ParallelSweep, WorkerExceptionRethrowsOnCallerWithStateRestored) {
  WidthGuard guard;
  set_num_threads(4);
  Leaves l;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_threw{false};
  std::vector<Variable> terms;
  for (const Variable& x : l.xs) {
    terms.push_back(Variable::make_op(
        Tensor::scalar(0.0f), "throws_on_worker",
        {mlp_term(l.w, l.b, x)},
        [&](const Variable& g) -> std::vector<Variable> {
          if (std::this_thread::get_id() != caller) {
            worker_threw = true;
            throw std::runtime_error("closure failed on a worker");
          }
          // Hold the caller's task until a worker has thrown.
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!worker_threw && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          return {g};
        }));
  }
  EXPECT_THROW((void)grad(left_fold(terms), l.wrt()), std::runtime_error);
  EXPECT_TRUE(worker_threw.load());
  EXPECT_TRUE(grad_enabled());
  EXPECT_TRUE(needs_input_grad(0));
  // Every pool thread is back to grad mode on and no mask installed.
  std::atomic<int> leaked{0};
  parallel_for(0, 64, [&](i64) {
    if (!grad_enabled() || !needs_input_grad(1)) leaked.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  EXPECT_EQ(leaked.load(), 0);
}

// The FEKF measurements at batch 8 on 108-atom Cu: the trainer's gradients
// and the launches of one update must not depend on the pool width.
struct CuBatch {
  std::unique_ptr<deepmd::DeepmdModel> model;
  std::vector<train::EnvPtr> envs;
};

CuBatch make_cu_batch() {
  const data::SystemSpec& spec = data::get_system("Cu");
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature = 4;
  dcfg.test_per_temperature = 1;
  const data::Dataset dataset = data::build_dataset(spec, dcfg);
  deepmd::ModelConfig cfg;
  cfg.rcut = 5.0;
  cfg.rcut_smth = 2.5;
  cfg.embed_width = 8;
  cfg.axis_neurons = 4;
  cfg.fitting_width = 16;
  CuBatch out;
  out.model = std::make_unique<deepmd::DeepmdModel>(cfg, spec.num_types());
  out.model->fit_stats(dataset.train);
  out.envs = train::prepare_all(*out.model, dataset.train);
  out.envs.resize(8);
  return out;
}

TEST(ParallelSweep, FekfMeasurementsAtBatch8MatchSerial) {
  CuBatch cu = make_cu_batch();
  ASSERT_EQ(cu.envs.size(), 8u);
  const std::vector<Variable> params = cu.model->parameters();
  Rng rng(5);
  const auto groups = train::make_force_groups(cu.envs.front()->natoms, 4, rng);
  const train::Measurement energy =
      train::energy_measurement(*cu.model, cu.envs);
  const train::Measurement force =
      train::force_measurement(*cu.model, cu.envs, groups[0]);
  for (const Variable& m : {energy.m, force.m}) {
    const auto [serial, split] = grads_at_1_and_4(m, params);
    expect_same_bytes(serial, split);
  }
}

TEST(ParallelSweep, LaunchesPerUpdateDoNotDependOnWidth) {
  CuBatch cu = make_cu_batch();
  const std::vector<Variable> params = cu.model->parameters();
  Rng rng(6);
  const auto groups = train::make_force_groups(cu.envs.front()->natoms, 4, rng);
  WidthGuard guard;
  auto launches = [&](i64 width) {
    set_num_threads(width);
    KernelCountScope scope;
    (void)grad(train::energy_measurement(*cu.model, cu.envs).m, params);
    (void)grad(train::force_measurement(*cu.model, cu.envs, groups[1]).m,
               params);
    return scope.count();
  };
  const i64 serial = launches(1);
  EXPECT_GT(serial, 0);
  EXPECT_EQ(launches(4), serial);
}

TEST(ParallelSweep, AdamTrainingMatchesSerial) {
  // AdamTrainer::batch_loss end to end: two epochs at batch 4, widths 1
  // and 4, final weights compared byte for byte.
  auto train_at = [](i64 width) {
    WidthGuard guard;
    set_num_threads(width);
    CuBatch cu = make_cu_batch();
    train::TrainOptions opts;
    opts.batch_size = 4;
    opts.max_epochs = 2;
    opts.eval_max_samples = 2;
    optim::AdamConfig acfg;
    acfg.decay_steps = 100;
    train::AdamTrainer trainer(*cu.model, acfg, {}, opts);
    (void)trainer.train(cu.envs, {});
    std::vector<Variable> weights;
    for (const Variable& p : cu.model->parameters()) {
      weights.emplace_back(p.value().clone());
    }
    return weights;
  };
  expect_same_bytes(train_at(1), train_at(4));
}

}  // namespace
}  // namespace fekf::ag

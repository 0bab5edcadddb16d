// Fused-kernel equivalence and arena invariants (DESIGN.md §12).
//
// Tolerance contract: fused FORWARD values, FIRST-ORDER gradients and the
// cached-activation double backward are BIT-IDENTICAL to their references
// at thread widths 1 and 4. The fused FEKF step is bit-identical to the
// legacy four-launch sequence in every output.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "autograd/ops.hpp"
#include "data/systems.hpp"
#include "deepmd/model.hpp"
#include "md/sampler.hpp"
#include "optim/kalman.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernel_counter.hpp"
#include "tensor/kernels.hpp"
#include "tensor/workspace.hpp"

namespace fekf {
namespace {

namespace op = ag::ops;
using ag::Variable;

struct WidthGuard {
  ~WidthGuard() { set_num_threads(0); }
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(f32)) == 0;
}

Tensor random_tensor(i64 rows, i64 cols, u64 seed) {
  Rng rng(seed);
  return Tensor::randn(rows, cols, rng);
}

// ---------------------------------------------------------------------------
// Dense-layer and model force path
// ---------------------------------------------------------------------------

struct DenseLayerCase {
  Variable x{random_tensor(48, 16, 101), true};
  Variable w{random_tensor(16, 24, 102), true};
  Variable b{random_tensor(1, 24, 103), true};
  Tensor s = random_tensor(48, 24, 104);  ///< non-trivial upstream gradient

  std::vector<Variable> wrt() const { return {x, w, b}; }
};

deepmd::ModelConfig small_config() {
  deepmd::ModelConfig cfg;
  cfg.rcut = 5.0;
  cfg.rcut_smth = 2.5;
  cfg.embed_width = 8;
  cfg.axis_neurons = 4;
  cfg.fitting_width = 12;
  return cfg;
}

std::vector<md::Snapshot> sample_system(const std::string& name, i64 count,
                                        u64 seed) {
  const data::SystemSpec& spec = data::get_system(name);
  Rng rng(seed);
  md::Structure st = spec.make_structure(rng);
  auto pot = spec.make_potential(st);
  md::SamplerConfig cfg;
  cfg.dt_fs = spec.dt_fs;
  cfg.temperatures = {spec.temperatures.front()};
  cfg.equilibration_steps = 20;
  cfg.stride = 3;
  cfg.snapshots_per_temperature = count;
  return md::sample_trajectory(*pot, st, spec.masses, cfg, rng);
}

struct ModelCase {
  deepmd::DeepmdModel model;
  std::shared_ptr<const deepmd::EnvData> env;
};

ModelCase make_model(const std::string& system, i32 num_types, u64 seed) {
  auto snaps = sample_system(system, 2, seed);
  ModelCase c{deepmd::DeepmdModel(small_config(), num_types), nullptr};
  c.model.fit_stats(snaps);
  c.env = c.model.prepare(snaps[0]);
  return c;
}

// At the default rung the force path does only the work its result needs:
// the forward computes each activation once and every closure reuses it,
// and each backward forms only the gradients someone asked for (DESIGN.md
// §8): no weight gradients in predict()'s dE/dR~ pass, no tanh at all in
// the measurement's double backward.
TEST(Fusion, Opt2ForcePathSkipsUnneededWork) {
  ModelCase c = make_model("NaCl", 2, 205);
  deepmd::DeepmdModel& model = c.model;
  ASSERT_EQ(model.fusion(), deepmd::FusionLevel::kOpt2);
  KernelCounter::enable(true);
  KernelCounter::reset();
  auto pred = model.predict(c.env, /*with_forces=*/true);
  auto bd = KernelCounter::breakdown();
  // 2 types x (3 embedding + 3 activated fitting layers), one tanh each.
  EXPECT_EQ(bd["tanh"], 12);
  EXPECT_EQ(bd["tanh_backward"], 12);
  EXPECT_EQ(bd["matmul_tn"], 0);
  EXPECT_EQ(bd["sum_rows"], 0);

  Rng rng(206);
  Tensor sign_t(c.env->natoms, 3);
  for (i64 i = 0; i < sign_t.numel(); ++i) {
    sign_t.data()[i] = rng.uniform() < 0.5 ? -1.0f : 1.0f;
  }
  const Variable m = op::sum_all(op::mul(pred.forces, Variable(sign_t)));
  const std::vector<Variable> params = model.parameters();
  KernelCounter::reset();
  (void)ag::grad(m, params);
  bd = KernelCounter::breakdown();
  const i64 weights_only = KernelCounter::total();
  EXPECT_EQ(bd["tanh"], 0);
  EXPECT_GT(bd["matmul_tn"], 0);  // the weight gradients are formed
  // Asking for the env-matrix gradients as well costs launches the
  // weight-only pass skips.
  std::vector<Variable> with_env = params;
  std::vector<Variable> stack = {m};
  std::set<const ag::VarImpl*> seen = {m.key()}, weights;
  for (const Variable& p : params) weights.insert(p.key());
  while (!stack.empty()) {
    const Variable v = stack.back();
    stack.pop_back();
    if (!v.node() && !weights.count(v.key())) with_env.push_back(v);
    if (!v.node()) continue;
    for (const Variable& input : v.node()->inputs) {
      if (input.requires_grad() && seen.insert(input.key()).second) {
        stack.push_back(input);
      }
    }
  }
  ASSERT_GT(with_env.size(), params.size());
  KernelCounter::reset();
  (void)ag::grad(m, with_env);
  EXPECT_LT(weights_only, KernelCounter::total());
  KernelCounter::enable(false);
}

// Frozen copy of tanh_fused's backward as it was before the activation was
// cached: tanh recomputed with k::tanh for the fused kernel and with the
// composed op::tanh in the double backward. Built from public kernels and
// ops, so it compiles here as it did in ops.cpp.
Variable frozen_tanh_grad_fused(const Variable& g, const Variable& a) {
  Tensor y = kernels::tanh(a.value());
  return Variable::make_op(
      kernels::tanh_backward(g.value(), y), "frozen_tanh_grad_fused", {g, a},
      [g, a](const Variable& gout) -> std::vector<Variable> {
        Variable grad_g = frozen_tanh_grad_fused(gout, a);
        const Variable y = op::tanh(a);
        const Variable one_minus = op::add_scalar(op::neg(op::square(y)), 1.0f);
        Variable grad_a =
            op::scale(op::mul(op::mul(gout, g), op::mul(y, one_minus)), -2.0f);
        return {grad_g, grad_a};
      });
}

Variable frozen_tanh_fused(const Variable& a) {
  return Variable::make_op(
      kernels::tanh(a.value()), "tanh", {a},
      [a](const Variable& g) -> std::vector<Variable> {
        return {frozen_tanh_grad_fused(g, a)};
      });
}

TEST(Fusion, TanhFusedDoubleBackwardMatchesRecompute) {
  WidthGuard guard;
  const DenseLayerCase c;
  const auto wrt = c.wrt();
  const Tensor probe = random_tensor(48, 16, 106);  // contracts gx
  // First and second derivatives of sum(tanh(x w + b) ⊙ s), the second
  // through gx as the force path does.
  auto derivatives = [&](bool frozen) {
    const Variable pre = op::linear_fused(c.x, c.w, c.b);
    const Variable y = frozen ? frozen_tanh_fused(pre) : op::tanh_fused(pre);
    const Variable loss = op::sum_all(op::mul(y, Variable(c.s)));
    auto first = ag::grad(loss, wrt, {}, /*create_graph=*/true);
    const Variable z = op::sum_all(op::mul(first[0], Variable(probe)));
    auto second = ag::grad(z, wrt);
    first.insert(first.end(), second.begin(), second.end());
    return first;
  };
  for (const i64 width : {1, 4}) {
    set_num_threads(width);
    const auto cached = derivatives(false);
    const auto frozen = derivatives(true);
    ASSERT_EQ(cached.size(), frozen.size());
    for (std::size_t i = 0; i < cached.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(cached[i].value(), frozen[i].value()))
          << "width " << width << " derivative " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Fused FEKF step
// ---------------------------------------------------------------------------

TEST(Fusion, FekfStepKernelsBitExact) {
  WidthGuard guard;
  const i64 n = 24;
  Rng rng(301);
  std::vector<f64> p0(static_cast<std::size_t>(kernels::packed_size(n)));
  for (i64 i = 0; i < n; ++i) {
    for (i64 j = i; j < n; ++j) {
      p0[static_cast<std::size_t>(kernels::packed_row(i, n) + j - i)] =
          rng.gaussian() * 0.1 + (i == j ? 1.0 : 0.0);
    }
  }
  std::vector<f64> g(static_cast<std::size_t>(n));
  std::vector<f64> w0(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    g[static_cast<std::size_t>(i)] = rng.gaussian();
    w0[static_cast<std::size_t>(i)] = rng.gaussian();
  }
  const f64 lambda = 0.98, step_scale = 0.37, noise = 1e-2;

  for (const i64 width : {1, 4}) {
    set_num_threads(width);
    // Legacy four-launch sequence.
    std::vector<f64> p_ref = p0, w_ref = w0;
    std::vector<f64> q_ref(static_cast<std::size_t>(n));
    kernels::symv(p_ref, g, q_ref, n);
    const f64 gpg_ref = kernels::dot(std::span<const f64>(g),
                                     std::span<const f64>(q_ref));
    const f64 a = 1.0 / (lambda + gpg_ref);
    kernels::p_update_fused(p_ref, q_ref, a, lambda, n);
    kernels::axpy(step_scale, q_ref, w_ref);
    f64 max_diag_ref = 0.0;
    for (i64 i = 0; i < n; ++i) {
      f64& d = p_ref[static_cast<std::size_t>(kernels::packed_row(i, n))];
      d += noise;
      max_diag_ref = std::max(max_diag_ref, d);
    }

    // Fused step: the gain (one launch), the eager weight step and
    // health probe (no launch), and the P write the next sweep makes,
    // here its flush form (one launch).
    std::vector<f64> p_f = p0, w_f = w0;
    std::vector<f64> q_f(static_cast<std::size_t>(n));
    i64 gain_launches = 0, commit_launches = 0, write_launches = 0;
    f64 gpg_f = 0.0, max_diag_f = 0.0;
    {
      KernelCountScope scope;
      gpg_f = kernels::ekf_apply_gain(p_f, {}, nullptr, g, q_f, n);
      gain_launches = scope.count();
    }
    const kernels::EkfPendingStep step{q_f, a, lambda, noise};
    {
      KernelCountScope scope;
      max_diag_f = kernels::ekf_commit_step(p_f, step, step_scale, w_f, n);
      commit_launches = scope.count();
    }
    {
      KernelCountScope scope;
      kernels::ekf_apply_gain(p_f, p_f, &step, {}, {}, n);
      write_launches = scope.count();
    }
    EXPECT_EQ(gain_launches, 1);
    EXPECT_EQ(commit_launches, 0);
    EXPECT_EQ(write_launches, 1);
    EXPECT_EQ(gpg_f, gpg_ref) << "width " << width;
    EXPECT_EQ(max_diag_f, max_diag_ref) << "width " << width;
    EXPECT_EQ(q_f, q_ref) << "width " << width;
    EXPECT_EQ(p_f, p_ref) << "width " << width;
    EXPECT_EQ(w_f, w_ref) << "width " << width;
  }
}

TEST(Fusion, FekfOptimizerFusedMatchesLegacy) {
  const i64 n = 40;
  std::vector<optim::BlockSpec> blocks{{0, n, "blk"}};
  optim::KalmanConfig fused_cfg;  // default: kFused
  optim::KalmanConfig legacy_cfg;
  legacy_cfg.level = optim::EkfLevel::kOpt3;
  optim::KalmanOptimizer fused(blocks, fused_cfg);
  optim::KalmanOptimizer legacy(blocks, legacy_cfg);

  Rng rng(311);
  std::vector<f64> wf(static_cast<std::size_t>(n), 0.0);
  std::vector<f64> wl(static_cast<std::size_t>(n), 0.0);
  std::vector<f64> g(static_cast<std::size_t>(n));
  for (int step = 0; step < 25; ++step) {
    for (f64& v : g) v = rng.gaussian();
    const f64 kscale = 0.1 + 0.01 * step;
    fused.update(g, kscale, wf, std::nullopt, 0.5);
    legacy.update(g, kscale, wl, std::nullopt, 0.5);
  }
  EXPECT_EQ(wf, wl);
  EXPECT_EQ(fused.last_max_diag(), legacy.last_max_diag());
  EXPECT_EQ(fused.state().p, legacy.state().p);
  EXPECT_EQ(fused.lambda(), legacy.lambda());
}

TEST(Fusion, FekfOptimizerLaunchBudget) {
  // Launches per block for each rung of the optimizer ladder.
  const std::pair<optim::EkfLevel, i64> rows[] = {
      // symv, dot, second symv, three-launch p_update_unfused, axpy
      {optim::EkfLevel::kFramework, 7},
      {optim::EkfLevel::kOpt3, 4},  // symv, dot, p_update_fused, axpy
      {optim::EkfLevel::kFused, 1},  // ekf_apply_gain
  };
  const i64 n = 32;
  for (const auto& [level, launches] : rows) {
    optim::KalmanConfig cfg;
    cfg.level = level;
    optim::KalmanOptimizer opt({{0, n, "blk"}, {n, n, "blk2"}}, cfg);
    std::vector<f64> w(static_cast<std::size_t>(2 * n), 0.0);
    std::vector<f64> g(static_cast<std::size_t>(2 * n), 0.01);
    opt.update(g, 0.1, w);  // kFused: the first update has nothing pending
    KernelCountScope scope;
    opt.update(g, 0.1, w);
    EXPECT_EQ(scope.count(), 2 * launches) << static_cast<int>(level);
  }
}

// ---------------------------------------------------------------------------
// Arena (Workspace) invariants
// ---------------------------------------------------------------------------

/// Force-enable the arena for a test and restore the ambient setting.
struct ArenaEnableGuard {
  bool was = Workspace::enabled();
  ArenaEnableGuard() { Workspace::set_enabled(true); }
  ~ArenaEnableGuard() { Workspace::set_enabled(was); }
};

TEST(Arena, ScopeArmsAndResets) {
  ArenaEnableGuard enable;
  EXPECT_FALSE(Workspace::armed());
  Workspace::reset_stats();
  const i64 before = Workspace::stats().allocs;
  {
    ArenaScope scope;
    EXPECT_TRUE(Workspace::armed());
    Tensor a(64, 64);
    Tensor b(32, 32);
    a.data()[0] = 1.0f;
    b.data()[0] = 2.0f;
    EXPECT_EQ(Workspace::stats().allocs, before + 2);
    EXPECT_GE(Workspace::stats().scope_bytes,
              static_cast<i64>((64 * 64 + 32 * 32) * sizeof(f32)));
  }
  EXPECT_FALSE(Workspace::armed());
  // The completed scope's bytes are recorded; the cursor is rewound.
  EXPECT_GT(Workspace::stats().last_scope_bytes, 0);
  EXPECT_EQ(Workspace::stats().scope_bytes, 0);
}

TEST(Arena, ResetReusesSlabsWithoutGrowth) {
  ArenaEnableGuard enable;
  {
    ArenaScope warm;
    Tensor t(128, 128);
    t.data()[0] = 1.0f;
  }
  Workspace::reset_stats();  // stats cleared; slabs stay resident
  const i64 reserved = Workspace::stats().reserved_bytes;
  const i64 slabs = Workspace::stats().slabs;
  for (int step = 0; step < 5; ++step) {
    ArenaScope scope;
    Tensor t(128, 128);
    t.data()[0] = static_cast<f32>(step);
  }
  // Steady state: same slabs serve every step, nothing retired, no growth.
  EXPECT_EQ(Workspace::stats().reserved_bytes, reserved);
  EXPECT_EQ(Workspace::stats().slabs, slabs);
  EXPECT_EQ(Workspace::stats().retired_slabs, 0);
}

TEST(Arena, EscapedTensorRetiresSlabAndNeverAliases) {
  ArenaEnableGuard enable;
  Workspace::reset_stats();
  Tensor escaped;
  {
    ArenaScope scope;
    escaped = Tensor(16, 16);
    for (i64 i = 0; i < escaped.numel(); ++i) {
      escaped.data()[i] = static_cast<f32>(i);
    }
  }
  // The slab the escapee lives in was retired, not rewound: its memory
  // belongs to the escaped tensor alone now.
  EXPECT_GE(Workspace::stats().retired_slabs, 1);
  {
    ArenaScope scope;
    Tensor clobber(512, 512);
    for (i64 i = 0; i < clobber.numel(); ++i) {
      clobber.data()[i] = -1.0f;
    }
  }
  for (i64 i = 0; i < escaped.numel(); ++i) {
    ASSERT_EQ(escaped.data()[i], static_cast<f32>(i)) << "aliased at " << i;
  }
}

TEST(Arena, DisabledScopeAllocatesFromHeap) {
  const bool was = Workspace::enabled();
  Workspace::set_enabled(false);
  Workspace::reset_stats();
  {
    ArenaScope scope;
    EXPECT_FALSE(Workspace::armed());
    Tensor t(8, 8);
    t.data()[0] = 1.0f;
  }
  EXPECT_EQ(Workspace::stats().allocs, 0);
  Workspace::set_enabled(was);
}

TEST(Arena, ModelPredictInsideArenaMatchesHeap) {
  auto snaps = sample_system("Cu", 1, 401);
  deepmd::DeepmdModel model(small_config(), 1);
  ASSERT_EQ(model.fusion(), deepmd::FusionLevel::kOpt2);
  model.fit_stats(snaps);
  auto env = model.prepare(snaps[0]);

  const bool was = Workspace::enabled();
  Workspace::set_enabled(false);
  Tensor heap_forces;
  f64 heap_energy = 0.0;
  {
    auto pred = model.predict(env, /*with_forces=*/true);
    heap_energy = pred.energy.item();
    heap_forces = pred.forces.value().clone();
  }
  Workspace::set_enabled(true);
  Workspace::reset_stats();
  f64 arena_energy = 0.0;
  Tensor arena_forces;
  i64 served = 0;
  {
    ArenaScope scope;
    auto pred = model.predict(env, /*with_forces=*/true);
    arena_energy = pred.energy.item();
    arena_forces = pred.forces.value().clone();
    served = Workspace::stats().allocs;
  }
  Workspace::set_enabled(was);
  EXPECT_GT(served, 0);  // the arena actually carried the step
  // The arena moves bytes, never values.
  EXPECT_EQ(arena_energy, heap_energy);
  EXPECT_TRUE(bitwise_equal(arena_forces, heap_forces));
}

}  // namespace
}  // namespace fekf

// Fused-vs-unfused composite kernels and the arena allocator, head to head
// (DESIGN.md §12). Three fusion sites and the Workspace are measured in
// isolation so a regression is attributable to one kernel, not a whole
// training step:
//
//   linear+tanh   whole-layer forward + one-launch backward vs the
//                 linear_fused/tanh_fused chain (opt2 reference)
//   model step    energy + force prediction at FusionLevel kFused vs kOpt2
//                 (covers desc_a / desc_d / desc_d_grad)
//   EKF step      one-launch ekf_apply_gain (the pending P write and the
//                 gain in one sweep) vs the legacy symv / dot /
//                 p_update_fused / axpy sequence
//   arena         the same model step with temporaries drawn from the
//                 Workspace vs operator new
//
// Every comparison asserts (FEKF_CHECK) the fused path's launch budget and
// its bit-identical outputs, so the binary doubles as a CI gate; `--json
// FILE` emits the numbers ci/check_budgets.py compares against
// ci/budgets.json.
#include <chrono>
#include <cstdio>
#include <cstring>

#include "autograd/ops.hpp"
#include "bench_common.hpp"
#include "optim/kalman.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/dispatch.hpp"
#include "tensor/kernel_counter.hpp"
#include "tensor/kernels.hpp"
#include "tensor/workspace.hpp"

using namespace fekf;
using namespace fekf::bench;

namespace {

namespace op = ag::ops;
using ag::Variable;

f64 now_s() {
  return std::chrono::duration<f64>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(f32)) == 0;
}

struct Result {
  f64 fused_s = 0.0;    ///< seconds per repetition
  f64 unfused_s = 0.0;
  i64 fused_launches = 0;
  i64 unfused_launches = 0;

  f64 speedup() const { return unfused_s > 0.0 ? unfused_s / fused_s : 0.0; }
};

/// Time `fn` over `reps` repetitions and count one repetition's launches.
template <typename Fn>
void measure(Fn&& fn, i64 reps, f64* seconds, i64* launches) {
  fn();  // warm-up (excluded)
  {
    KernelCountScope scope;
    fn();
    *launches = scope.count();
  }
  const f64 t0 = now_s();
  for (i64 r = 0; r < reps; ++r) fn();
  *seconds = (now_s() - t0) / static_cast<f64>(reps);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_fusion",
          "fused vs unfused composite kernels, plus the arena allocator");
  add_common_flags(cli);
  cli.flag("system", "Cu", "catalog system for the model-step comparison")
      .flag("rows", "512", "linear+tanh micro: batch rows")
      .flag("ekf-n", "256", "EKF micro: covariance block size")
      .flag("reps", "20", "timed repetitions per measurement")
      .flag("json", "", "also write a machine-readable summary to this file");
  if (!cli.parse(argc, argv)) return 0;

  const i64 reps = cli.get_int("reps");
  Table table({"comparison", "fused s/rep", "unfused s/rep", "speedup",
               "fused launches", "unfused launches"});

  // ---- linear+tanh whole-layer fusion ---------------------------------
  Result lin;
  {
    const i64 rows = cli.get_int("rows");
    const i64 in = cli.get_int("embed") * 4;
    const i64 out = cli.get_int("fit") * 4;
    Rng rng(11);
    const Variable x(Tensor::randn(rows, in, rng), true);
    const Variable w(Tensor::randn(in, out, rng), true);
    const Variable b(Tensor::randn(1, out, rng), true);
    const Variable s(Tensor::randn(rows, out, rng));
    const std::vector<Variable> wrt{x, w, b};
    auto run = [&](bool fused) {
      Variable y = fused ? op::linear_tanh_fused(x, w, b)
                         : op::tanh_fused(op::linear_fused(x, w, b));
      auto grads = ag::grad(op::sum_all(op::mul(y, s)), wrt);
      return std::pair<Variable, std::vector<Variable>>(y, std::move(grads));
    };
    measure([&] { (void)run(true); }, reps, &lin.fused_s, &lin.fused_launches);
    measure([&] { (void)run(false); }, reps, &lin.unfused_s,
            &lin.unfused_launches);
    auto rf = run(true);
    auto ru = run(false);
    FEKF_CHECK(bitwise_equal(rf.first.value(), ru.first.value()),
               "fused linear+tanh forward is not bit-identical");
    for (std::size_t i = 0; i < rf.second.size(); ++i) {
      FEKF_CHECK(bitwise_equal(rf.second[i].value(), ru.second[i].value()),
                 "fused linear+tanh gradient " + std::to_string(i) +
                     " is not bit-identical");
    }
    table.add_row({"linear+tanh fwd+bwd", fmt("%.6f", lin.fused_s),
                   fmt("%.6f", lin.unfused_s), fmt("%.2fx", lin.speedup()),
                   std::to_string(lin.fused_launches),
                   std::to_string(lin.unfused_launches)});
  }

  // ---- whole-descriptor fusion at model level -------------------------
  Result model;
  {
    Fixture f = make_fixture(cli.get("system"), cli);
    const train::EnvPtr& env = f.train_envs.front();
    auto run = [&](deepmd::FusionLevel level) {
      f.model->set_fusion(level);
      return f.model->predict(env, /*with_forces=*/true);
    };
    measure([&] { (void)run(deepmd::FusionLevel::kFused); }, reps,
            &model.fused_s, &model.fused_launches);
    measure([&] { (void)run(deepmd::FusionLevel::kOpt2); }, reps,
            &model.unfused_s, &model.unfused_launches);
    auto pf = run(deepmd::FusionLevel::kFused);
    auto pu = run(deepmd::FusionLevel::kOpt2);
    FEKF_CHECK(pf.energy.item() == pu.energy.item(),
               "fused model energy is not bit-identical");
    FEKF_CHECK(bitwise_equal(pf.forces.value(), pu.forces.value()),
               "fused model forces are not bit-identical");
    table.add_row({"model energy+forces", fmt("%.6f", model.fused_s),
                   fmt("%.6f", model.unfused_s), fmt("%.2fx", model.speedup()),
                   std::to_string(model.fused_launches),
                   std::to_string(model.unfused_launches)});
  }

  // ---- fused EKF step -------------------------------------------------
  Result ekf;
  {
    const i64 n = cli.get_int("ekf-n");
    std::vector<optim::BlockSpec> blocks{{0, n, "blk"}};
    optim::KalmanConfig fused_cfg;
    optim::KalmanConfig legacy_cfg;
    legacy_cfg.level = optim::EkfLevel::kOpt3;
    optim::KalmanOptimizer fused_opt(blocks, fused_cfg);
    optim::KalmanOptimizer legacy_opt(blocks, legacy_cfg);
    Rng rng(13);
    std::vector<f64> g(static_cast<std::size_t>(n));
    for (f64& v : g) v = rng.gaussian() * 0.05;
    std::vector<f64> wf(static_cast<std::size_t>(n), 0.0);
    std::vector<f64> wl(static_cast<std::size_t>(n), 0.0);
    measure([&] { fused_opt.update(g, 0.1, wf); }, reps, &ekf.fused_s,
            &ekf.fused_launches);
    measure([&] { legacy_opt.update(g, 0.1, wl); }, reps, &ekf.unfused_s,
            &ekf.unfused_launches);
    FEKF_CHECK(ekf.fused_launches == 1,
               "fused EKF step issued " + std::to_string(ekf.fused_launches) +
                   " launches per block, budget is 1");
    FEKF_CHECK(ekf.unfused_launches == 4,
               "legacy EKF step issued " +
                   std::to_string(ekf.unfused_launches) +
                   " launches per block, expected 4");
    // Both optimizers saw the identical update sequence: state must match
    // bit for bit (the fused sweep replays the legacy accumulation order;
    // state() writes the fused optimizer's pending step first).
    FEKF_CHECK(wf == wl, "fused EKF weights diverged from legacy");
    FEKF_CHECK(fused_opt.state().p == legacy_opt.state().p,
               "fused EKF covariance diverged from legacy");
    table.add_row({"EKF block update", fmt("%.6f", ekf.fused_s),
                   fmt("%.6f", ekf.unfused_s), fmt("%.2fx", ekf.speedup()),
                   std::to_string(ekf.fused_launches),
                   std::to_string(ekf.unfused_launches)});
  }

  // ---- fused EKF step per kernel backend ------------------------------
  // Same comparison as above under FEKF_KERNEL_BACKEND=scalar and auto
  // (DESIGN.md §13). Every gain body either path can select keeps the
  // reference chains, so the bit-identity assertion must hold under both,
  // and the two rows show what the auto-selected rung buys on the EKF
  // update.
  std::vector<std::pair<std::string, Result>> ekf_backends;
  {
    const i64 n = cli.get_int("ekf-n");
    auto& reg = dispatch::Registry::instance();
    const dispatch::Backend prior = reg.backend();
    for (dispatch::Backend backend :
         {dispatch::Backend::kScalar, dispatch::Backend::kAuto}) {
      reg.set_backend(backend);
      std::vector<optim::BlockSpec> blocks{{0, n, "blk"}};
      optim::KalmanConfig fused_cfg;
      optim::KalmanConfig legacy_cfg;
      legacy_cfg.level = optim::EkfLevel::kOpt3;
      optim::KalmanOptimizer fused_opt(blocks, fused_cfg);
      optim::KalmanOptimizer legacy_opt(blocks, legacy_cfg);
      Rng rng(13);
      std::vector<f64> g(static_cast<std::size_t>(n));
      for (f64& v : g) v = rng.gaussian() * 0.05;
      std::vector<f64> wf(static_cast<std::size_t>(n), 0.0);
      std::vector<f64> wl(static_cast<std::size_t>(n), 0.0);
      Result r;
      measure([&] { fused_opt.update(g, 0.1, wf); }, reps, &r.fused_s,
              &r.fused_launches);
      measure([&] { legacy_opt.update(g, 0.1, wl); }, reps, &r.unfused_s,
              &r.unfused_launches);
      const char* name = dispatch::backend_name(backend);
      FEKF_CHECK(wf == wl, std::string("fused EKF weights diverged from "
                                       "legacy under backend ") +
                               name);
      FEKF_CHECK(fused_opt.state().p == legacy_opt.state().p,
                 std::string("fused EKF covariance diverged from legacy "
                             "under backend ") +
                     name);
      table.add_row({std::string("EKF block update [") + name + "]",
                     fmt("%.6f", r.fused_s), fmt("%.6f", r.unfused_s),
                     fmt("%.2fx", r.speedup()),
                     std::to_string(r.fused_launches),
                     std::to_string(r.unfused_launches)});
      ekf_backends.emplace_back(name, r);
    }
    reg.set_backend(prior);
  }

  // ---- arena vs heap --------------------------------------------------
  Result arena;
  i64 arena_allocs = 0, arena_peak_bytes = 0, arena_retired = 0;
  i64 arena_reserved_growth = 0;
  const bool arena_available = Workspace::enabled();
  if (arena_available) {
    Fixture f = make_fixture(cli.get("system"), cli);
    f.model->set_fusion(deepmd::FusionLevel::kFused);
    const train::EnvPtr& env = f.train_envs.front();
    auto step = [&] { (void)f.model->predict(env, /*with_forces=*/true); };
    {
      ArenaScope warm;  // populate slabs before the steady-state window
      step();
    }
    Workspace::reset_stats();
    const i64 reserved_before = Workspace::stats().reserved_bytes;
    measure(
        [&] {
          ArenaScope scope;
          step();
        },
        reps, &arena.fused_s, &arena.fused_launches);
    const WorkspaceStats st = Workspace::stats();
    arena_allocs = st.allocs;
    arena_peak_bytes = st.peak_scope_bytes;
    arena_retired = st.retired_slabs;
    arena_reserved_growth = st.reserved_bytes - reserved_before;
    Workspace::set_enabled(false);
    measure(step, reps, &arena.unfused_s, &arena.unfused_launches);
    Workspace::set_enabled(true);
    // Allocation budget: the arena must actually serve the step and stay in
    // steady state — no slab growth or retirement once warmed up.
    FEKF_CHECK(arena_allocs > 0, "arena served no allocations");
    FEKF_CHECK(arena_retired == 0,
               "arena retired " + std::to_string(arena_retired) +
                   " slab(s): a tensor escaped its step scope");
    FEKF_CHECK(arena_reserved_growth == 0,
               "arena grew by " + std::to_string(arena_reserved_growth) +
                   " bytes after warm-up: steady state violated");
    table.add_row({"model step arena/heap", fmt("%.6f", arena.fused_s),
                   fmt("%.6f", arena.unfused_s),
                   fmt("%.2fx", arena.speedup()),
                   std::to_string(arena.fused_launches),
                   std::to_string(arena.unfused_launches)});
  }

  // Launch budgets: fusion must strictly reduce launches at every site.
  FEKF_CHECK(lin.fused_launches < lin.unfused_launches,
             "linear+tanh fusion does not reduce launches");
  FEKF_CHECK(model.fused_launches < model.unfused_launches,
             "descriptor fusion does not reduce launches");

  std::printf("Fused vs unfused composite kernels (seconds per repetition, "
              "%lld reps; launches per repetition):\n",
              static_cast<long long>(reps));
  table.print();
  if (arena_available) {
    std::printf("\narena steady state: %lld allocs/step served, peak scope "
                "%lld KiB, 0 retired slabs, 0 growth\n",
                static_cast<long long>(arena_allocs / (reps + 2)),
                static_cast<long long>(arena_peak_bytes / 1024));
  } else {
    std::printf("\narena disabled (FEKF_ARENA=0): arena/heap comparison "
                "skipped\n");
  }
  std::printf("\nAll fused outputs verified bit-identical to the unfused "
              "reference; launch budgets asserted (1-launch EKF step, "
              "strict reduction elsewhere).\n");

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    auto entry = [](const char* name, const Result& r) {
      std::string s = "    {\"name\": \"" + std::string(name) + "\", ";
      s += "\"fused_s\": " + fmt("%.6f", r.fused_s) + ", ";
      s += "\"unfused_s\": " + fmt("%.6f", r.unfused_s) + ", ";
      s += "\"speedup\": " + fmt("%.3f", r.speedup()) + ", ";
      s += "\"fused_launches\": " + std::to_string(r.fused_launches) + ", ";
      s += "\"unfused_launches\": " + std::to_string(r.unfused_launches) +
           "}";
      return s;
    };
    std::string json = "{\n  \"bench\": \"fusion\",\n";
    json += "  \"system\": \"" + cli.get("system") + "\",\n";
    json += "  \"reps\": " + std::to_string(reps) + ",\n";
    json += "  \"threads\": " + std::to_string(num_threads()) + ",\n";
    json += "  \"arena_enabled\": ";
    json += arena_available ? "true" : "false";
    json += ",\n  \"arena_allocs_per_step\": " +
            std::to_string(arena_available ? arena_allocs / (reps + 2) : 0) +
            ",\n";
    json += "  \"arena_peak_scope_bytes\": " +
            std::to_string(arena_peak_bytes) + ",\n";
    json += "  \"comparisons\": [\n";
    json += entry("linear_tanh", lin) + ",\n";
    json += entry("model_step", model) + ",\n";
    json += entry("ekf_block_update", ekf);
    for (const auto& [backend, result] : ekf_backends) {
      json += ",\n" + entry(("ekf_block_update_" + backend).c_str(), result);
    }
    if (arena_available) {
      json += ",\n" + entry("arena_vs_heap", arena);
    }
    json += "\n  ]\n}\n";
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    FEKF_CHECK(out != nullptr, "cannot open --json file " + json_path);
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("JSON summary written to %s\n", json_path.c_str());
  }
  return 0;
}

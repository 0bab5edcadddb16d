// Figure 7(b)/(c) — CUDA-kernel launches and iteration time under the
// step-by-step system optimizations.
//
// Configurations (cumulative, as in the paper):
//   baseline  framework-autograd style: per-atom composed descriptor ops,
//             unfused linear/tanh, unfused P update, no Pg caching
//   opt1      hand-written (batched) descriptor-derivative kernels (Fig. 6)
//   opt2      + fused linear / tanh-backward kernels (torch.compile analog)
//   opt3      + custom P-update kernel and Pg reuse in the optimizer
//   fused     the shipped default step: a default ModelConfig's model
//             (opt2) with a default KalmanConfig's whole-step EKF, one
//             P sweep per block and update (DESIGN.md §12); it differs
//             from opt3 only in the EKF rung
// Each row is one (deepmd::FusionLevel, optim::EkfLevel) pair.
//
// For each configuration the harness reports (b) the number of primitive-
// kernel launches for one ENERGY update and one FORCE update (the paper's
// two bar groups: 397->174 and 846->281 on the A100), and (c) the
// iteration time split into forward / gradient / KF-update phases, read
// from the trainer's phase spans (obs::SpanClock), plus the arena
// (Workspace) allocator counters for the measured iterations.
//
// The harness doubles as the CI launch/allocation budget gate: it FAILS
// (FEKF_CHECK) if fusion stops halving the per-step launch count or the
// arena leaves steady state (slab growth or retirement during measured
// iterations), and `--json FILE` emits the per-config numbers that
// ci/check_budgets.py compares against ci/budgets.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <limits>
#include <span>

#include "bench_common.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/dispatch.hpp"
#include "tensor/kernel_counter.hpp"
#include "tensor/kernels.hpp"
#include "tensor/variants/variants.hpp"
#include "tensor/workspace.hpp"

using namespace fekf;
using namespace fekf::bench;

namespace {

struct Config {
  const char* name;
  deepmd::FusionLevel fusion;
  optim::EkfLevel ekf;
};

struct Sample {
  i64 energy_kernels = 0;
  i64 force_kernels = 0;
  f64 forward_s = 0.0, gradient_s = 0.0, optimizer_s = 0.0;
  // Arena counters over the measured iterations (zeros when FEKF_ARENA=0).
  i64 arena_peak_scope_bytes = 0;
  i64 arena_allocs_per_iter = 0;
  i64 arena_retired_slabs = 0;
  i64 arena_reserved_bytes = 0;
  i64 arena_reserved_growth = 0;
  std::vector<std::pair<std::string, i64>> top_kernels;

  i64 step_kernels() const { return energy_kernels + 4 * force_kernels; }
};

// ---------------------------------------------------------------------------
// Per-variant kernel-dispatch micro table (DESIGN.md §13, docs/KERNELS.md)
// ---------------------------------------------------------------------------

namespace dp = fekf::dispatch;

struct VariantRow {
  std::string name;
  std::string isa;
  bool selected = false;   ///< what the current backend selects
  f64 s_per_call = 0.0;    ///< best pass's averaged wall time
  f64 speedup = 0.0;       ///< median scalar/this ratio over paired passes
};

struct DispatchSection {
  std::string kernel;
  std::string shape;
  std::vector<VariantRow> rows;

  f64 best_speedup() const {
    f64 best = 1.0;
    for (const VariantRow& r : rows) best = std::max(best, r.speedup);
    return best;
  }
};

/// Times `call(fn)` for every entry of a family table on the calling
/// thread: repeats are calibrated on the scalar entry (~40 ms a pass). Each
/// other variant then runs kPairs alternating pairs of passes against
/// scalar, each pair flipping which goes first, so host drift lands on both
/// arms alike. Its speedup is the median of the per-pair scalar/variant
/// ratios, and every s_per_call is the best of that body's passes. The
/// per-variant rows in docs/KERNELS.md and the ci/budgets.json "dispatch"
/// section come from exactly this loop.
template <typename Fn, typename Call>
DispatchSection time_family(const std::string& kernel, std::string shape,
                            std::span<const dp::Variant<Fn>> table,
                            Call&& call) {
  constexpr int kPairs = 5;
  const dp::Variant<Fn>& selected = dp::select(table);
  DispatchSection section{kernel, std::move(shape), {}};

  const auto time_once = [&](Fn fn, i64 repeats) {
    const auto t0 = std::chrono::steady_clock::now();
    for (i64 r = 0; r < repeats; ++r) call(fn);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<f64>(t1 - t0).count() /
           static_cast<f64>(repeats);
  };
  // Calibrate on scalar: target ~40 ms per measured pass.
  const Fn scalar = table.front().fn;
  i64 repeats = 1;
  f64 scalar_probe = time_once(scalar, 1);
  while (scalar_probe * static_cast<f64>(repeats) < 0.04 &&
         repeats < (1 << 20)) {
    repeats *= 2;
  }
  f64 scalar_best = time_once(scalar, repeats);
  for (const dp::Variant<Fn>& v : table) {
    VariantRow row{v.name, v.isa, &v == &selected};
    if (&v == &table.front()) {
      section.rows.push_back(row);  // timed against every other body below
      continue;
    }
    f64 best = std::numeric_limits<f64>::infinity();
    std::vector<f64> ratios;
    for (int pair = 0; pair < kPairs; ++pair) {
      f64 scalar_s = 0.0, variant_s = 0.0;
      if (pair % 2 == 0) {
        scalar_s = time_once(scalar, repeats);
        variant_s = time_once(v.fn, repeats);
      } else {
        variant_s = time_once(v.fn, repeats);
        scalar_s = time_once(scalar, repeats);
      }
      scalar_best = std::min(scalar_best, scalar_s);
      best = std::min(best, variant_s);
      ratios.push_back(scalar_s / variant_s);
    }
    std::sort(ratios.begin(), ratios.end());
    row.s_per_call = best;
    row.speedup = ratios[kPairs / 2];
    section.rows.push_back(row);
  }
  section.rows.front().s_per_call = scalar_best;
  section.rows.front().speedup = 1.0;
  return section;
}

std::vector<DispatchSection> run_dispatch_micro(u64 seed) {
  Rng rng(seed);
  std::vector<DispatchSection> sections;

  {  // gemm: embedding-net layer shape (d = 50 from the paper network).
    const i64 m = 256, k = 50, n = 50;
    const Tensor x = Tensor::randn(m, k, rng);
    const Tensor w = Tensor::randn(k, n, rng);
    const Tensor b = Tensor::randn(1, n, rng);
    Tensor out(m, n);
    sections.push_back(time_family(
        "gemm_f32", "m=256 k=50 n=50", dp::gemm_variants(),
        [&](dp::GemmPanelFn fn) {
          fn(x.data(), w.data(), b.data(), out.data(), 0, m, k, n);
        }));
  }
  {  // EKF gain y = P g over a packed P block at the paper blocksize regime.
    const i64 n = 1024;
    const i64 entries = kernels::packed_size(n);
    const Tensor t = Tensor::randn(1, entries, rng);
    const std::vector<f64> p(t.data(), t.data() + entries);
    const Tensor tg = Tensor::randn(1, n, rng);
    const std::vector<f64> g(tg.data(), tg.data() + n);
    std::vector<f64> y(static_cast<std::size_t>(n));
    sections.push_back(time_family(
        "ekf_gain_f64", "n=1024 packed", dp::gain_variants(),
        [&](dp::GainPanelFn fn) {
          fn(p.data(), g.data(), y.data(), 0, n, n);
        }));
  }
  {  // NT contraction: the linear-backward gx shape (d = 50 layers).
    const i64 rows = 256, nt_n = 50, nt_q = 50;
    const Tensor a = Tensor::randn(rows, nt_q, rng);
    const Tensor b = Tensor::randn(nt_n, nt_q, rng);
    Tensor out(rows, nt_n);
    sections.push_back(time_family(
        "matnt_f32", "rows=256 n=50 q=50", dp::matnt_variants(),
        [&](dp::MatNtPanelFn fn) {
          fn(a.data(), b.data(), out.data(), 0, rows, nt_n, nt_q);
        }));
  }
  {  // TN reduction: the embedding-layer gw = xᵀu shape (108 atoms x 96
     // neighbours at the bench width M = 12).
    const i64 k = 10368, m = 12, n = 12;
    const Tensor a = Tensor::randn(k, m, rng);
    const Tensor b = Tensor::randn(k, n, rng);
    Tensor out(m, n);
    sections.push_back(time_family(
        "gemm_tn_f32", "k=10368 m=12 n=12", dp::gemm_tn_variants(),
        [&](dp::GemmTnPanelFn fn) {
          fn(a.data(), b.data(), out.data(), 0, m, k, m, n);
        }));
  }
  return sections;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_fig7bc_kernels",
          "Figure 7b/7c: kernel launches and iteration time per "
          "optimization level");
  add_common_flags(cli);
  cli.flag("system", "Cu", "catalog system")
      .flag("batch", "8", "FEKF batch size (paper: 64)")
      .flag("iters", "3", "measured iterations per configuration")
      .flag("json", "", "also write a machine-readable summary to this file");
  if (!cli.parse(argc, argv)) return 0;

  const Config configs[] = {
      {"baseline", deepmd::FusionLevel::kBaseline, optim::EkfLevel::kFramework},
      {"opt1", deepmd::FusionLevel::kOpt1, optim::EkfLevel::kFramework},
      {"opt2", deepmd::FusionLevel::kOpt2, optim::EkfLevel::kFramework},
      {"opt3", deepmd::FusionLevel::kOpt2, optim::EkfLevel::kOpt3},
      {"fused", deepmd::ModelConfig{}.fusion, optim::KalmanConfig{}.level},
  };
  // The fused row is built from the defaults, so it and the tracing A/B
  // below keep measuring what ships.
  const Config* const shipped = std::end(configs) - 1;
  const i64 batch = cli.get_int("batch");
  const i64 iters = cli.get_int("iters");

  std::vector<Sample> samples;
  // Tracing-overhead A/B on the shipped configuration (filled in the loop).
  f64 obs_traced_s = 0.0;
  f64 obs_untraced_s = 0.0;
  for (const Config& config : configs) {
    Fixture f = make_fixture(cli.get("system"), cli);
    f.model->set_fusion(config.fusion);
    train::TrainOptions opts;
    opts.batch_size = batch;
    opts.seed = static_cast<u64>(cli.get_int("seed"));
    optim::KalmanConfig kcfg;
    kcfg.blocksize = cli.get_int("blocksize");
    kcfg.level = config.ekf;
    train::KalmanTrainer trainer(*f.model, kcfg, opts);

    std::span<const train::EnvPtr> all(f.train_envs);
    auto batch_span = all.subspan(0, static_cast<std::size_t>(batch));
    Rng group_rng(7);
    auto groups =
        train::make_force_groups(f.train_envs.front()->natoms, 4, group_rng);

    // One warm-up iteration (excluded) before the launch-count check.
    trainer.energy_update(batch_span);
    trainer.force_update(batch_span, groups[0]);

    // Launch counts are EXACT under concurrency (KernelCounter is atomic
    // and kernels record once per launch, never per worker chunk): the same
    // updates at width 1 and width N must count identically.
    {
      i64 count_1t = 0, count_nt = 0;
      {
        set_num_threads(1);
        KernelCountScope scope;
        trainer.energy_update(batch_span);
        trainer.force_update(batch_span, groups[1]);
        count_1t = scope.count();
      }
      {
        set_num_threads(4);
        KernelCountScope scope;
        trainer.energy_update(batch_span);
        trainer.force_update(batch_span, groups[1]);
        count_nt = scope.count();
      }
      set_num_threads(0);  // restore default width
      FEKF_CHECK(count_1t == count_nt,
                 "kernel-launch counts differ between 1 and 4 threads: " +
                     std::to_string(count_1t) + " vs " +
                     std::to_string(count_nt));
    }
    // More warm-up, until the arena stops growing. Samples are pool tasks
    // in the forward and in the backward, handed out dynamically, so each
    // thread's arena peaks at the largest share of samples it has drawn so
    // far; stop after kSteadyIters iterations in a row add no slab.
    constexpr i64 kSteadyIters = 3;
    constexpr i64 kMaxWarmupIters = 16;
    for (i64 it = 0, steady = 0;
         it < kMaxWarmupIters && steady < kSteadyIters; ++it) {
      const i64 reserved = Workspace::stats().reserved_bytes;
      trainer.energy_update(batch_span);
      trainer.force_update(batch_span,
                           groups[static_cast<std::size_t>(it % 4)]);
      steady = Workspace::stats().reserved_bytes == reserved ? steady + 1 : 0;
    }
    KernelCounter::reset();
    const auto launches_before = KernelCounter::breakdown();
    Workspace::reset_stats();
    const WorkspaceStats arena_before = Workspace::stats();

    // The phase split is the trainer's forward / gradient / kf_update
    // spans over exactly the measured iterations. The clock also restores
    // the recorder state the tracing A/B below toggles.
    const obs::SpanClock clock;
    Sample sample;
    for (i64 it = 0; it < iters; ++it) {
      {
        KernelCountScope scope;
        trainer.energy_update(batch_span);
        sample.energy_kernels += scope.count();
      }
      {
        KernelCountScope scope;
        trainer.force_update(batch_span,
                             groups[static_cast<std::size_t>(it % 4)]);
        sample.force_kernels += scope.count();
      }
    }
    const f64 n = static_cast<f64>(iters);
    sample.forward_s = clock.seconds("forward") / n;
    sample.gradient_s = clock.seconds("gradient") / n;
    sample.optimizer_s = clock.seconds("kf_update") / n;
    const WorkspaceStats arena_after = Workspace::stats();
    sample.arena_peak_scope_bytes = arena_after.peak_scope_bytes;
    sample.arena_allocs_per_iter =
        (arena_after.allocs - arena_before.allocs) / iters;
    sample.arena_retired_slabs =
        arena_after.retired_slabs - arena_before.retired_slabs;
    sample.arena_reserved_bytes = arena_after.reserved_bytes;
    sample.arena_reserved_growth =
        arena_after.reserved_bytes - arena_before.reserved_bytes;
    // Allocation budget: after the warm-up iterations the arena must be in
    // steady state — the same slabs serve every measured step (no growth)
    // and no tensor escapes its step scope (no retirement).
    if (Workspace::enabled()) {
      FEKF_CHECK(sample.arena_retired_slabs == 0,
                 std::string("arena retired ") +
                     std::to_string(sample.arena_retired_slabs) +
                     " slab(s) during measured iterations (config " +
                     config.name + "): a tensor escaped its step scope");
      FEKF_CHECK(sample.arena_reserved_growth == 0,
                 std::string("arena grew by ") +
                     std::to_string(sample.arena_reserved_growth) +
                     " bytes during measured iterations (config " +
                     config.name + "): warm-up did not reach steady state");
    }
    sample.energy_kernels /= iters;
    sample.force_kernels /= iters;

    // Per-op launch attribution for this config's measured iterations.
    auto launches_after = KernelCounter::breakdown();
    for (const auto& [name, count] : launches_before) {
      launches_after[name] -= count;
    }
    sample.top_kernels.assign(launches_after.begin(), launches_after.end());
    std::erase_if(sample.top_kernels,
                  [](const auto& kv) { return kv.second <= 0; });
    std::sort(sample.top_kernels.begin(), sample.top_kernels.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    // Tracing-overhead A/B (the shipped config only — the production step):
    // alternate untraced and traced passes of the same updates, flipping
    // which arm goes first in each rep, so host noise and warm-cache order
    // hit both arms equally; keep the best of each. The ratio is the "span
    // recording is always cheap" claim as a number; the "obs" section of
    // ci/budgets.json holds it to 1.05x. Min-of-5 per arm: on a loaded
    // 1-core CI host single passes wobble several percent, and the min is
    // the robust estimator of the noise-free pass.
    if (&config == shipped) {
      auto& recorder = obs::TraceRecorder::instance();
      constexpr int kReps = 5;
      obs_untraced_s = 1e300;
      obs_traced_s = 1e300;
      for (int rep = 0; rep < kReps; ++rep) {
        for (const bool traced : {rep % 2 == 1, rep % 2 == 0}) {
          recorder.set_enabled(traced);
          const auto t0 = std::chrono::steady_clock::now();
          trainer.energy_update(batch_span);
          trainer.force_update(batch_span, groups[rep % 4]);
          const f64 pass_s =
              std::chrono::duration<f64>(std::chrono::steady_clock::now() -
                                         t0)
                  .count();
          (traced ? obs_traced_s : obs_untraced_s) =
              std::min(traced ? obs_traced_s : obs_untraced_s, pass_s);
        }
      }
    }
    samples.push_back(sample);
    std::printf("  %-8s measured\n", config.name);
  }

  std::printf("\nFigure 7b reproduction: primitive-kernel launches per "
              "update (%s, batch %lld)\n",
              cli.get("system").c_str(), static_cast<long long>(batch));
  Table tb({"config", "energy-update kernels", "force-update kernels",
            "step total (1E + 4F)"});
  for (std::size_t c = 0; c < samples.size(); ++c) {
    const Sample& s = samples[c];
    tb.add_row({configs[c].name, std::to_string(s.energy_kernels),
                std::to_string(s.force_kernels),
                std::to_string(s.step_kernels())});
  }
  tb.print();
  const Sample& baseline = samples.front();
  const Sample& opt3 = samples[3];
  const Sample& fused = samples.back();
  std::printf("kernel reduction baseline -> opt3: %.0f%% (paper: 64%%, "
              "3781 -> 1298)\n",
              100.0 * (1.0 - static_cast<f64>(opt3.step_kernels()) /
                                 static_cast<f64>(baseline.step_kernels())));
  std::printf("kernel reduction baseline -> fused: %.0f%% (%lld -> %lld "
              "launches per step)\n",
              100.0 * (1.0 - static_cast<f64>(fused.step_kernels()) /
                                 static_cast<f64>(baseline.step_kernels())),
              static_cast<long long>(baseline.step_kernels()),
              static_cast<long long>(fused.step_kernels()));

  // Launch budget (CI gate): the fused configuration must keep at least a
  // 2x launch reduction over the framework-style baseline AND strictly
  // improve on opt3 — a regression in either fails the bench loudly.
  FEKF_CHECK(2 * fused.step_kernels() <= baseline.step_kernels(),
             "launch budget violated: fused step issues " +
                 std::to_string(fused.step_kernels()) +
                 " launches, more than half of baseline's " +
                 std::to_string(baseline.step_kernels()));
  FEKF_CHECK(fused.step_kernels() < opt3.step_kernels(),
             "launch budget violated: fused step (" +
                 std::to_string(fused.step_kernels()) +
                 " launches) does not improve on opt3 (" +
                 std::to_string(opt3.step_kernels()) + ")");

  std::printf("\nTop launch contributors per config (launches per measured "
              "iteration, 1E + 1F):\n");
  for (std::size_t c = 0; c < samples.size(); ++c) {
    std::printf("  %-8s", configs[c].name);
    const auto& top = samples[c].top_kernels;
    const std::size_t shown = std::min<std::size_t>(top.size(), 6);
    for (std::size_t k = 0; k < shown; ++k) {
      std::printf("%s %s:%lld", k == 0 ? "" : ",", top[k].first.c_str(),
                  static_cast<long long>(top[k].second / iters));
    }
    if (top.size() > shown) {
      std::printf(", +%zu more", top.size() - shown);
    }
    std::printf("\n");
  }

  std::printf("\nFigure 7c reproduction: iteration time split "
              "(forward / gradient / KF update spans), seconds per "
              "iteration\n");
  Table tc({"config", "forward", "gradient", "KF update", "total",
            "speedup vs baseline"});
  const f64 base_total = samples.front().forward_s +
                         samples.front().gradient_s +
                         samples.front().optimizer_s;
  for (std::size_t c = 0; c < samples.size(); ++c) {
    const Sample& s = samples[c];
    const f64 total = s.forward_s + s.gradient_s + s.optimizer_s;
    tc.add_row({configs[c].name, fmt("%.3f", s.forward_s),
                fmt("%.3f", s.gradient_s), fmt("%.3f", s.optimizer_s),
                fmt("%.3f", total), fmt("%.2fx", base_total / total)});
  }
  tc.print();

  if (Workspace::enabled()) {
    std::printf("\nArena (workspace) allocator, measured iterations "
                "(steady state asserted: no growth, no retirement):\n");
    Table ta({"config", "peak scope KiB", "allocs/iter", "reserved KiB",
              "retired slabs"});
    for (std::size_t c = 0; c < samples.size(); ++c) {
      const Sample& s = samples[c];
      ta.add_row({configs[c].name,
                  std::to_string(s.arena_peak_scope_bytes / 1024),
                  std::to_string(s.arena_allocs_per_iter),
                  std::to_string(s.arena_reserved_bytes / 1024),
                  std::to_string(s.arena_retired_slabs)});
    }
    ta.print();
  } else {
    std::printf("\nArena disabled (FEKF_ARENA=0): temporaries on the heap, "
                "allocation budgets not applicable.\n");
  }
  std::printf("\nPaper shape: launches drop sharply at opt1 (fused "
              "descriptor derivatives) and the iteration accelerates "
              "step-by-step (paper total: 3.48x on the A100).\n");

  const f64 traced_over_untraced =
      obs_untraced_s > 0.0 ? obs_traced_s / obs_untraced_s : 0.0;
  std::printf("\nTracing overhead (fused step, best of 5 alternating "
              "passes): untraced %.3fs, traced %.3fs, ratio %.3fx "
              "(budget: obs.max_traced_over_untraced)\n",
              obs_untraced_s, obs_traced_s, traced_over_untraced);

  // Per-variant dispatch micro table (DESIGN.md §13). Rows are keyed
  // "dispatch.<kernel>.<variant>" in ci/budgets.json, and docs/KERNELS.md
  // mirrors this table — ci/check_budgets.py --kernels-doc flags drift.
  const auto dispatch_sections =
      run_dispatch_micro(static_cast<u64>(cli.get_int("seed")));
  const char* backend = dp::backend_name(dp::backend());
  std::printf("\nKernel-dispatch variants (backend=%s, compiled isa: %s); "
              "single-thread body timings, best pass; speedup = median "
              "of 5 alternating pairs against scalar:\n",
              backend, dp::kCompiledIsa);
  Table td({"kernel", "shape", "variant", "isa", "s/call", "speedup",
            "selected"});
  for (const DispatchSection& sec : dispatch_sections) {
    for (const VariantRow& row : sec.rows) {
      td.add_row({sec.kernel, sec.shape, row.name, row.isa,
                  fmt("%.3e", row.s_per_call), fmt("%.2fx", row.speedup),
                  row.selected ? "<=" : ""});
    }
  }
  td.print();
  for (const DispatchSection& sec : dispatch_sections) {
    std::printf("  %-18s best variant speedup vs scalar: %.2fx\n",
                sec.kernel.c_str(), sec.best_speedup());
  }

  const std::string json_path = cli.get("json");
  std::string json = "{\n  \"bench\": \"fig7bc_kernels\",\n";
  json += "  \"system\": \"" + cli.get("system") + "\",\n";
  json += "  \"batch\": " + std::to_string(batch) + ",\n";
  json += "  \"iters\": " + std::to_string(iters) + ",\n";
  json += "  \"threads\": " + std::to_string(num_threads()) + ",\n";
  json += "  \"arena_enabled\": ";
  json += Workspace::enabled() ? "true" : "false";
  json += ",\n  \"configs\": [\n";
  for (std::size_t c = 0; c < samples.size(); ++c) {
    const Sample& s = samples[c];
    json += "    {\"name\": \"" + std::string(configs[c].name) + "\", ";
    json += "\"energy_kernels\": " + std::to_string(s.energy_kernels) + ", ";
    json += "\"force_kernels\": " + std::to_string(s.force_kernels) + ", ";
    json += "\"step_kernels\": " + std::to_string(s.step_kernels()) + ", ";
    json += "\"forward_s\": " + fmt("%.6f", s.forward_s) + ", ";
    json += "\"gradient_s\": " + fmt("%.6f", s.gradient_s) + ", ";
    json += "\"optimizer_s\": " + fmt("%.6f", s.optimizer_s) + ", ";
    json += "\"total_s\": " +
            fmt("%.6f", s.forward_s + s.gradient_s + s.optimizer_s) + ", ";
    json += "\"arena_peak_scope_bytes\": " +
            std::to_string(s.arena_peak_scope_bytes) + ", ";
    json += "\"arena_allocs_per_iter\": " +
            std::to_string(s.arena_allocs_per_iter) + ", ";
    json += "\"arena_reserved_bytes\": " +
            std::to_string(s.arena_reserved_bytes) + ", ";
    json += "\"arena_retired_slabs\": " +
            std::to_string(s.arena_retired_slabs) + "}";
    json += c + 1 < samples.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"obs\": {\"untraced_total_s\": " + fmt("%.6f", obs_untraced_s) +
          ", \"traced_total_s\": " + fmt("%.6f", obs_traced_s) +
          ", \"traced_over_untraced\": " + fmt("%.4f", traced_over_untraced) +
          "},\n";
  json += "  \"dispatch\": {\n";
  json += "    \"backend\": \"" + std::string(backend) + "\",\n";
  json += "    \"compiled_isa\": \"" + std::string(dp::kCompiledIsa) +
          "\",\n    \"kernels\": [\n";
  for (std::size_t s = 0; s < dispatch_sections.size(); ++s) {
    const DispatchSection& sec = dispatch_sections[s];
    json += "      {\"kernel\": \"" + sec.kernel + "\", \"shape\": \"" +
            sec.shape + "\", \"best_speedup\": " +
            fmt("%.3f", sec.best_speedup()) + ", \"variants\": [\n";
    for (std::size_t r = 0; r < sec.rows.size(); ++r) {
      const VariantRow& row = sec.rows[r];
      // Every compiled entry runs on any CPU the binary starts on.
      json += "        {\"name\": \"" + row.name + "\", \"isa\": \"" +
              row.isa + "\", \"eligible\": true, \"selected\": " +
              (row.selected ? "true" : "false") +
              ", \"s_per_call\": " + fmt("%.6e", row.s_per_call) +
              ", \"speedup_vs_scalar\": " + fmt("%.3f", row.speedup) + "}";
      json += r + 1 < sec.rows.size() ? ",\n" : "\n";
    }
    json += "      ]}";
    json += s + 1 < dispatch_sections.size() ? ",\n" : "\n";
  }
  json += "    ]\n  }\n}\n";
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    FEKF_CHECK(f != nullptr, "cannot open --json file " + json_path);
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nJSON summary written to %s\n", json_path.c_str());
  }
  return 0;
}

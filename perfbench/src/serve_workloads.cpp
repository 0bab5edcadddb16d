// The serving workload (open-loop load through a BatchingEvaluator on a
// published ModelRegistry) and the serving-layer probes every traced run
// makes.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "core/rng.hpp"
#include "data/dataset.hpp"
#include "serve/batching.hpp"
#include "serve/registry.hpp"
#include "tensor/kernel_counter.hpp"

namespace fekf::perfbench {

namespace {

constexpr i64 kSetupReps = 3;
/// Every k-th request is re-evaluated through serve::evaluate_with and must
/// match the batched result bit for bit (the documented `auto` contract).
constexpr i64 kCheckEvery = 32;
/// Batch at which launches per request are counted.
constexpr std::size_t kCountBatch = 8;

/// The library defaults (max batch 16, 200 us wait, one worker) rather than
/// BatchingConfig::from_env(), so no FEKF_SERVE_* variable changes the
/// workload.
serve::BatchingConfig batching_config() { return serve::BatchingConfig{}; }

std::chrono::steady_clock::time_point to_time_point(f64 seconds) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<f64>(seconds)));
}

bool same_result(const serve::EvalResult& a, const serve::EvalResult& b) {
  if (!bitwise_equal(a.energy, b.energy) || a.forces.size() != b.forces.size())
    return false;
  for (std::size_t i = 0; i < a.forces.size(); ++i) {
    if (!bitwise_equal(a.forces[i].x, b.forces[i].x) ||
        !bitwise_equal(a.forces[i].y, b.forces[i].y) ||
        !bitwise_equal(a.forces[i].z, b.forces[i].z))
      return false;
  }
  return true;
}

}  // namespace

LoadResult open_loop(serve::BatchingEvaluator& evaluator,
                     const std::vector<md::Snapshot>& cells, f64 rate,
                     f64 window_s, u64 seed) {
  LoadResult out;

  struct InFlight {
    i64 index = 0;
    f64 due = 0.0;
    std::future<serve::EvalResult> result;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<InFlight> in_flight;
  bool generating = true;
  f64 last_done = 0.0;

  // Completion side: futures resolve in FIFO batch order (one worker), so
  // waiting on them in submission order stamps each completion when it
  // happens, not when a later one does.
  std::thread collector([&] {
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !in_flight.empty() || !generating; });
        if (in_flight.empty()) return;
        item = std::move(in_flight.front());
        in_flight.pop_front();
      }
      try {
        serve::EvalResult r = item.result.get();
        const f64 done = now_s();
        last_done = done;
        out.latency_ms.push_back(1e3 * (done - item.due));
        out.queue_ms.push_back(1e3 * r.queue_seconds);
        out.batch_eval_ms.push_back(1e3 * r.eval_seconds);
        out.batch_size.push_back(static_cast<f64>(r.batch_size));
        if (item.index % kCheckEvery == 0) {
          out.samples.push_back({item.index, std::move(r)});
        }
        ++out.ok;
      } catch (const std::exception&) {
        ++out.failed;
      }
    }
  });

  // Ends the collector on every path out of this function, exceptions too.
  struct Joiner {
    std::thread& thread;
    std::mutex& mutex;
    std::condition_variable& cv;
    bool& generating;
    ~Joiner() {
      {
        std::lock_guard<std::mutex> lock(mutex);
        generating = false;
      }
      cv.notify_one();
      thread.join();
    }
  };
  i64 refused = 0;  // submit() threw; counted here, not by the collector
  f64 last_due = 0.0;
  {
    Joiner joiner{collector, mutex, cv, generating};
    Rng rng(seed);
    const f64 start = now_s() + 1e-3;
    f64 due = start;
    for (i64 i = 0;; ++i) {
      due += -std::log(1.0 - rng.uniform()) / rate;
      if (due - start >= window_s) break;
      serve::EvalRequest request;
      request.snapshot = cells[static_cast<std::size_t>(i) % cells.size()];
      request.with_forces = true;
      std::this_thread::sleep_until(to_time_point(due));
      const f64 t0 = now_s();
      out.late_ms.push_back(1e3 * (t0 - due));
      ++out.sent;
      last_due = due;
      try {
        std::future<serve::EvalResult> result =
            evaluator.submit(std::move(request));
        out.submit_us.push_back(1e6 * (now_s() - t0));
        std::lock_guard<std::mutex> lock(mutex);
        in_flight.push_back({i, due, std::move(result)});
      } catch (const std::exception&) {
        ++refused;
        continue;
      }
      cv.notify_one();
    }
  }
  out.failed += refused;
  out.drain_s = std::max(0.0, last_done - last_due);
  return out;
}

void append(LoadResult& into, const LoadResult& from) {
  auto extend = [](std::vector<f64>& a, const std::vector<f64>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  into.sent += from.sent;
  into.ok += from.ok;
  into.failed += from.failed;
  extend(into.latency_ms, from.latency_ms);
  extend(into.late_ms, from.late_ms);
  extend(into.submit_us, from.submit_us);
  extend(into.queue_ms, from.queue_ms);
  extend(into.batch_eval_ms, from.batch_eval_ms);
  extend(into.batch_size, from.batch_size);
}

i64 check_samples(const LoadResult& load, const serve::ModelRegistry& registry,
                  const std::vector<md::Snapshot>& cells) {
  i64 mismatches = 0;
  for (const LoadResult::Sample& s : load.samples) {
    serve::EvalRequest request;
    request.snapshot = cells[static_cast<std::size_t>(s.index) % cells.size()];
    request.with_forces = true;
    const serve::ModelSnapshot* snap = registry.version(s.result.model_version);
    if (snap == nullptr ||
        !same_result(serve::evaluate_with(*snap->model, request), s.result))
      ++mismatches;
  }
  return mismatches;
}

void add_queue_metrics(const LoadResult& load, Report& report) {
  report.add("serve.submit_us", median(load.submit_us), "us");
  report.add("serve.queue_wait_p50_ms", percentile(load.queue_ms, 0.5), "ms");
  report.add("serve.queue_wait_p99_ms", percentile(load.queue_ms, 0.99), "ms");
  report.add("serve.batch_size_mean", mean(load.batch_size), "requests");
  report.add("serve.batch_eval_ms", median(load.batch_eval_ms), "ms");
  report.add("loadgen.late_p99_ms", percentile(load.late_ms, 0.99), "ms");
}

void trace_serve_calls(const deepmd::DeepmdModel& model,
                       const std::vector<md::Snapshot>& cells, i64 batch,
                       Report& report) {
  batch = std::clamp<i64>(batch, 1, static_cast<i64>(cells.size()));
  std::vector<f64> prepare_ms;
  std::vector<std::shared_ptr<const deepmd::EnvData>> envs;
  for (const md::Snapshot& cell : cells) {
    const f64 t0 = now_s();
    envs.push_back(model.prepare(cell));
    prepare_ms.push_back(1e3 * (now_s() - t0));
  }
  report.add("deepmd.prepare_ms", median(prepare_ms), "ms");

  std::vector<f64> eval_ms;
  for (std::size_t first = 0;
       first + static_cast<std::size_t>(batch) <= envs.size();
       first += static_cast<std::size_t>(batch)) {
    const f64 t0 = now_s();
    (void)serve::evaluate_prepared(
        model, {envs.data() + first, static_cast<std::size_t>(batch)},
        /*with_forces=*/true);
    eval_ms.push_back(1e3 * (now_s() - t0));
  }
  report.add("serve.evaluate_prepared_ms", median(eval_ms), "ms");
  report.add("serve.evaluate_batch", static_cast<f64>(batch), "requests");
  // Counted at a fixed batch so the figure repeats exactly across runs.
  const std::size_t counted = std::min<std::size_t>(kCountBatch, envs.size());
  KernelCountScope count;
  (void)serve::evaluate_prepared(model, {envs.data(), counted},
                                 /*with_forces=*/true);
  report.add("tensor.launches_per_request",
             static_cast<f64>(count.count()) / static_cast<f64>(counted),
             "count");

  serve::ModelRegistry registry;
  std::vector<f64> publish_ms;
  for (int i = 0; i < 5; ++i) {
    const f64 t0 = now_s();
    registry.publish_copy(model, i);
    publish_ms.push_back(1e3 * (now_s() - t0));
  }
  report.add("serve.publish_ms", median(publish_ms), "ms");
}

void trace_serve_layers(const deepmd::DeepmdModel& model,
                        const std::vector<md::Snapshot>& cells, u64 seed,
                        Report& report) {
  // A short open-loop burst at half the single-request capacity the direct
  // path shows (median of five requests), so the queue metrics exist for a
  // model that is not served by the workload itself.
  serve::EvalRequest probe;
  probe.snapshot = cells.front();
  std::vector<f64> single_s;
  for (int i = 0; i < 6; ++i) {
    const f64 t0 = now_s();
    (void)serve::evaluate_with(model, probe);
    if (i > 0) single_s.push_back(now_s() - t0);  // the first one warms up
  }
  const f64 rate = 0.5 / std::max(1e-4, median(single_s));
  serve::ModelRegistry registry;
  registry.publish_copy(model, 0);
  std::unique_ptr<serve::BatchingEvaluator> evaluator;
  start_apart([&] {
    evaluator = std::make_unique<serve::BatchingEvaluator>(registry,
                                                           batching_config());
  });
  const LoadResult load =
      open_loop(*evaluator, cells, rate, 64.0 / rate, seed);
  evaluator->shutdown();
  add_queue_metrics(load, report);
  trace_serve_calls(model, cells,
                    static_cast<i64>(std::lround(mean(load.batch_size))),
                    report);
}

// ---------------------------------------------------------------------------
// serve_cu32
// ---------------------------------------------------------------------------

namespace {

/// Open-loop Poisson rates, fixed so every commit sees the same offered
/// load. They bracket the p99-limited capacity of 32-atom cells.
constexpr f64 kLadder[] = {300, 500, 700, 900, 1100, 1300};
/// Light load: batches stay small, so p50 here is the latency of one pass.
constexpr f64 kReferenceRate = 300;
constexpr f64 kP99LimitMs = 25.0;

/// Requests the saturation leg keeps queued: enough for full batches.
constexpr i64 kSaturationDepth = 64;

struct ServeFixture {
  std::unique_ptr<deepmd::DeepmdModel> model;
  data::Dataset dataset;
  std::vector<md::Snapshot> cells;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::BatchingEvaluator> evaluator;
};

/// Closed-loop saturation: keep kSaturationDepth requests queued for
/// `window_s` and count completions per steal-free second (see Clock).
/// Unlike the p99-limited ladder rate it does not hinge on rare stalls.
f64 saturated_rps(serve::BatchingEvaluator& evaluator,
                  const std::vector<md::Snapshot>& cells, f64 window_s,
                  i64& sent, i64& failed) {
  std::deque<std::future<serve::EvalResult>> in_flight;
  i64 done = 0;
  const Clock start = Clock::now();
  f64 end_s = start.wall;
  for (std::size_t i = 0; end_s - start.wall < window_s; ++i) {
    if (static_cast<i64>(in_flight.size()) == kSaturationDepth) {
      try {
        (void)in_flight.front().get();
        ++done;
      } catch (const std::exception&) {
        ++failed;
      }
      in_flight.pop_front();
      end_s = now_s();
    }
    serve::EvalRequest request;
    request.snapshot = cells[i % cells.size()];
    request.with_forces = true;
    ++sent;
    in_flight.push_back(evaluator.submit(std::move(request)));
  }
  const Clock end = Clock::now();
  for (auto& f : in_flight) {
    try {
      (void)f.get();
    } catch (const std::exception&) {
      ++failed;
    }
  }
  return static_cast<f64>(done) / steady_s(start, end);
}

}  // namespace

void run_serve_cu32(const Args& args, Report& report) {
  ServeFixture fx;
  SetupTimes times;
  const f64 setup_s = median_setup_s(kSetupReps, [&] {
    fx = ServeFixture{};
    const Clock t0 = Clock::now();
    fx.dataset = build_cu_dataset(1, 1, args.seed, times);
    // Compact exploration potential: a short cutoff and a small neighbor
    // budget, so the fixed per-pass cost rivals the row math and batching
    // matters (see bench/bench_serving.cpp).
    deepmd::ModelConfig cfg = bench_width_config();
    cfg.sel = {8};
    cfg.rcut = 3.0;
    cfg.rcut_smth = 1.5;
    fx.model = std::make_unique<deepmd::DeepmdModel>(cfg, 1);
    const f64 t1 = now_s();
    fx.model->fit_stats(fx.dataset.train);
    times.fit_stats_s.push_back(now_s() - t1);
    fx.cells = walker_cells(2, 64, args.seed);
    fx.registry = std::make_unique<serve::ModelRegistry>();
    fx.registry->publish_copy(*fx.model, 0);
    start_apart([&] {
      fx.evaluator = std::make_unique<serve::BatchingEvaluator>(
          *fx.registry, batching_config());
    });
    return steady_s(t0, Clock::now());
  });

  // Warm the worker, its arenas and the pool before the first rung.
  (void)open_loop(*fx.evaluator, fx.cells, kReferenceRate,
                  0.2 / static_cast<f64>(args.tiny), args.seed ^ 0x77);

  // One round per ladder rung. A round runs a saturation burst and a
  // reference-rate slice before and after its rung, so the gated figures
  // are medians over twelve short windows spread across the whole run: on a
  // shared host the speed of the core the worker lands on drifts by 20% and
  // more over seconds.
  const i64 rungs = static_cast<i64>(std::size(kLadder));
  const f64 round_s =
      args.seconds / static_cast<f64>(rungs) / static_cast<f64>(args.tiny);
  const f64 rung_s = round_s / 2.0;
  const f64 leg_s = round_s / 8.0;
  const f64 cpu0 = process_cpu_s();
  const f64 wall0 = now_s();
  i64 sat_sent = 0, sat_failed = 0;
  std::vector<f64> sat_bursts, reference_p50s;
  std::vector<LoadResult> loads;  // reference slices and ladder rungs
  LoadResult reference;           // every reference slice, pooled
  auto measure_legs = [&] {
    sat_bursts.push_back(
        saturated_rps(*fx.evaluator, fx.cells, leg_s, sat_sent, sat_failed));
    loads.push_back(open_loop(*fx.evaluator, fx.cells, kReferenceRate, leg_s,
                              args.seed ^ (0x5eedULL + loads.size())));
    const LoadResult& slice = loads.back();
    reference_p50s.push_back(percentile(slice.latency_ms, 0.5));
    append(reference, slice);
  };
  f64 max_rps = 0.0, last_p99 = 0.0;
  bool over_limit = false;
  // Peak RSS through set-up and the first round's saturation bursts (full
  // batches, bounded queue), reference slices and 300 req/s rung. Higher
  // rungs are left out: over capacity the queue holds a backlog whose size
  // depends on how far over it is.
  f64 rss_mb = 0.0;
  for (i64 k = 0; k < rungs; ++k) {
    const f64 rate = kLadder[k];
    measure_legs();
    loads.push_back(open_loop(*fx.evaluator, fx.cells, rate, rung_s,
                              args.seed + static_cast<u64>(k)));
    const LoadResult& load = loads.back();
    const f64 p99 = percentile(load.latency_ms, 0.99);
    const bool backlog = load.drain_s * 1e3 > kP99LimitMs;
    const bool ok = load.failed == 0 && p99 <= kP99LimitMs && !backlog;
    std::printf(
        "rate %6.0f req/s: sent %lld ok %lld failed %lld p50 %.3f ms p99 "
        "%.3f ms late_p99 %.3f ms drain %.1f ms %s\n",
        rate, static_cast<long long>(load.sent),
        static_cast<long long>(load.ok), static_cast<long long>(load.failed),
        percentile(load.latency_ms, 0.5), p99,
        percentile(load.late_ms, 0.99), 1e3 * load.drain_s,
        ok ? "within limit" : "over limit");
    measure_legs();
    if (k == 0) rss_mb = peak_rss_mb();
    if (over_limit) continue;
    if (ok) {
      max_rps = rate;
      last_p99 = p99;
    } else {
      over_limit = true;
      // Interpolate toward the first rung over the limit, so the figure
      // moves continuously with capacity instead of in ladder steps.
      if (k > 0 && p99 > last_p99) {
        const f64 frac = (kP99LimitMs - last_p99) / (p99 - last_p99);
        max_rps += (rate - kLadder[k - 1]) * std::clamp(frac, 0.0, 1.0);
      }
    }
  }
  const f64 sat_rps = median(sat_bursts);
  const f64 p50 = median(reference_p50s);
  std::printf(
      "saturation: %lld requests, median of %zu bursts %.1f req/s\n"
      "reference %.0f req/s: sent %lld ok %lld failed %lld, median of %zu "
      "slice p50s %.3f ms, late_p99 %.3f ms\n",
      static_cast<long long>(sat_sent), sat_bursts.size(), sat_rps,
      kReferenceRate, static_cast<long long>(reference.sent),
      static_cast<long long>(reference.ok),
      static_cast<long long>(reference.failed), reference_p50s.size(), p50,
      percentile(reference.late_ms, 0.99));
  const f64 busy_s = now_s() - wall0;
  const f64 cpu_s = process_cpu_s() - cpu0;
  fx.evaluator->shutdown();

  i64 sent = sat_sent, failed = sat_failed, mismatches = 0;
  for (const LoadResult& load : loads) {
    sent += load.sent;
    failed += load.failed;
    mismatches += check_samples(load, *fx.registry, fx.cells);
  }
  if (mismatches > 0) {
    report.fail(std::to_string(mismatches) +
                " sampled batched results differ from evaluate_with");
  }
  report.attempted = sent;
  report.failed = failed + mismatches;

  const Tail tail = highest_supported_tail(reference.latency_ms);
  report.add("setup_s", setup_s, "s");
  report.add("work_rate_per_s", sat_rps, "1/s");
  report.add("p50_ms", p50, "ms");
  report.add("peak_rss_mb", rss_mb, "MB");
  report.add("serve_tail_ms", tail.value, "ms");
  report.add("serve_tail_percentile", 100.0 * tail.p, "%");
  report.add("serve_max_rps", max_rps, "req/s");
  report.add("failed_frac",
             static_cast<f64>(report.failed) /
                 static_cast<f64>(std::max<i64>(1, report.attempted)),
             "fraction");
  if (!args.trace) return;

  add_setup_layer_metrics(times, report);
  add_queue_metrics(reference, report);
  report.add("parallel.cpu_util", cpu_s / busy_s, "cores");
  trace_serve_calls(*fx.model, fx.cells,
                    static_cast<i64>(std::lround(mean(reference.batch_size))),
                    report);
  trace_train_steps(*fx.model, fx.dataset, 8, args, report);
  trace_train_layers(*fx.model, fx.dataset, 8, args, report);
  add_unattributed(report);
}

}  // namespace fekf::perfbench

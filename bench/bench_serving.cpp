// Serving harness (DESIGN.md §14): what does batched concurrent inference
// buy over one-at-a-time evaluation, and does publishing stay cheap while
// readers hammer the registry?
//
// Four scenarios over one published model:
//
//   serial   — the full request stream evaluated one request at a time
//              through the direct path (the unbatched single-walker
//              baseline every MD loop starts from)
//   batched  — the same stream issued by --walkers concurrent walker
//              threads through a BatchingEvaluator, in 5 alternating
//              pairs with the unbatched concurrent_direct leg; reports
//              throughput, per-request latency percentiles, and mean batch
//              occupancy
//   publish  — ModelRegistry::publish_copy latency idle vs under
//              --walkers polling readers; the loaded/idle ratio is the
//              "publishing never blocks on readers" claim as a number,
//              and serve.publish_stalls must stay 0
//   mixed    — pinned-to-v1 and serve-latest requests with deadlines in
//              one queue, against a registry that keeps publishing
//
// The gated quantities (ci/budgets.json "serving"): launch_amortization
// (kernel launches per request, serial over batched — the deterministic
// Fig-7(b)-style amortization number, exact on any host), batched_speedup
// (median of the per-pair A/B ratios), occupancy_mean, publish_stalls,
// loaded_over_idle, p99 latency. The wall-clock ones carry loose
// TIME-style slack on a contended host; the structural ones (launch
// ratio, stalls = 0, pinned_ok = 1) are exact.
//
// Emits a JSON document (stdout, and --json FILE if given) so
// run_benches.sh can archive it as bench_artifacts/serving.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "md/lattice.hpp"
#include "obs/metrics.hpp"
#include "serve/batching.hpp"
#include "serve/registry.hpp"
#include "tensor/kernel_counter.hpp"

using namespace fekf;
using namespace fekf::bench;

namespace {

f64 now_seconds() {
  return std::chrono::duration<f64>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

f64 percentile(std::vector<f64> values, f64 p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<f64>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

struct StreamResult {
  i64 requests = 0;
  f64 total_s = 0.0;
  f64 throughput_rps = 0.0;
  f64 p50_latency_s = 0.0;
  f64 p99_latency_s = 0.0;
  i64 batches = 0;
  f64 occupancy_mean = 0.0;
};

/// Interpolated histogram quantiles for one request-level SLO surface.
struct Slo {
  f64 p50_s = 0.0;
  f64 p90_s = 0.0;
  f64 p99_s = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_serving",
          "Model-serving harness: batched concurrent inference vs the "
          "unbatched single-walker baseline, publish latency under reader "
          "load, and mixed pin/latest freshness (JSON output)");
  add_common_flags(cli);
  cli.flag("system", "Cu", "catalog system")
      .flag("walkers", "64", "concurrent MD-walker threads")
      .flag("requests", "64",
            "requests per walker per leg (64 makes each concurrent leg "
            "last a few hundred ms)")
      .flag("max_batch", "32", "BatchingEvaluator max batch")
      .flag("max_wait_us", "500", "BatchingEvaluator max wait (us)")
      .flag("publishes", "12", "publishes per publish-latency leg")
      .flag("forces", "1", "request forces (0 = energy-only walkers)")
      .flag("walker_cells", "1",
            "walker exploration cell size (NxNxN FCC cells; 0 = serve the "
            "full dataset snapshots instead)")
      .flag("sel", "8",
            "neighbor budget per type for the served model (0 = size from "
            "data like training does)")
      .flag("rcut", "3.0",
            "serving cutoff radius in Å (0 = the training default); "
            "exploration potentials keep it short, see the fixture comment")
      .flag("json", "", "also write the JSON document to this file");
  if (!cli.parse(argc, argv)) return 0;

  // Counters/histograms (occupancy, publish stalls) record only while
  // metrics are on; this bench reads them back in-process.
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();

  const i64 walkers = cli.get_int("walkers");
  const i64 per_walker = cli.get_int("requests");
  const i64 total_requests = walkers * per_walker;

  // Serving fixture. Unlike the training benches this one takes an
  // explicit --sel: online-learning walkers serve COMPACT exploration
  // potentials (DP-GEN style), and sel is what sets the per-request row
  // count (env rows are padded to natoms x sel). With the data-sized sel
  // (~87 for Cu) every request is compute-bound and one core pins the
  // aggregate throughput regardless of batching; with a compact budget
  // the fixed per-pass cost (graph build, kernel launches, backward
  // traversal) rivals the row math, which is the regime batching exists
  // for. fit_stats honours config.sel when set and only sizes from data
  // when it is empty.
  Fixture fixture;
  fixture.system = cli.get("system");
  {
    const data::SystemSpec& spec = data::get_system(fixture.system);
    data::DatasetConfig dcfg;
    const i64 ntemps = static_cast<i64>(spec.temperatures.size());
    dcfg.train_per_temperature =
        std::max<i64>(1, cli.get_int("train") / ntemps);
    dcfg.test_per_temperature =
        std::max<i64>(1, cli.get_int("test") / ntemps);
    dcfg.seed = static_cast<u64>(cli.get_int("seed"));
    fixture.dataset = data::build_dataset(spec, dcfg);
    deepmd::ModelConfig cfg = model_config_from(cli);
    if (cli.get_int("sel") > 0) {
      cfg.sel.assign(static_cast<std::size_t>(spec.num_types()),
                     cli.get_int("sel"));
    }
    // Short serving cutoff for the same reason as the compact sel: the
    // per-request cost of an exploration potential scales with the
    // neighbor volume, and a 3 Å first-shell cutoff is the DP-GEN-style
    // screening regime. The training default (6 Å) stays available via
    // --rcut 0.
    if (cli.get_double("rcut") > 0.0) {
      cfg.rcut = cli.get_double("rcut");
      cfg.rcut_smth = 0.5 * cfg.rcut;
    }
    fixture.model = std::make_unique<deepmd::DeepmdModel>(
        cfg, spec.num_types());
    fixture.model->fit_stats(fixture.dataset.train);
  }

  // Walker exploration cells. Online-learning walkers probe SMALL unit
  // cells (DP-GEN style), which is the launch-bound regime the paper
  // targets: per-request graph/launch overhead rivals the per-atom math,
  // and the batched pass amortizes it. --walker_cells 0 serves the full
  // dataset snapshots instead (the compute-bound regime, where one core
  // pins the aggregate throughput near 1x regardless of batching).
  std::vector<md::Snapshot> snaps;
  const i64 cells = cli.get_int("walker_cells");
  if (cells > 0) {
    const f64 lattice_a = fixture.system == "Cu"   ? 3.615
                          : fixture.system == "Al" ? 4.05
                                                   : 0.0;
    FEKF_CHECK(lattice_a > 0.0,
               "--walker_cells needs a single-type FCC system (Cu or Al); "
               "use --walker_cells 0 for " + fixture.system);
    Rng rng(static_cast<u64>(cli.get_int("seed")));
    const md::Structure st = md::make_fcc(
        lattice_a, static_cast<i32>(cells), static_cast<i32>(cells),
        static_cast<i32>(cells));
    for (i64 i = 0; i < 16; ++i) {
      md::Snapshot snap;
      snap.cell = st.cell;
      snap.types = st.types;
      snap.positions = st.positions;
      for (md::Vec3& p : snap.positions) {  // thermal-scale jitter
        p.x += 0.02 * lattice_a * rng.gaussian();
        p.y += 0.02 * lattice_a * rng.gaussian();
        p.z += 0.02 * lattice_a * rng.gaussian();
      }
      snaps.push_back(std::move(snap));
    }
  } else {
    snaps = fixture.dataset.test;
  }
  FEKF_CHECK(!snaps.empty(), "no walker snapshots");
  const i64 walker_natoms = snaps.front().natoms();

  serve::ModelRegistry registry;
  registry.publish_copy(*fixture.model, /*source_step=*/0);

  std::printf(
      "Serving: %s, %lld-atom walker cells, %lld walkers x %lld requests, "
      "max batch %lld\n\n",
      fixture.system.c_str(), static_cast<long long>(walker_natoms),
      static_cast<long long>(walkers), static_cast<long long>(per_walker),
      static_cast<long long>(cli.get_int("max_batch")));

  auto request_for = [&](i64 walker, i64 k) {
    serve::EvalRequest req;
    req.snapshot = snaps[static_cast<std::size_t>(walker + k) % snaps.size()];
    req.with_forces = cli.get_int("forces") != 0;
    return req;
  };

  // Warm caches/pool once so neither leg pays first-touch costs.
  (void)serve::evaluate_with(*fixture.model, request_for(0, 0));

  // --- serial: the unbatched single-walker baseline -----------------------
  // Both single-threaded legs run inside a KernelCountScope: launches per
  // request is the deterministic amortization quantity (paper Fig. 7(b) —
  // kernel launches per FEKF step), independent of host contention.
  StreamResult serial;
  serial.requests = total_requests;
  i64 serial_launches = 0;
  {
    KernelCountScope launches;
    const f64 t0 = now_seconds();
    for (i64 w = 0; w < walkers; ++w) {
      for (i64 k = 0; k < per_walker; ++k) {
        (void)serve::evaluate_with(*fixture.model, request_for(w, k));
      }
    }
    serial.total_s = now_seconds() - t0;
    serial.throughput_rps =
        static_cast<f64>(serial.requests) / serial.total_s;
    serial_launches = launches.count();
  }

  // --- batched_inline: pure amortization, no queue or threads -------------
  // The same request stream grouped into max_batch-wide shared passes on
  // the main thread. The gap between this row and `serial` is the launch
  // amortization itself; the gap between this row and `batched` is the
  // queueing/wakeup cost of the concurrent server around it.
  StreamResult batched_inline;
  batched_inline.requests = total_requests;
  i64 batched_launches = 0;
  {
    KernelCountScope launches;
    const i64 width = cli.get_int("max_batch");
    std::vector<serve::EvalRequest> group;
    group.reserve(static_cast<std::size_t>(width));
    const f64 t0 = now_seconds();
    for (i64 w = 0; w < walkers; ++w) {
      for (i64 k = 0; k < per_walker; ++k) {
        group.push_back(request_for(w, k));
        if (static_cast<i64>(group.size()) == width) {
          (void)serve::evaluate_batch_with(*fixture.model, group);
          group.clear();
        }
      }
    }
    if (!group.empty()) {
      (void)serve::evaluate_batch_with(*fixture.model, group);
    }
    batched_inline.total_s = now_seconds() - t0;
    batched_inline.throughput_rps =
        static_cast<f64>(batched_inline.requests) / batched_inline.total_s;
    batched_launches = launches.count();
  }
  const f64 serial_launches_per_req =
      static_cast<f64>(serial_launches) / static_cast<f64>(total_requests);
  const f64 batched_launches_per_req =
      static_cast<f64>(batched_launches) / static_cast<f64>(total_requests);
  const f64 launch_amortization =
      batched_launches > 0
          ? static_cast<f64>(serial_launches)
                / static_cast<f64>(batched_launches)
          : 0.0;

  // --- concurrent A/B: unbatched vs batched at the same concurrency -------
  // concurrent_direct is the baseline a batching server actually displaces:
  // every walker thread runs the full model itself. On a small host the
  // in-flight graphs evict each other from cache and contend on the
  // allocator; coalescing into one worker's batched pass removes that
  // thrash. batched issues the same stream through a BatchingEvaluator.
  // The two legs run as kPairs alternating pairs, each pair flipping which
  // leg goes first, so host drift lands on both arms alike; the headline
  // batched_speedup is the median of the per-pair throughput ratios.
  StreamResult concurrent_direct;
  StreamResult batched;
  Slo request_latency;
  Slo queue_wait;
  std::vector<f64> pair_speedups;
  {
    serve::BatchingConfig bcfg;
    bcfg.max_batch = cli.get_int("max_batch");
    bcfg.max_wait_s = static_cast<f64>(cli.get_int("max_wait_us")) * 1e-6;
    serve::BatchingEvaluator evaluator(registry, bcfg);

    // The request-level SLO histograms must cover exactly the batched
    // legs: the percentiles below gate ci/budgets.json "obs" budgets, so
    // earlier warm-up traffic may not dilute them.
    metrics.histogram("serve.request_latency_seconds").reset();
    metrics.histogram("serve.queue_wait_seconds").reset();

    const i64 batches_before = metrics.counter("serve.batches").value();
    const f64 occ_count_before =
        static_cast<f64>(metrics.histogram("serve.batch_occupancy").count());
    const f64 occ_sum_before =
        metrics.histogram("serve.batch_occupancy").sum();

    std::vector<std::vector<f64>> latencies(
        static_cast<std::size_t>(walkers));
    auto run_leg = [&](bool batched_leg) {
      std::vector<std::thread> threads;
      const f64 t0 = now_seconds();
      for (i64 w = 0; w < walkers; ++w) {
        threads.emplace_back([&, w] {
          auto& lane = latencies[static_cast<std::size_t>(w)];
          for (i64 k = 0; k < per_walker; ++k) {
            if (!batched_leg) {
              (void)serve::evaluate_with(*fixture.model, request_for(w, k));
              continue;
            }
            const f64 sent = now_seconds();
            (void)evaluator.evaluate(request_for(w, k));
            lane.push_back(now_seconds() - sent);
          }
        });
      }
      for (std::thread& t : threads) t.join();
      return now_seconds() - t0;
    };
    constexpr i64 kPairs = 5;
    for (i64 p = 0; p < kPairs; ++p) {
      f64 direct_s = 0.0;
      f64 batched_s = 0.0;
      for (const bool batched_leg : {p % 2 == 1, p % 2 == 0}) {
        (batched_leg ? batched_s : direct_s) = run_leg(batched_leg);
      }
      concurrent_direct.total_s += direct_s;
      batched.total_s += batched_s;
      // Both legs serve the same request count: the throughput ratio is
      // the inverse ratio of their wall times.
      pair_speedups.push_back(direct_s / batched_s);
    }
    evaluator.shutdown();
    concurrent_direct.requests = kPairs * total_requests;
    concurrent_direct.throughput_rps =
        static_cast<f64>(concurrent_direct.requests)
        / concurrent_direct.total_s;
    batched.requests = kPairs * total_requests;
    batched.throughput_rps =
        static_cast<f64>(batched.requests) / batched.total_s;

    std::vector<f64> all;
    for (const auto& lane : latencies) {
      all.insert(all.end(), lane.begin(), lane.end());
    }
    batched.p50_latency_s = percentile(all, 0.50);
    batched.p99_latency_s = percentile(all, 0.99);
    batched.batches = metrics.counter("serve.batches").value()
                      - batches_before;
    const f64 occ_count =
        static_cast<f64>(metrics.histogram("serve.batch_occupancy").count())
        - occ_count_before;
    const f64 occ_sum =
        metrics.histogram("serve.batch_occupancy").sum() - occ_sum_before;
    batched.occupancy_mean = occ_count > 0.0 ? occ_sum / occ_count : 0.0;

    // Request-level SLOs from the metrics histograms themselves (the same
    // quantiles a live FEKF_TELEMETRY sampler would report), not from the
    // bench's private latency vector: this is the export surface the
    // "obs" budgets gate, so the gate exercises the production path.
    const obs::Histogram& lat =
        metrics.histogram("serve.request_latency_seconds");
    request_latency = {lat.percentile(0.50), lat.percentile(0.90),
                       lat.percentile(0.99)};
    const obs::Histogram& wait =
        metrics.histogram("serve.queue_wait_seconds");
    queue_wait = {wait.percentile(0.50), wait.percentile(0.90),
                  wait.percentile(0.99)};
  }
  // The headline gate: batched vs the unbatched path at the same 64-walker
  // concurrency. serial_ratio (vs one lone unbatched walker) is reported
  // for context — on a one-core host it hovers near 1.0 by construction,
  // since both paths run the same arithmetic through the same core.
  const f64 batched_speedup = percentile(pair_speedups, 0.50);
  const f64 serial_ratio = batched.throughput_rps / serial.throughput_rps;

  // --- publish latency, idle vs under reader load -------------------------
  const i64 publishes = cli.get_int("publishes");
  std::vector<f64> idle_publish_s;
  std::vector<f64> loaded_publish_s;
  {
    for (i64 k = 0; k < publishes; ++k) {
      const f64 t0 = now_seconds();
      registry.publish_copy(*fixture.model, 100 + k);
      idle_publish_s.push_back(now_seconds() - t0);
    }
    // Readers poll latest() the way MD loops do — frequently, not in a
    // hot spin (a pure spin on a one-core host would measure the
    // scheduler, not the registry).
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (i64 w = 0; w < walkers; ++w) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          const serve::ModelSnapshot* snap = registry.latest();
          FEKF_CHECK(snap != nullptr && snap->model != nullptr,
                     "torn read under publish load");
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
    }
    for (i64 k = 0; k < publishes; ++k) {
      const f64 t0 = now_seconds();
      registry.publish_copy(*fixture.model, 200 + k);
      loaded_publish_s.push_back(now_seconds() - t0);
    }
    stop.store(true);
    for (std::thread& t : readers) t.join();
  }
  const f64 p50_idle = percentile(idle_publish_s, 0.50);
  const f64 p50_loaded = percentile(loaded_publish_s, 0.50);
  const f64 loaded_over_idle = p50_idle > 0.0 ? p50_loaded / p50_idle : 0.0;
  const i64 publish_stalls = metrics.counter("serve.publish_stalls").value();

  // --- mixed freshness: pinned + latest + deadlines in one queue ----------
  i64 mixed_requests = 0;
  i64 pinned_wrong_version = 0;
  u64 latest_served = 0;
  {
    serve::BatchingConfig bcfg;
    bcfg.max_batch = cli.get_int("max_batch");
    bcfg.max_wait_s = static_cast<f64>(cli.get_int("max_wait_us")) * 1e-6;
    serve::BatchingEvaluator evaluator(registry, bcfg);
    std::vector<std::future<serve::EvalResult>> pinned;
    std::vector<std::future<serve::EvalResult>> latest;
    for (i64 w = 0; w < walkers; ++w) {
      serve::EvalRequest req = request_for(w, 0);
      req.deadline_s = (w % 2 == 0) ? 300e-6 : -1.0;
      if (w % 2 == 0) {
        req.pin_version = 1;
        pinned.push_back(evaluator.submit(std::move(req)));
      } else {
        latest.push_back(evaluator.submit(std::move(req)));
      }
      ++mixed_requests;
    }
    for (auto& f : pinned) {
      if (f.get().model_version != 1) ++pinned_wrong_version;
    }
    for (auto& f : latest) {
      latest_served = std::max(latest_served, f.get().model_version);
    }
    evaluator.shutdown();
  }

  // --- obs inventory: the observable surface, for the --obs-doc gate ------
  // A short traced leg replays the serving scenario; bench_chaos records
  // the training half of the inventory.
  const std::string obs_inventory = obs_inventory_json([&] {
    serve::BatchingConfig bcfg;
    bcfg.max_batch = cli.get_int("max_batch");
    bcfg.max_wait_s = static_cast<f64>(cli.get_int("max_wait_us")) * 1e-6;
    {
      serve::BatchingEvaluator evaluator(registry, bcfg);
      for (i64 k = 0; k < 4; ++k) {
        (void)evaluator.evaluate(request_for(0, k));
      }
      evaluator.shutdown();
    }
    (void)serve::evaluate_with(*fixture.model, request_for(0, 0));
  });

  Table table({"scenario", "requests", "total s", "req/s", "p50 ms",
               "p99 ms", "batches", "occupancy"});
  table.add_row({"serial", std::to_string(serial.requests),
                 fmt("%.3f", serial.total_s),
                 fmt("%.1f", serial.throughput_rps), "-", "-", "-", "-"});
  table.add_row({"batched_inline", std::to_string(batched_inline.requests),
                 fmt("%.3f", batched_inline.total_s),
                 fmt("%.1f", batched_inline.throughput_rps), "-", "-", "-",
                 "-"});
  table.add_row({"concurrent_direct",
                 std::to_string(concurrent_direct.requests),
                 fmt("%.3f", concurrent_direct.total_s),
                 fmt("%.1f", concurrent_direct.throughput_rps), "-", "-", "-",
                 "-"});
  table.add_row({"batched", std::to_string(batched.requests),
                 fmt("%.3f", batched.total_s),
                 fmt("%.1f", batched.throughput_rps),
                 fmt("%.2f", 1e3 * batched.p50_latency_s),
                 fmt("%.2f", 1e3 * batched.p99_latency_s),
                 std::to_string(batched.batches),
                 fmt("%.2f", batched.occupancy_mean)});
  table.print();
  std::printf(
      "\nlaunch amortization %.2fx (%.1f -> %.1f kernel launches per "
      "request); batched speedup %.2fx vs unbatched at the same concurrency "
      "(median of %zu pairs; %.2fx vs one lone walker); publish p50 %.1f us "
      "idle vs %.1f us under %lld readers (x%.2f), %lld stalls; mixed: %lld "
      "requests, %lld pinned-version violations, latest served v%llu\n",
      launch_amortization, serial_launches_per_req, batched_launches_per_req,
      batched_speedup, pair_speedups.size(), serial_ratio, 1e6 * p50_idle,
      1e6 * p50_loaded,
      static_cast<long long>(walkers), loaded_over_idle,
      static_cast<long long>(publish_stalls),
      static_cast<long long>(mixed_requests),
      static_cast<long long>(pinned_wrong_version),
      static_cast<unsigned long long>(latest_served));
  std::printf(
      "request SLOs (histogram quantiles): latency p50/p90/p99 = "
      "%.2f/%.2f/%.2f ms, queue wait p50/p90/p99 = %.2f/%.2f/%.2f ms\n",
      1e3 * request_latency.p50_s, 1e3 * request_latency.p90_s,
      1e3 * request_latency.p99_s, 1e3 * queue_wait.p50_s,
      1e3 * queue_wait.p90_s, 1e3 * queue_wait.p99_s);

  std::string json = "{\n  \"bench\": \"bench_serving\",\n";
  json += "  \"system\": \"" + fixture.system + "\",\n";
  json += "  \"walkers\": " + std::to_string(walkers) + ",\n";
  json += "  \"walker_natoms\": " + std::to_string(walker_natoms) + ",\n";
  json += "  \"requests_per_walker\": " + std::to_string(per_walker) + ",\n";
  json += "  \"max_batch\": " + std::to_string(cli.get_int("max_batch")) +
          ",\n";
  json += "  \"serial\": {\"requests\": " + std::to_string(serial.requests) +
          ", \"total_s\": " + fmt("%.6f", serial.total_s) +
          ", \"throughput_rps\": " + fmt("%.3f", serial.throughput_rps) +
          ", \"kernel_launches\": " + std::to_string(serial_launches) +
          "},\n";
  json += "  \"batched_inline\": {\"requests\": " +
          std::to_string(batched_inline.requests) +
          ", \"total_s\": " + fmt("%.6f", batched_inline.total_s) +
          ", \"throughput_rps\": " +
          fmt("%.3f", batched_inline.throughput_rps) +
          ", \"kernel_launches\": " + std::to_string(batched_launches) +
          "},\n";
  json += "  \"launch_amortization\": " + fmt("%.4f", launch_amortization) +
          ",\n";
  json += "  \"concurrent_direct\": {\"requests\": " +
          std::to_string(concurrent_direct.requests) +
          ", \"total_s\": " + fmt("%.6f", concurrent_direct.total_s) +
          ", \"throughput_rps\": " +
          fmt("%.3f", concurrent_direct.throughput_rps) + "},\n";
  json += "  \"batched\": {\"requests\": " +
          std::to_string(batched.requests) +
          ", \"total_s\": " + fmt("%.6f", batched.total_s) +
          ", \"throughput_rps\": " + fmt("%.3f", batched.throughput_rps) +
          ", \"p50_latency_s\": " + fmt("%.9f", batched.p50_latency_s) +
          ", \"p99_latency_s\": " + fmt("%.9f", batched.p99_latency_s) +
          ", \"batches\": " + std::to_string(batched.batches) +
          ", \"occupancy_mean\": " + fmt("%.3f", batched.occupancy_mean) +
          ",\n    \"request_latency\": {\"p50_s\": " +
          fmt("%.9f", request_latency.p50_s) +
          ", \"p90_s\": " + fmt("%.9f", request_latency.p90_s) +
          ", \"p99_s\": " + fmt("%.9f", request_latency.p99_s) +
          "},\n    \"queue_wait\": {\"p50_s\": " +
          fmt("%.9f", queue_wait.p50_s) +
          ", \"p90_s\": " + fmt("%.9f", queue_wait.p90_s) +
          ", \"p99_s\": " + fmt("%.9f", queue_wait.p99_s) + "}},\n";
  json += "  \"batched_speedup\": " + fmt("%.4f", batched_speedup) + ",\n";
  json += "  \"pair_speedups\": [";
  for (std::size_t p = 0; p < pair_speedups.size(); ++p) {
    json += (p > 0 ? ", " : "") + fmt("%.4f", pair_speedups[p]);
  }
  json += "],\n";
  json += "  \"serial_ratio\": " + fmt("%.4f", serial_ratio) + ",\n";
  json += "  \"publish\": {\"publishes\": " + std::to_string(publishes) +
          ", \"p50_idle_s\": " + fmt("%.9f", p50_idle) +
          ", \"p50_loaded_s\": " + fmt("%.9f", p50_loaded) +
          ", \"loaded_over_idle\": " + fmt("%.4f", loaded_over_idle) +
          ", \"readers\": " + std::to_string(walkers) +
          ", \"publish_stalls\": " + std::to_string(publish_stalls) +
          "},\n";
  json += "  \"mixed\": {\"requests\": " + std::to_string(mixed_requests) +
          ", \"pinned_wrong_version\": " +
          std::to_string(pinned_wrong_version) +
          ", \"latest_served_version\": " + std::to_string(latest_served) +
          "},\n";
  json += "  \"obs\": " + obs_inventory + "\n}\n";
  std::printf("\n%s", json.c_str());
  if (!cli.get("json").empty()) {
    std::FILE* f = std::fopen(cli.get("json").c_str(), "w");
    FEKF_CHECK(f != nullptr, "cannot open --json file " + cli.get("json"));
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  return 0;
}

// Thread-scaling sweep over the Figure-7-style FEKF iteration.
//
// For each width in --threads, runs the paper's training iteration (one
// energy update + four force updates, Cu bs-64 by default) on a FRESH model
// from identical initialization, and reports per-iteration wall time,
// speedup vs the 1-thread entry, the per-iteration kernel-launch count, and
// a weight checksum. Because every kernel is bit-exact across widths
// (DESIGN.md "Threading & determinism"), the harness ASSERTS that launch
// counts and weight checksums are identical at every width — the sweep
// changes wall clock only.
//
// Emits a JSON document (stdout, and --json FILE if given) so run_benches.sh
// can archive machine-readable scaling artifacts; each record carries the
// thread width it ran at.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernel_counter.hpp"

using namespace fekf;
using namespace fekf::bench;

namespace {

struct Entry {
  i64 threads = 0;
  f64 seconds_per_iter = 0.0;
  f64 forward_s = 0.0, gradient_s = 0.0, optimizer_s = 0.0;
  i64 kernels_per_iter = 0;
  f64 weight_checksum = 0.0;
};

/// Order-pinned f64 sum of every parameter element (bit-comparable across
/// sweep entries).
f64 weight_checksum(const deepmd::DeepmdModel& model) {
  f64 acc = 0.0;
  for (const ag::Variable& p : model.parameters()) {
    const Tensor& t = p.value();
    for (i64 i = 0; i < t.numel(); ++i) acc += static_cast<f64>(t.data()[i]);
  }
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_scaling",
          "Thread-scaling sweep over the Fig. 7-style FEKF iteration "
          "(deterministic across widths; JSON output)");
  add_common_flags(cli);
  cli.flag("system", "Cu", "catalog system")
      .flag("batch", "64", "FEKF batch size (paper Fig. 7: 64)")
      .flag("iters", "3", "measured iterations per width")
      .flag("threads", "1,2,4,8", "comma-separated widths to sweep")
      .flag("json", "", "also write the JSON document to this file");
  if (!cli.parse(argc, argv)) return 0;

  const i64 batch = cli.get_int("batch");
  const i64 iters = cli.get_int("iters");
  const std::vector<i64> widths = split_int_list(cli.get("threads"));
  FEKF_CHECK(!widths.empty(), "empty --threads list");

  // One dataset for the whole sweep; a fresh, identically-initialized model
  // per width. Environments depend only on the (deterministic) statistics,
  // so they are prepared once and shared.
  Fixture fixture = make_fixture(cli.get("system"), cli);
  FEKF_CHECK(static_cast<i64>(fixture.train_envs.size()) >= batch,
             "need --train >= --batch snapshots");
  std::span<const train::EnvPtr> all(fixture.train_envs);
  auto batch_span = all.subspan(0, static_cast<std::size_t>(batch));
  const i64 natoms = fixture.train_envs.front()->natoms;

  std::vector<Entry> entries;
  for (const i64 width : widths) {
    set_num_threads(width);
    deepmd::DeepmdModel model(model_config_from(cli),
                              data::get_system(cli.get("system")).num_types());
    model.set_stats(fixture.model->env_stats(), fixture.model->energy_stats());
    train::TrainOptions opts;
    opts.batch_size = batch;
    opts.seed = static_cast<u64>(cli.get_int("seed"));
    optim::KalmanConfig kcfg;
    kcfg.blocksize = cli.get_int("blocksize");
    train::KalmanTrainer trainer(model, kcfg, opts);
    Rng group_rng(7);
    auto groups = train::make_force_groups(natoms, 4, group_rng);

    // Warm-up iteration (excluded from timing and counting).
    trainer.energy_update(batch_span);
    trainer.force_update(batch_span, groups[0]);

    Entry e;
    e.threads = width;
    const obs::SpanClock clock;  // phase split from the trainer's spans
    Stopwatch watch;
    i64 kernels = 0;
    for (i64 it = 0; it < iters; ++it) {
      KernelCountScope scope;
      trainer.energy_update(batch_span);
      for (const auto& group : groups) trainer.force_update(batch_span, group);
      kernels += scope.count();
    }
    e.seconds_per_iter = watch.seconds() / static_cast<f64>(iters);
    e.kernels_per_iter = kernels / iters;
    e.forward_s = clock.seconds("forward") / static_cast<f64>(iters);
    e.gradient_s = clock.seconds("gradient") / static_cast<f64>(iters);
    e.optimizer_s = clock.seconds("kf_update") / static_cast<f64>(iters);
    e.weight_checksum = weight_checksum(model);
    entries.push_back(e);
    std::printf("  %2lld thread(s): %.3f s/iter, %lld kernels/iter\n",
                static_cast<long long>(width), e.seconds_per_iter,
                static_cast<long long>(e.kernels_per_iter));
  }
  set_num_threads(0);  // restore default width

  // Determinism assertions: identical launch counts and identical final
  // weights at every width (the trajectory is pinned, only time varies).
  for (const Entry& e : entries) {
    FEKF_CHECK(e.kernels_per_iter == entries.front().kernels_per_iter,
               "kernel-launch count diverged across thread widths");
    FEKF_CHECK(e.weight_checksum == entries.front().weight_checksum,
               "weight trajectory diverged across thread widths");
  }

  std::printf("\nThread scaling, %s batch %lld (%lld-step iteration: 1 energy "
              "+ 4 force updates)\n",
              fixture.system.c_str(), static_cast<long long>(batch),
              static_cast<long long>(iters));
  Table table({"threads", "s/iter", "speedup", "forward", "gradient",
               "KF update", "kernels/iter"});
  const f64 base = entries.front().seconds_per_iter;
  for (const Entry& e : entries) {
    table.add_row({std::to_string(e.threads), fmt("%.3f", e.seconds_per_iter),
                   fmt("%.2fx", base / e.seconds_per_iter),
                   fmt("%.3f", e.forward_s), fmt("%.3f", e.gradient_s),
                   fmt("%.3f", e.optimizer_s),
                   std::to_string(e.kernels_per_iter)});
  }
  table.print();
  std::printf("determinism: kernel counts and weight checksums identical at "
              "all widths (checksum %.17g)\n",
              entries.front().weight_checksum);

  // JSON artifact (stdout + optional file).
  std::string json = "{\n  \"bench\": \"bench_scaling\",\n";
  json += "  \"system\": \"" + fixture.system + "\",\n";
  json += "  \"batch\": " + std::to_string(batch) + ",\n";
  json += "  \"iters\": " + std::to_string(iters) + ",\n";
  json += "  \"hardware_threads\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    json += "    {\"threads\": " + std::to_string(e.threads) +
            ", \"seconds_per_iter\": " + fmt("%.6f", e.seconds_per_iter) +
            ", \"speedup_vs_1\": " + fmt("%.3f", base / e.seconds_per_iter) +
            ", \"forward_s\": " + fmt("%.6f", e.forward_s) +
            ", \"gradient_s\": " + fmt("%.6f", e.gradient_s) +
            ", \"optimizer_s\": " + fmt("%.6f", e.optimizer_s) +
            ", \"kernels_per_iter\": " + std::to_string(e.kernels_per_iter) +
            "}";
    json += i + 1 < entries.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  std::printf("\n%s", json.c_str());
  const std::string path = cli.get("json");
  if (!path.empty()) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    FEKF_CHECK(f != nullptr, "cannot open --json file " + path);
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

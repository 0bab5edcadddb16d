// Resilience bench (DESIGN.md §10): what does each fault class cost?
//
// Runs the FEKF trainer (and the virtual cluster for rank failure) under
// every FaultInjector class and reports, per fault, the steps lost to
// rollback, the recovery wall-clock, and the final accuracy next to an
// uninjected baseline — plus the overhead of the sentinel snapshots and of
// periodic checkpointing. Every scenario starts from a fresh,
// identically-initialized model so the accuracy columns are comparable.
//
// Emits a JSON document (stdout, and --json FILE if given) so
// run_benches.sh can archive it as bench_artifacts/resilience.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/fault.hpp"
#include "dist/cluster.hpp"

using namespace fekf;
using namespace fekf::bench;

namespace {

struct Entry {
  std::string scenario;
  i64 steps = 0;
  i64 steps_lost = 0;       ///< batches skipped by sentinel rollback
  i64 fault_events = 0;     ///< FaultLog entries of any kind
  f64 wall_seconds = 0.0;
  f64 recovery_seconds = 0.0;
  f64 checkpoint_seconds = 0.0;
  f64 final_rmse = 0.0;
};

i64 count_rollbacks(const FaultLog& log) {
  i64 n = 0;
  for (const FaultEvent& e : log.events) {
    if (e.action == "rollback_skip_batch") ++n;
  }
  return n;
}

Entry summarize(std::string scenario, const train::TrainResult& r) {
  Entry e;
  e.scenario = std::move(scenario);
  e.steps = r.steps;
  e.steps_lost = count_rollbacks(r.faults);
  e.fault_events = static_cast<i64>(r.faults.events.size());
  e.wall_seconds = r.total_seconds;
  e.recovery_seconds = r.recovery_seconds;
  e.checkpoint_seconds = r.checkpoint_seconds;
  e.final_rmse = r.final_train.total();
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_resilience",
          "Fault-injection cost sweep: steps lost + wall-clock per fault "
          "class, sentinel/checkpoint overhead (JSON output)");
  add_common_flags(cli);
  cli.flag("system", "Cu", "catalog system")
      .flag("batch", "8", "FEKF batch size")
      .flag("epochs", "3", "epochs per scenario")
      .flag("ranks", "4", "virtual-cluster ranks for the rank_fail scenario")
      .flag("ckpt", "bench_resilience.ckpt",
            "scratch checkpoint path for the checkpointing scenarios")
      .flag("json", "", "also write the JSON document to this file");
  if (!cli.parse(argc, argv)) return 0;

  const i64 batch = cli.get_int("batch");
  const i64 epochs = cli.get_int("epochs");
  Fixture fixture = make_fixture(cli.get("system"), cli);
  FEKF_CHECK(static_cast<i64>(fixture.train_envs.size()) >= batch,
             "need --train >= --batch snapshots");
  const std::string ckpt_path = cli.get("ckpt");

  // Every scenario: fresh model from identical initialization, shared
  // prepared environments (they depend only on the deterministic stats).
  auto fresh_model = [&]() {
    deepmd::DeepmdModel model(
        model_config_from(cli),
        data::get_system(cli.get("system")).num_types());
    model.set_stats(fixture.model->env_stats(), fixture.model->energy_stats());
    return model;
  };
  auto run_fekf = [&](const std::string& fault_spec,
                      bool sentinels, i64 checkpoint_every) {
    FaultInjector::instance().configure(fault_spec);
    deepmd::DeepmdModel model = fresh_model();
    train::TrainOptions opts;
    opts.batch_size = batch;
    opts.max_epochs = epochs;
    opts.eval_max_samples = 16;
    opts.seed = static_cast<u64>(cli.get_int("seed"));
    opts.sentinels = sentinels;
    opts.checkpoint_every = checkpoint_every;
    if (checkpoint_every > 0) opts.checkpoint_path = ckpt_path;
    optim::KalmanConfig kcfg;
    kcfg.blocksize = cli.get_int("blocksize");
    train::KalmanTrainer trainer(model, kcfg, opts);
    train::TrainResult r = trainer.train(fixture.train_envs,
                                         fixture.test_envs);
    FaultInjector::instance().clear();
    return r;
  };

  std::vector<Entry> entries;
  std::printf("Resilience sweep: %s, batch %lld, %lld epochs per scenario\n\n",
              fixture.system.c_str(), static_cast<long long>(batch),
              static_cast<long long>(epochs));

  entries.push_back(summarize("baseline", run_fekf("", true, 0)));
  entries.push_back(
      summarize("sentinels_off", run_fekf("", false, 0)));
  entries.push_back(
      summarize("checkpoint_every_2", run_fekf("", true, 2)));
  entries.push_back(
      summarize("nan_grad", run_fekf("nan_grad@step=2", true, 0)));
  entries.push_back(
      summarize("corrupt_ckpt", run_fekf("corrupt_ckpt", true, 2)));

  // Membership faults run on the virtual cluster; their recovery cost
  // lives in the communication ledger, not the trainer timers.
  auto run_cluster = [&](const std::string& fault_spec) {
    FaultInjector::instance().configure(fault_spec);
    deepmd::DeepmdModel model = fresh_model();
    dist::DistributedConfig dcfg;
    dcfg.ranks = cli.get_int("ranks");
    dcfg.options.batch_size = std::max(batch, dcfg.ranks);
    dcfg.options.max_epochs = epochs;
    dcfg.options.eval_max_samples = 16;
    dcfg.options.seed = static_cast<u64>(cli.get_int("seed"));
    dcfg.kalman.blocksize = cli.get_int("blocksize");
    dist::DistributedResult dr = dist::train_fekf_distributed(
        model, fixture.train_envs, fixture.test_envs, dcfg);
    FaultInjector::instance().clear();
    return dr;
  };
  f64 reshard_seconds = 0.0;
  i64 reshard_bytes = 0;
  i64 surviving_ranks = 0;
  f64 detection_seconds = 0.0;
  {
    dist::DistributedResult dr = run_cluster("rank_fail@step=2");
    Entry e = summarize("rank_fail", dr.train);
    e.wall_seconds = dr.simulated_seconds;
    entries.push_back(e);
    reshard_seconds = dr.comm.reshard_seconds;
    reshard_bytes = dr.comm.reshard_bytes;
    surviving_ranks = dr.surviving_ranks;
    detection_seconds = dr.comm.detection_seconds;
  }
  // An elastic join: the catch-up transfer (weights + covariance shard) is
  // the price of admitting a rank mid-run.
  f64 join_seconds = 0.0;
  i64 join_bytes = 0;
  {
    dist::DistributedResult dr = run_cluster("rank_join@step=2");
    Entry e = summarize("rank_join", dr.train);
    e.wall_seconds = dr.simulated_seconds;
    entries.push_back(e);
    join_seconds = dr.comm.join_seconds;
    join_bytes = dr.comm.join_bytes;
  }
  // A straggler under the bounded-wait policy: the extra simulated wait is
  // the admitted slowdown, capped at kStragglerWaitFactor x nominal.
  f64 straggler_wait_seconds = 0.0;
  {
    dist::DistributedResult dr = run_cluster("straggler@step=2,factor=4");
    Entry e = summarize("straggler", dr.train);
    e.wall_seconds = dr.simulated_seconds;
    entries.push_back(e);
    straggler_wait_seconds = dr.comm.straggler_wait_seconds;
  }

  const Entry& base = entries.front();
  Table table({"scenario", "steps", "lost", "faults", "wall s", "recovery s",
               "ckpt s", "final RMSE"});
  for (const Entry& e : entries) {
    table.add_row({e.scenario, std::to_string(e.steps),
                   std::to_string(e.steps_lost),
                   std::to_string(e.fault_events), fmt("%.3f", e.wall_seconds),
                   fmt("%.4f", e.recovery_seconds),
                   fmt("%.4f", e.checkpoint_seconds),
                   fmt("%.5f", e.final_rmse)});
  }
  table.print();
  std::printf("\nsentinel snapshot overhead: %+.1f%% wall vs sentinels off\n",
              100.0 * (base.wall_seconds / entries[1].wall_seconds - 1.0));
  std::printf("rank_fail re-shard: %.6f simulated s, %lld bytes, "
              "%lld ranks survived (detection %.6f s)\n",
              reshard_seconds, static_cast<long long>(reshard_bytes),
              static_cast<long long>(surviving_ranks), detection_seconds);
  std::printf("rank_join catch-up: %.6f simulated s, %lld bytes; "
              "straggler bounded wait: %.6f simulated s\n",
              join_seconds, static_cast<long long>(join_bytes),
              straggler_wait_seconds);

  std::string json = "{\n  \"bench\": \"bench_resilience\",\n";
  json += "  \"system\": \"" + fixture.system + "\",\n";
  json += "  \"batch\": " + std::to_string(batch) + ",\n";
  json += "  \"epochs\": " + std::to_string(epochs) + ",\n";
  json += "  \"sentinel_overhead_frac\": " +
          fmt("%.6f", base.wall_seconds / entries[1].wall_seconds - 1.0) +
          ",\n";
  json += "  \"rank_fail_reshard_seconds\": " + fmt("%.9f", reshard_seconds) +
          ",\n";
  json += "  \"rank_fail_reshard_bytes\": " + std::to_string(reshard_bytes) +
          ",\n";
  json += "  \"rank_fail_surviving_ranks\": " +
          std::to_string(surviving_ranks) + ",\n";
  json += "  \"rank_fail_detection_seconds\": " +
          fmt("%.9f", detection_seconds) + ",\n";
  json += "  \"rank_join_seconds\": " + fmt("%.9f", join_seconds) + ",\n";
  json += "  \"rank_join_bytes\": " + std::to_string(join_bytes) + ",\n";
  json += "  \"straggler_wait_seconds\": " +
          fmt("%.9f", straggler_wait_seconds) + ",\n";
  json += "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    json += "    {\"scenario\": \"" + e.scenario + "\"" +
            ", \"steps\": " + std::to_string(e.steps) +
            ", \"steps_lost\": " + std::to_string(e.steps_lost) +
            ", \"fault_events\": " + std::to_string(e.fault_events) +
            ", \"wall_seconds\": " + fmt("%.6f", e.wall_seconds) +
            ", \"recovery_seconds\": " + fmt("%.6f", e.recovery_seconds) +
            ", \"checkpoint_seconds\": " + fmt("%.6f", e.checkpoint_seconds) +
            ", \"final_rmse\": " + fmt("%.6f", e.final_rmse) + "}";
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

// Chaos sweep (DESIGN.md §10): what does a degraded cluster cost?
//
// Sweeps message-loss rate x rank count on the elastic virtual cluster and
// reports, per cell, the simulated communication overhead the lossy-link
// simulation adds over the clean alpha-beta cost (drops, corruptions,
// retries, backoff). A final "churn" scenario drives the fault DSL itself
// — rank failure, straggler, join and a seeded probabilistic drop arm in
// one spec — and reports the recovery bill: reshard + catch-up +
// detection seconds from the CommLedger.
//
// All gated quantities are SIMULATED seconds derived from byte counts and
// seeded RNG draws, so for a fixed bench scale they are deterministic and
// ci/check_budgets.py can hold them to tight budgets (the chaos section of
// ci/budgets.json). Wall-clock-contaminated figures (straggler wait) are
// reported but not gated.
//
// Emits a JSON document (stdout, and --json FILE if given) so
// run_benches.sh can archive it as bench_artifacts/chaos.json. Its "obs"
// object is the training half of the inventory ci/check_budgets.py
// --obs-doc diffs docs/OBSERVABILITY.md against (bench_serving's is the
// serving half).
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/fault.hpp"
#include "dist/cluster.hpp"
#include "obs/metrics.hpp"

using namespace fekf;
using namespace fekf::bench;

namespace {

struct Cell {
  std::string name;
  i64 ranks = 0;
  f64 drop_p = 0.0;
  i64 steps = 0;
  f64 comm_seconds = 0.0;
  f64 sim_seconds = 0.0;
  i64 msg_drops = 0;
  i64 msg_corrupts = 0;
  i64 retries = 0;
  f64 retry_seconds = 0.0;
  f64 retry_ratio = 0.0;         ///< retry_seconds / comm_seconds
  f64 drop_overhead_frac = 0.0;  ///< comm vs the clean cell, same ranks
  // Per-step simulated time distribution (dist.step_sim_seconds): the
  // degraded cells show their cost as a fattened tail, not just a mean.
  f64 step_p50_s = 0.0;
  f64 step_p90_s = 0.0;
  f64 step_p99_s = 0.0;
};

/// The churn scenario's ledger summary; recovery_seconds is the
/// deterministic membership bill (reshard + join catch-up + detection).
struct Churn {
  std::string spec;
  i64 ranks = 0;
  i64 surviving_ranks = 0;
  i64 evictions = 0;
  i64 join_events = 0;
  i64 join_bytes = 0;
  f64 recovery_seconds = 0.0;
  f64 reshard_seconds = 0.0;
  f64 join_seconds = 0.0;
  f64 detection_seconds = 0.0;
  f64 straggler_wait_seconds = 0.0;
  f64 heartbeat_seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_chaos",
          "Fault-rate x rank-count chaos sweep on the elastic virtual "
          "cluster: lossy-link overhead + DSL churn recovery bill "
          "(JSON output)");
  add_common_flags(cli);
  cli.flag("system", "Cu", "catalog system")
      .flag("batch", "8", "FEKF global batch size")
      .flag("epochs", "1", "epochs per cell")
      .flag("ranks", "2,4", "rank counts to sweep")
      .flag("drops", "0,0.02,0.05",
            "message-loss probabilities to sweep (first is the clean "
            "reference per rank count)")
      .flag("churn_spec",
            "rank_fail@step=1,straggler@step=2,factor=2.5,"
            "rank_join@step=3,msg_drop@p=0.02,seed=5",
            "fault DSL spec for the churn scenario")
      .flag("json", "", "also write the JSON document to this file");
  if (!cli.parse(argc, argv)) return 0;

  // The per-step simulated-time histogram (dist.step_sim_seconds) only
  // records when metrics are on; the sweep reports its quantiles per cell.
  obs::set_metrics_enabled(true);
  obs::Histogram& step_hist =
      obs::MetricsRegistry::instance().histogram("dist.step_sim_seconds");

  const i64 batch = cli.get_int("batch");
  const i64 epochs = cli.get_int("epochs");
  Fixture fixture = make_fixture(cli.get("system"), cli);
  FEKF_CHECK(static_cast<i64>(fixture.train_envs.size()) >= batch,
             "need --train >= --batch snapshots");

  auto fresh_model = [&]() {
    deepmd::DeepmdModel model(
        model_config_from(cli),
        data::get_system(cli.get("system")).num_types());
    model.set_stats(fixture.model->env_stats(), fixture.model->energy_stats());
    return model;
  };
  auto run_cluster = [&](i64 ranks, f64 drop_p, const std::string& spec) {
    FaultInjector::instance().configure(spec);
    deepmd::DeepmdModel model = fresh_model();
    dist::DistributedConfig dcfg;
    dcfg.ranks = ranks;
    dcfg.options.batch_size = std::max(batch, ranks);
    dcfg.options.max_epochs = epochs;
    dcfg.options.eval_max_samples = 8;
    dcfg.options.seed = static_cast<u64>(cli.get_int("seed"));
    dcfg.kalman.blocksize = cli.get_int("blocksize");
    dcfg.interconnect.loss_prob = drop_p;
    dcfg.interconnect.corrupt_prob = drop_p / 2.0;
    dist::DistributedResult r = dist::train_fekf_distributed(
        model, fixture.train_envs, {}, dcfg);
    FaultInjector::instance().clear();
    return r;
  };

  const std::vector<i64> rank_list = split_int_list(cli.get("ranks"));
  std::vector<f64> drop_list;
  for (const std::string& s : split_list(cli.get("drops"))) {
    drop_list.push_back(std::stod(s));
  }
  FEKF_CHECK(!rank_list.empty() && !drop_list.empty(),
             "--ranks and --drops must be non-empty");

  std::printf("Chaos sweep: %s, batch %lld, %lld epoch(s) per cell\n\n",
              fixture.system.c_str(), static_cast<long long>(batch),
              static_cast<long long>(epochs));

  std::vector<Cell> cells;
  for (const i64 ranks : rank_list) {
    f64 reference_comm = -1.0;
    for (const f64 drop_p : drop_list) {
      step_hist.reset();
      dist::DistributedResult r = run_cluster(ranks, drop_p, "");
      Cell c;
      c.name = "r" + std::to_string(ranks) + "_p" + fmt("%g", drop_p);
      c.ranks = ranks;
      c.drop_p = drop_p;
      c.steps = r.train.steps;
      c.comm_seconds = r.comm.comm_seconds;
      c.sim_seconds = r.simulated_seconds;
      c.msg_drops = r.comm.msg_drops;
      c.msg_corrupts = r.comm.msg_corrupts;
      c.retries = r.comm.retries;
      c.retry_seconds = r.comm.retry_seconds;
      c.retry_ratio =
          c.comm_seconds > 0.0 ? c.retry_seconds / c.comm_seconds : 0.0;
      if (reference_comm < 0.0) reference_comm = c.comm_seconds;
      c.drop_overhead_frac =
          reference_comm > 0.0 ? c.comm_seconds / reference_comm - 1.0 : 0.0;
      c.step_p50_s = step_hist.percentile(0.50);
      c.step_p90_s = step_hist.percentile(0.90);
      c.step_p99_s = step_hist.percentile(0.99);
      cells.push_back(c);
    }
  }

  Churn churn;
  churn.spec = cli.get("churn_spec");
  churn.ranks = rank_list.back();
  {
    dist::DistributedResult r =
        run_cluster(churn.ranks, 0.0, churn.spec);
    churn.surviving_ranks = r.surviving_ranks;
    churn.evictions = r.comm.evictions;
    churn.join_events = r.comm.join_events;
    churn.join_bytes = r.comm.join_bytes;
    churn.reshard_seconds = r.comm.reshard_seconds;
    churn.join_seconds = r.comm.join_seconds;
    churn.detection_seconds = r.comm.detection_seconds;
    churn.straggler_wait_seconds = r.comm.straggler_wait_seconds;
    churn.heartbeat_seconds = r.comm.heartbeat_seconds;
    churn.recovery_seconds = churn.reshard_seconds + churn.join_seconds +
                             churn.detection_seconds;
  }

  // A traced training leg for the obs inventory: one epoch of a
  // KalmanTrainer that checkpoints every step (so the kalman.flush and
  // checkpoint paths fire) and evaluates, then one lossy cluster epoch.
  const std::string obs_inventory = obs_inventory_json([&] {
    const std::string ckpt =
        (std::filesystem::temp_directory_path() / "fekf_bench_chaos_obs.ckpt")
            .string();
    deepmd::DeepmdModel model = fresh_model();
    train::TrainOptions options;
    options.batch_size = batch;
    options.max_epochs = 1;
    options.eval_max_samples = 4;
    options.seed = static_cast<u64>(cli.get_int("seed"));
    options.checkpoint_every = 1;
    options.checkpoint_path = ckpt;
    optim::KalmanConfig kcfg;
    kcfg.blocksize = cli.get_int("blocksize");
    train::KalmanTrainer trainer(model, kcfg, options);
    (void)trainer.train(fixture.train_envs, fixture.test_envs);
    std::filesystem::remove(ckpt);
    (void)run_cluster(rank_list.front(), drop_list.back(), "");
  });

  Table table({"cell", "ranks", "drop p", "steps", "comm s", "drops",
               "corrupt", "retries", "retry ratio", "overhead",
               "step p50/p90/p99 ms"});
  for (const Cell& c : cells) {
    table.add_row({c.name, std::to_string(c.ranks), fmt("%g", c.drop_p),
                   std::to_string(c.steps), fmt("%.6f", c.comm_seconds),
                   std::to_string(c.msg_drops),
                   std::to_string(c.msg_corrupts), std::to_string(c.retries),
                   fmt("%.4f", c.retry_ratio),
                   fmt("%+.1f%%", 100.0 * c.drop_overhead_frac),
                   fmt("%.3f", 1e3 * c.step_p50_s) + "/" +
                       fmt("%.3f", 1e3 * c.step_p90_s) + "/" +
                       fmt("%.3f", 1e3 * c.step_p99_s)});
  }
  table.print();
  std::printf(
      "\nchurn '%s' on %lld ranks: %lld evicted, %lld joined "
      "(%lld catch-up bytes), recovery %.6f simulated s "
      "(reshard %.6f + join %.6f + detection %.6f), straggler wait %.6f s\n",
      churn.spec.c_str(), static_cast<long long>(churn.ranks),
      static_cast<long long>(churn.evictions),
      static_cast<long long>(churn.join_events),
      static_cast<long long>(churn.join_bytes), churn.recovery_seconds,
      churn.reshard_seconds, churn.join_seconds, churn.detection_seconds,
      churn.straggler_wait_seconds);

  std::string json = "{\n  \"bench\": \"bench_chaos\",\n";
  json += "  \"system\": \"" + fixture.system + "\",\n";
  json += "  \"batch\": " + std::to_string(batch) + ",\n";
  json += "  \"epochs\": " + std::to_string(epochs) + ",\n";
  json += "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    json += "    {\"name\": \"" + c.name + "\"" +
            ", \"ranks\": " + std::to_string(c.ranks) +
            ", \"drop_p\": " + fmt("%g", c.drop_p) +
            ", \"steps\": " + std::to_string(c.steps) +
            ", \"comm_seconds\": " + fmt("%.9f", c.comm_seconds) +
            ", \"sim_seconds\": " + fmt("%.6f", c.sim_seconds) +
            ", \"msg_drops\": " + std::to_string(c.msg_drops) +
            ", \"msg_corrupts\": " + std::to_string(c.msg_corrupts) +
            ", \"retries\": " + std::to_string(c.retries) +
            ", \"retry_seconds\": " + fmt("%.9f", c.retry_seconds) +
            ", \"retry_ratio\": " + fmt("%.6f", c.retry_ratio) +
            ", \"drop_overhead_frac\": " + fmt("%.6f", c.drop_overhead_frac) +
            ", \"step_p50_s\": " + fmt("%.9f", c.step_p50_s) +
            ", \"step_p90_s\": " + fmt("%.9f", c.step_p90_s) +
            ", \"step_p99_s\": " + fmt("%.9f", c.step_p99_s) + "}";
    json += i + 1 < cells.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"churn\": {\n";
  json += "    \"spec\": \"" + churn.spec + "\",\n";
  json += "    \"ranks\": " + std::to_string(churn.ranks) + ",\n";
  json += "    \"surviving_ranks\": " + std::to_string(churn.surviving_ranks) +
          ",\n";
  json += "    \"evictions\": " + std::to_string(churn.evictions) + ",\n";
  json += "    \"join_events\": " + std::to_string(churn.join_events) + ",\n";
  json += "    \"join_bytes\": " + std::to_string(churn.join_bytes) + ",\n";
  json += "    \"recovery_seconds\": " + fmt("%.9f", churn.recovery_seconds) +
          ",\n";
  json += "    \"reshard_seconds\": " + fmt("%.9f", churn.reshard_seconds) +
          ",\n";
  json += "    \"join_seconds\": " + fmt("%.9f", churn.join_seconds) + ",\n";
  json += "    \"detection_seconds\": " +
          fmt("%.9f", churn.detection_seconds) + ",\n";
  json += "    \"straggler_wait_seconds\": " +
          fmt("%.9f", churn.straggler_wait_seconds) + ",\n";
  json += "    \"heartbeat_seconds\": " +
          fmt("%.9f", churn.heartbeat_seconds) + "\n";
  json += "  },\n";
  json += "  \"obs\": " + obs_inventory + "\n}\n";
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

// Shared fixture plumbing for the experiment harnesses (one binary per
// paper table/figure — see DESIGN.md §3 for the index).
//
// Default scales are sized for a single CPU core: smaller network and
// dataset than the paper, same architecture shape. Every harness exposes
// flags to raise the scale toward the paper's (--embed 25 --axis 16
// --fit 50 --blocksize 10240 ...).
#pragma once

#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/env.hpp"
#include "core/table.hpp"
#include "data/dataset.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "train/trainer.hpp"

namespace fekf::bench {

struct Fixture {
  data::Dataset dataset;
  std::unique_ptr<deepmd::DeepmdModel> model;
  std::vector<train::EnvPtr> train_envs;
  std::vector<train::EnvPtr> test_envs;
  std::string system;
};

/// Register the flags shared by all experiment harnesses.
inline void add_common_flags(Cli& cli) {
  cli.flag("train", "56", "training snapshots (split across temperatures)")
      .flag("test", "16", "test snapshots")
      .flag("embed", "12", "embedding width M (paper: 25)")
      .flag("axis", "6", "axis neurons M^< (paper: 16)")
      .flag("fit", "24", "fitting width d (paper: 50)")
      .flag("blocksize", "2048", "EKF covariance blocksize (paper: 10240)")
      .flag("seed", "2024", "dataset / training seed");
}

inline deepmd::ModelConfig model_config_from(const Cli& cli) {
  deepmd::ModelConfig cfg;
  cfg.embed_width = cli.get_int("embed");
  cfg.axis_neurons = cli.get_int("axis");
  cfg.fitting_width = cli.get_int("fit");
  return cfg;
}

/// Build dataset + model (stats fitted, envs prepared) for one system.
/// Each call constructs a FRESH model with identical initialization, so
/// optimizer comparisons start from the same weights.
inline Fixture make_fixture(const std::string& system, const Cli& cli) {
  Fixture f;
  f.system = system;
  const data::SystemSpec& spec = data::get_system(system);
  data::DatasetConfig dcfg;
  const i64 ntemps = static_cast<i64>(spec.temperatures.size());
  dcfg.train_per_temperature =
      std::max<i64>(1, cli.get_int("train") / ntemps);
  dcfg.test_per_temperature = std::max<i64>(1, cli.get_int("test") / ntemps);
  dcfg.seed = static_cast<u64>(cli.get_int("seed"));
  f.dataset = data::build_dataset(spec, dcfg);
  f.model = std::make_unique<deepmd::DeepmdModel>(model_config_from(cli),
                                                  spec.num_types());
  f.model->fit_stats(f.dataset.train);
  f.train_envs = train::prepare_all(*f.model, f.dataset.train);
  f.test_envs = train::prepare_all(*f.model, f.dataset.test);
  return f;
}

/// Parse a comma-separated list flag.
inline std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

inline std::vector<i64> split_int_list(const std::string& csv) {
  std::vector<i64> out;
  for (const std::string& s : split_list(csv)) {
    out.push_back(std::stoll(s));
  }
  return out;
}

inline std::string fmt(const char* format, f64 v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

inline std::string json_string_array(const std::vector<std::string>& names) {
  std::string out = "[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    out += "\"" + names[i] + "\"";
    if (i + 1 < names.size()) out += ", ";
  }
  return out + "]";
}

/// The observable surface ci/check_budgets.py --obs-doc diffs against
/// docs/OBSERVABILITY.md, as the artifact's "obs" JSON object: every
/// distinct event name `traced_leg` records with span recording on, every
/// metric registered by then, and every env knob.
inline std::string obs_inventory_json(const std::function<void()>& traced_leg) {
  auto& recorder = obs::TraceRecorder::instance();
  const bool was_enabled = obs::TraceRecorder::enabled();
  recorder.clear();
  recorder.set_enabled(true);
  traced_leg();
  recorder.set_enabled(was_enabled);
  std::set<std::string> spans;
  for (const obs::TraceEvent& e : recorder.snapshot()) spans.insert(e.name);
  recorder.clear();
  const obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
  std::set<std::string> metric_names;
  for (const auto& names :
       {metrics.counter_names(), metrics.gauge_names(),
        metrics.histogram_names()}) {
    metric_names.insert(names.begin(), names.end());
  }
  std::vector<std::string> knobs;
  for (const env::Knob& knob : env::knobs()) knobs.emplace_back(knob.name);
  return "{\n    \"spans\": " +
         json_string_array({spans.begin(), spans.end()}) +
         ",\n    \"metrics\": " +
         json_string_array({metric_names.begin(), metric_names.end()}) +
         ",\n    \"knobs\": " + json_string_array(knobs) + "\n  }";
}

}  // namespace fekf::bench

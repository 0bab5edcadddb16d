// perfbench: one process runs one workload and prints every metric it
// measured, then one JSON line with all of them. perfbench/run.py builds
// this binary and narrows that line to the metrics BENCHMARK.json lists.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny <k>]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "parallel/thread_pool.hpp"

using namespace fekf;
using namespace fekf::perfbench;

namespace {

/// Pool width of the training workloads. Width 1 would hide parallel-layer
/// gains, and width 4 on a 4-core host measures the scheduler more than the
/// code.
constexpr i64 kTrainPoolWidth = 2;
/// The serving workload runs its passes at width 1: at 32-atom cells and
/// small batches a width-2 pool hands every kernel across threads, and its
/// p50 then tracks host wake-up jitter (1.6-4.3 ms over five runs at the
/// reference rate on a shared 4-core host, against 1.2-1.8 ms at width 1).
constexpr i64 kServePoolWidth = 1;

bool parse_flags(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value != "0";
    } else if (key == "--tiny") {
      args.tiny = std::stoll(value);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flags come in --name value pairs\n");
    return false;
  }
  return !args.workload.empty() && args.seconds > 0.0 && args.tiny >= 1;
}

bool parse(int argc, char** argv, Args& args) {
  try {
    return parse_flags(argc, argv, args);
  } catch (const std::exception&) {  // a number flag that is not a number
    return false;
  }
}

std::string json_number(f64 v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--tiny <k>]\n");
    return 2;
  }
  const i64 width =
      args.workload == "serve_cu32" ? kServePoolWidth : kTrainPoolWidth;
  // The pool spawns FEKF_NUM_THREADS - 1 workers on first use (one per core
  // less one when unset); set_num_threads() alone would only cap how many
  // of them a loop uses, and idle extra workers still pick up tasks and
  // grow their own arenas (about 75 MB more peak RSS on fekf_cu_bs8).
  start_apart([width] {
    setenv("FEKF_NUM_THREADS", std::to_string(width).c_str(), 1);
    set_num_threads(width);
  });

  Report report;
  try {
    if (args.workload == "fekf_cu_bs8") {
      run_fekf_cu_bs8(args, report);
    } else if (args.workload == "rlekf_cu_paper") {
      run_rlekf_cu_paper(args, report);
    } else if (args.workload == "serve_cu32") {
      run_serve_cu32(args, report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const Metric& m : report.metrics) {
    std::printf("metric %-32s %.10g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& e : report.errors) {
    std::printf("check failed: %s\n", e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

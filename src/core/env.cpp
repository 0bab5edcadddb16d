#include "core/env.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#include "core/log.hpp"

// The environ symbol is POSIX but not declared by any standard header.
extern char** environ;

namespace fekf::env {
namespace {

// Documentation order == README table order: core runtime first, then
// observability, then per-subsystem knobs.
constexpr Knob kKnobs[] = {
    {"FEKF_NUM_THREADS",
     "Thread-pool width for all parallel_for/reduce regions "
     "(default: hardware concurrency)"},
    {"FEKF_KERNEL_BACKEND",
     "Dispatch backend: scalar|auto (default auto = the preferred variant "
     "this build compiled; every variant is bit-exact vs scalar)"},
    {"FEKF_ARENA",
     "Per-thread arena allocator for steady-state steps; 0|off|false "
     "disables (default on)"},
    {"FEKF_LOG_LEVEL",
     "Log threshold: debug|info|warn|error|off or 0-4 (default info)"},
    {"FEKF_TRACE",
     "Path for a Chrome trace_event JSON; setting it enables span "
     "recording (default off)"},
    {"FEKF_TRACE_KERNELS",
     "Also record per-kernel-launch spans in the trace; 0 disables "
     "(default off; needs FEKF_TRACE)"},
    {"FEKF_METRICS",
     "Path for a metrics-registry JSON dump at exit; setting it enables "
     "counters/histograms (default off)"},
    {"FEKF_FLIGHT",
     "Arm the flight recorder: <path>[,events=<n>] — bounded per-thread "
     "ring (n <= 1048576) dumped as a Chrome trace on faults/crashes "
     "(default off)"},
    {"FEKF_TELEMETRY",
     "Live metrics sampler: <path>[,interval=<ms>] appends one JSONL "
     "snapshot per interval (default off; interval 250ms, at most "
     "86400000ms)"},
    {"FEKF_FAULT_SPEC",
     "Fault-injection DSL, e.g. 'nan_grad@step=40 rank_fail@step=60' "
     "(default: no faults)"},
    {"FEKF_SERVE_MAX_BATCH",
     "BatchingEvaluator: max requests coalesced into one model pass "
     "(default 16)"},
    {"FEKF_SERVE_MAX_WAIT_US",
     "BatchingEvaluator: max microseconds a request waits for batch-mates "
     "(default 200; finite, at most one day)"},
    {"FEKF_SERVE_WORKERS",
     "BatchingEvaluator: number of batch-forming worker threads "
     "(default 1)"},
};

// Variables the CI harness itself exports into test/bench child processes
// (FEKF_CI_BUILD_TYPES, FEKF_CI_WIDTHS, ...). They configure the harness,
// not the library, so the unknown-knob scan must not flag them.
constexpr const char* kIgnoredPrefix = "FEKF_CI_";

bool registered(const char* name) {
  for (const Knob& k : kKnobs) {
    if (std::strcmp(k.name, name) == 0) return true;
  }
  return false;
}

// Edit distance for the "did you mean" suggestion. Names are short (< 25
// chars), so the O(n*m) two-row DP is plenty.
std::size_t edit_distance(const char* a, const char* b) {
  const std::size_t n = std::strlen(a);
  const std::size_t m = std::strlen(b);
  std::vector<std::size_t> prev(m + 1);
  std::vector<std::size_t> cur(m + 1);
  for (std::size_t j = 0; j <= m; ++j) prev[j] = j;
  for (std::size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= m; ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

std::vector<std::string> scan_unknown() {
  std::vector<std::string> unknown;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const char* entry = *e;
    const char* eq = std::strchr(entry, '=');
    if (eq == nullptr) continue;
    const std::string name(entry, static_cast<std::size_t>(eq - entry));
    if (name.rfind("FEKF_", 0) != 0) continue;
    if (name.rfind(kIgnoredPrefix, 0) == 0) continue;
    if (!registered(name.c_str())) unknown.push_back(name);
  }
  return unknown;
}

// Warn-once latch. NOT std::call_once: FEKF_WARN itself resolves
// FEKF_LOG_LEVEL through env::get on its first use, so a call_once-based
// latch would deadlock on the re-entrant same-thread lookup. The
// exchange-based latch lets the re-entrant call fall straight through.
std::atomic<bool> g_scanned{false};

}  // namespace

std::span<const Knob> knobs() { return kKnobs; }

void warn_unknown_once() {
  if (g_scanned.exchange(true, std::memory_order_acq_rel)) return;
  // Raw fprintf, not FEKF_WARN: the very first env lookup can be
  // FEKF_LOG_LEVEL from inside the logger's own magic-static
  // initialization, and routing this warning through the logger would
  // re-enter that in-progress initialization.
  for (const std::string& name : scan_unknown()) {
    std::size_t best = SIZE_MAX;
    const char* suggestion = nullptr;
    for (const Knob& k : kKnobs) {
      const std::size_t d = edit_distance(name.c_str(), k.name);
      if (d < best) {
        best = d;
        suggestion = k.name;
      }
    }
    if (suggestion != nullptr && best <= 4) {
      std::fprintf(stderr,
                   "[warn] unknown environment variable %s "
                   "(did you mean %s?)\n",
                   name.c_str(), suggestion);
    } else {
      std::fprintf(stderr,
                   "[warn] unknown environment variable %s "
                   "(not a registered FEKF_* knob)\n",
                   name.c_str());
    }
  }
}

std::span<const std::string> scan_unknown_for_test() {
  static std::vector<std::string> result;
  static std::mutex m;
  std::lock_guard<std::mutex> lock(m);
  result = scan_unknown();
  return result;
}

const char* get(const char* name) {
  FEKF_CHECK(registered(name),
             std::string("env knob '") + name +
                 "' is not registered in src/core/env.cpp");
  warn_unknown_once();
  return std::getenv(name);
}

bool is_set(const char* name) {
  const char* v = get(name);
  return v != nullptr && v[0] != '\0';
}

std::string get_or(const char* name, const std::string& fallback) {
  const char* v = get(name);
  return (v != nullptr && v[0] != '\0') ? std::string(v) : fallback;
}

i64 get_i64(const char* name, i64 fallback) {
  const char* v = get(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0') {
    FEKF_WARN << name << "='" << v << "' is not an integer; using "
              << fallback;
    return fallback;
  }
  return static_cast<i64>(parsed);
}

f64 get_f64(const char* name, f64 fallback) {
  const char* v = get(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (errno != 0 || end == v || *end != '\0') {
    FEKF_WARN << name << "='" << v << "' is not a number; using " << fallback;
    return fallback;
  }
  return parsed;
}

bool get_flag(const char* name, bool fallback) {
  const char* v = get(name);
  if (v == nullptr) return fallback;
  return !(std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
           std::strcmp(v, "false") == 0);
}

}  // namespace fekf::env

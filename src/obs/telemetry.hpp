// Live telemetry export: periodic MetricsRegistry snapshots as JSONL
// (DESIGN.md §11).
//
// FEKF_TRACE/FEKF_METRICS produce one blob at clean process exit — useless
// for watching a live trainer converge or a serving queue back up, and
// absent entirely if the process dies. The telemetry sampler appends one
// compact JSON line per interval to an append-only file:
//
//   {"t_s": 12.5, "counters": {"train.steps": 840, ...},
//    "gauges": {"train.loss_ema": ..., "serve.queue_depth": ..., ...},
//    "histograms": {"serve.request_latency_seconds":
//        {"count": n, "sum": s, "p50": ..., "p90": ..., "p99": ...}, ...}}
//
// so step rate, loss, arena bytes, queue depths, and CommLedger fields
// become greppable time-series (`jq` straight off the file, even while
// the process runs — each line is flushed).
//
// Activation: FEKF_TELEMETRY=<path>[,interval=<ms>] (default 250 ms), or
// start() programmatically. Arming also enables metrics recording. The
// sampler thread is joined — and a final sample appended — by stop(),
// which the obs exit exporter invokes before writing the end-of-run
// blobs; it is safe to call from any state.
#pragma once

#include <string>

#include "core/common.hpp"

namespace fekf::obs {

class TelemetrySampler {
 public:
  static constexpr f64 kDefaultIntervalS = 0.25;
  /// Longest accepted interval (one day). The sampler waits with
  /// cv.wait_for, whose conversion to the clock's integer ticks overflows
  /// for non-finite or huge values.
  static constexpr f64 kMaxIntervalS = 86400.0;

  /// Process-wide sampler (leaked state; the thread is joined by stop()).
  static TelemetrySampler& instance();

  /// Start sampling to `path` every `interval_s` seconds. Enables metrics
  /// recording. Throws if interval_s is outside (0, kMaxIntervalS], the
  /// sampler is already running, or the file cannot be opened.
  void start(const std::string& path, f64 interval_s = kDefaultIntervalS);

  /// Parse "<path>[,interval=<ms>]" (the FEKF_TELEMETRY grammar) and
  /// start. Throws Error on a malformed spec or an interval outside
  /// (0, kMaxIntervalS].
  void start_from_spec(const std::string& spec);

  /// Append one final sample, join the sampler thread. Idempotent; no-op
  /// when not running.
  void stop();

  bool running() const;

  /// Samples written since start() (tests poll this to avoid sleeping).
  i64 samples() const;

 private:
  TelemetrySampler();
  struct Impl;
  Impl* impl_;  // never freed
};

}  // namespace fekf::obs

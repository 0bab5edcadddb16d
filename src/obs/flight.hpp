// Flight recorder: always-cheap post-mortem tracing (DESIGN.md §11).
//
// The runs that most need explaining — divergence rollbacks, chaos-leg
// faults, crashes — are exactly the ones a full FEKF_TRACE capture is too
// expensive to leave on for. The flight recorder keeps a bounded
// per-thread ring of the most recent spans/instants (a black box of the
// last N events per thread) and flushes it as a loadable Chrome trace,
// with an embedded metrics snapshot, whenever something goes wrong:
//
//   * every FaultLog::record — divergence sentinels rolling back,
//     injected faults, cluster evictions/joins (core/fault.hpp hook);
//   * every fekf::fail / FEKF_CHECK failure (core/common.hpp hook);
//   * fatal signals (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL) and
//     std::terminate — forced dumps, then the previous handler runs.
//
// Arming: FEKF_FLIGHT=<path>[,events=<n>] (default 8192 events/thread),
// or programmatically via arm()/arm_path(). Arming sets the kFlight bit
// in TraceRecorder's capture mask, so every existing instrumentation site
// feeds the recorder's per-thread buffers with no new code; the
// disabled-path contract (one relaxed load, zero allocation) is unchanged
// because the sites gate on the same single atomic.
//
// Ring semantics: while the trace sink is off, each thread's buffer is a
// ring sized once (one allocation at the thread's first event) that then
// overwrites oldest-first; while it is on, the buffer keeps everything. A
// dump writes the newest `events` of each thread and reports the exact
// number of appended events it left out as "flightDropped". The (leaked)
// TraceRecorder owns the buffers, so spans recorded by an exited pool
// worker or std::thread survive until the dump. Dumps are throttled (min
// ~50 ms apart) except on crash paths, and re-entrant dumps (an
// FEKF_CHECK failing inside a dump) are latched out.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace fekf::obs {

class FlightRecorder {
 public:
  static constexpr i64 kDefaultCapacity = 8192;  ///< events per thread
  /// Largest accepted ring (events per thread, ~88 MiB of TraceEvent).
  /// The ring is allocated on a thread's first event, inside span
  /// destructors, so an oversized one must be refused at arm time.
  static constexpr i64 kMaxCapacity = i64{1} << 20;

  /// Process-wide recorder (leaked: outlives static destruction).
  static FlightRecorder& instance();

  /// Arm from an FEKF_FLIGHT spec: "<path>[,events=<n>]". Throws Error on
  /// a malformed spec or events outside [1, kMaxCapacity].
  void arm(const std::string& spec);
  /// Arm with an explicit dump path and per-thread ring capacity. Throws
  /// Error for a capacity outside [1, kMaxCapacity].
  void arm_path(const std::string& path, i64 capacity = kDefaultCapacity);
  /// Stop capturing and unregister the fault/failure hooks. Signal and
  /// terminate handlers stay installed (they no-op while disarmed).
  void disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Flush the newest `events` per thread + a metrics snapshot to the
  /// armed path as a Chrome trace. Returns false when disarmed, throttled,
  /// or re-entered. `force` skips the throttle (crash paths).
  bool dump(const std::string& reason, bool force = false);

  /// What a dump would write: the newest `events` of each thread, merged
  /// oldest-first by timestamp.
  std::vector<TraceEvent> ring_snapshot() const;

  /// Exact number of appended events a dump would leave out.
  u64 dropped() const;
  /// Total events appended since the last clear (dropped + retained).
  u64 appended() const;
  /// Completed dumps since arming (tests assert fault paths flushed).
  i64 dump_count() const { return dump_count_.load(std::memory_order_relaxed); }

  /// Reset the dump counters, and drop the held events unless the trace
  /// sink keeps them (arming state is unchanged).
  void clear();

  /// The armed dump path (empty while disarmed).
  std::string path() const;

 private:
  u64 capacity() const;

  FlightRecorder();

  std::atomic<bool> armed_{false};
  std::atomic<i64> dump_count_{0};

  struct Impl;
  Impl* impl_;  // never freed
};

}  // namespace fekf::obs

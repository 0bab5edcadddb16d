// Structured tracing (DESIGN.md §11 "Observability").
//
// The paper's Figure 7 evidence is *attribution*: which phase of an
// iteration the time goes to (7c) and which kernels the launches go to
// (7b). TraceRecorder collects that attribution as spans — RAII windows
// with steady-clock timestamps, a category, and up to two numeric
// arguments — into thread-local buffers, and exports the Chrome
// `trace_event` JSON format, loadable in chrome://tracing or Perfetto.
//
// Two sinks share the instrumentation sites, selected by a single capture
// bitmask so the disabled-path cost never grows with the sink count:
//  * the trace sink (FEKF_TRACE): unbounded thread-local buffers, full
//    trace written at process exit — PR 3's original behavior;
//  * the flight sink (FEKF_FLIGHT, obs/flight.hpp): bounded per-thread
//    rings holding the last N events, flushed post-mortem by fault and
//    crash handlers.
//
// Cost model (the contract every instrumentation site relies on):
//  * disabled (the default): constructing a ScopedSpan is ONE relaxed
//    atomic load and no allocation — the step hot path stays allocation-
//    free, verified by a counting-operator-new test in tests/test_obs.cpp.
//  * enabled: two steady_clock reads plus one append to a thread-local
//    buffer under an uncontended per-thread mutex (~100 ns/span). Kernel-
//    level spans (one per primitive kernel launch) are an additional
//    opt-in (FEKF_TRACE_KERNELS) on top of capturing because they run at
//    ~100x the frequency of phase spans.
//
// Activation: set FEKF_TRACE=<path> in the environment — tracing is
// enabled at startup and the Chrome trace is written to <path> at process
// exit (via an atexit exporter on intentionally-leaked state, so static
// destruction can never race or dangle it). Benches and tests can also
// drive the recorder programmatically (set_enabled / snapshot /
// write_chrome_trace).
//
// Thread ids are stable: each OS thread is assigned a small dense id the
// first time it records, and keeps it for the life of the process (pool
// workers persist, so phase spans land on the same tracks step after
// step). Buffers of exited threads are retired into the recorder, so no
// event is lost.
#pragma once

#include <map>
#include <string>
#include <vector>

#include <atomic>

#include "core/common.hpp"

namespace fekf::obs {

/// One trace event. `name` and `cat` must be string literals (or otherwise
/// outlive the recorder): events store the pointers, never copies, so the
/// enabled path does not allocate per event either.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  i64 ts_ns = 0;    ///< start, steady-clock ns since the recorder epoch
  i64 dur_ns = -1;  ///< span duration; < 0 marks an instant or flow event
  i32 tid = 0;      ///< dense stable thread id (main thread records first)
  i32 flow = 0;     ///< 0: none, 1: flow start ("s"), 2: flow finish ("f")
  u64 flow_id = 0;  ///< flow binding id (request id for serve.request)
  i32 nargs = 0;
  const char* arg_keys[2] = {nullptr, nullptr};
  f64 arg_vals[2] = {0.0, 0.0};
};

/// Chrome trace_event JSON for an arbitrary event list. `extra_json`, when
/// non-empty, is spliced verbatim as additional top-level members (must be
/// valid `"key":value` JSON text) — the flight recorder embeds the dump
/// reason, drop count, and a metrics snapshot this way.
std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              const std::string& extra_json = {});

namespace detail {
/// JSON string escaper shared by the trace/flight exporters.
void append_json_escaped(std::string& out, const char* s);
}  // namespace detail

class TraceRecorder {
 public:
  /// Capture-bitmask bits. kTrace routes events to the unbounded trace
  /// buffers; kFlight routes them to the flight recorder's rings.
  static constexpr u32 kTrace = 1u;
  static constexpr u32 kFlight = 2u;

  /// Process-wide recorder. First call pins the time epoch.
  static TraceRecorder& instance();

  /// True when any sink captures — the ONE relaxed load every span site
  /// pays while disabled.
  static bool capturing() {
    return capture_.load(std::memory_order_relaxed) != 0;
  }

  /// True when the trace sink (unbounded buffers / exit export) is on.
  static bool enabled() {
    return (capture_.load(std::memory_order_relaxed) & kTrace) != 0;
  }
  void set_enabled(bool on);

  /// Flight-sink routing (driven by FlightRecorder::arm/disarm).
  static bool flight_enabled() {
    return (capture_.load(std::memory_order_relaxed) & kFlight) != 0;
  }
  void set_flight_capture(bool on);

  /// Kernel-launch spans: only honored while some sink captures.
  static bool kernel_spans_enabled() {
    return kernel_spans_.load(std::memory_order_relaxed) && capturing();
  }
  void set_kernel_spans(bool on);

  /// Steady-clock nanoseconds since the recorder epoch.
  static i64 now_ns();

  /// Append a finished event to the capturing sinks (no-op while
  /// disabled, so late ~ScopedSpan around a set_enabled(false) is safe).
  void record(const TraceEvent& event);

  /// Record an instant event ("i" phase) with optional numeric arguments.
  void instant(const char* name, const char* cat);
  void instant(const char* name, const char* cat, const char* key, f64 value);
  void instant(const char* name, const char* cat, const char* key0, f64 val0,
               const char* key1, f64 val1);

  /// Record a flow event ("s" start / "f" finish with the same id). Flow
  /// events bind to the enclosing slice on their thread, linking e.g. a
  /// request's enqueue span to the batch span that executed it.
  void flow(const char* name, const char* cat, u64 id, bool start);

  /// Copy of every trace-sink event recorded so far (live buffers +
  /// retired threads). Flight-ring contents are NOT included — see
  /// FlightRecorder::ring_snapshot().
  std::vector<TraceEvent> snapshot() const;
  i64 event_count() const;

  /// Drop all trace-sink events (thread ids are kept).
  void clear();

  /// Total seconds of complete spans, grouped by event name (SpanClock
  /// reads the Figure 7(c) phase split from deltas of this map).
  std::map<std::string, f64> span_seconds_by_name() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}).
  std::string chrome_trace_json() const;
  void write_chrome_trace(const std::string& path) const;

  // Internal: thread-buffer registry (used by the thread_local owner).
  struct ThreadBuffer;
  ThreadBuffer& register_thread();
  void retire_thread(ThreadBuffer& buffer);

 private:
  TraceRecorder();

  static std::atomic<u32> capture_;
  static std::atomic<bool> kernel_spans_;

  struct Impl;
  Impl* impl_;  // never freed: outlives static destruction races
};

/// The phase clock: Figure 7(c) time is read from the spans the trainers
/// open around each phase, never from a second timer. Turns the trace sink
/// on for its lifetime (restoring the prior state on destruction) and
/// reports the seconds each span name accumulated since construction.
class SpanClock {
 public:
  SpanClock();
  ~SpanClock() { TraceRecorder::instance().set_enabled(was_enabled_); }
  SpanClock(const SpanClock&) = delete;
  SpanClock& operator=(const SpanClock&) = delete;

  /// Seconds of complete `name` spans recorded since construction.
  f64 seconds(const char* name) const;

 private:
  bool was_enabled_ = TraceRecorder::enabled();
  std::map<std::string, f64> before_;
};

/// RAII span. Passing a null name constructs an inert span (used by
/// conditional sites such as kernel launches). Arguments attach to the
/// span's "args" object in the export.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat = "fekf") {
    if (name != nullptr && TraceRecorder::capturing()) {
      active_ = true;
      event_.name = name;
      event_.cat = cat;
      event_.ts_ns = TraceRecorder::now_ns();
    }
  }
  ~ScopedSpan() {
    if (active_) {
      event_.dur_ns = TraceRecorder::now_ns() - event_.ts_ns;
      TraceRecorder::instance().record(event_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach a numeric argument (up to two; extras are dropped).
  void arg(const char* key, f64 value) {
    if (active_ && event_.nargs < 2) {
      event_.arg_keys[event_.nargs] = key;
      event_.arg_vals[event_.nargs] = value;
      ++event_.nargs;
    }
  }

  bool active() const { return active_; }

 private:
  TraceEvent event_;
  bool active_ = false;
};

}  // namespace fekf::obs

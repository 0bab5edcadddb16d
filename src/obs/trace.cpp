#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "core/env.hpp"
#include "core/log.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace fekf::obs {

std::atomic<u32> TraceRecorder::capture_{0};
std::atomic<bool> TraceRecorder::kernel_spans_{false};

namespace {

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

void append_json_number(std::string& out, f64 v) {
  // JSON has no NaN/Infinity literals; args carrying a diverged value
  // (e.g. a NaN ABE on a rolled-back step) export as null.
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

namespace detail {

/// JSON string escaper for names/categories/keys (all repo-controlled
/// literals, but exported files must stay valid for any input).
void append_json_escaped(std::string& out, const char* s) {
  out += '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace detail

std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              const std::string& extra_json) {
  std::string out;
  out.reserve(events.size() * 120 + extra_json.size() + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":";
    detail::append_json_escaped(out, e.name);
    out += ",\"cat\":";
    detail::append_json_escaped(out, e.cat);
    const bool complete = e.dur_ns >= 0;
    char buf[64];
    if (e.flow != 0) {
      // Flow events bind by id: "s" opens the arrow at the producer's
      // slice, "f" with bp:"e" closes it at the consumer's.
      std::snprintf(buf, sizeof(buf), ",\"ph\":\"%s\",\"id\":%llu",
                    e.flow == 1 ? "s" : "f",
                    static_cast<unsigned long long>(e.flow_id));
      out += buf;
      if (e.flow != 1) out += ",\"bp\":\"e\"";
    } else {
      out += complete ? ",\"ph\":\"X\"" : ",\"ph\":\"i\",\"s\":\"t\"";
    }
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f",
                  static_cast<f64>(e.ts_ns) * 1e-3);
    out += buf;
    if (complete) {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                    static_cast<f64>(e.dur_ns) * 1e-3);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%d",
                  static_cast<int>(e.tid));
    out += buf;
    if (e.nargs > 0) {
      out += ",\"args\":{";
      for (i32 a = 0; a < e.nargs; ++a) {
        if (a > 0) out += ",";
        detail::append_json_escaped(out, e.arg_keys[a]);
        out += ":";
        append_json_number(out, e.arg_vals[a]);
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]";
  if (!extra_json.empty()) {
    out += ",";
    out += extra_json;
  }
  out += ",\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

struct TraceRecorder::ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  i32 tid = 0;
};

struct TraceRecorder::Impl {
  mutable std::mutex registry_mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> live;
  std::vector<TraceEvent> retired;
  i32 next_tid = 0;
};

TraceRecorder::TraceRecorder() : impl_(new Impl) {
  trace_epoch();  // pin the time base at recorder construction
}

TraceRecorder& TraceRecorder::instance() {
  // Leaked singleton: pool workers retire their buffers during static
  // destruction, after which the env-driven exporter still reads them —
  // a destructed recorder would turn both into use-after-free.
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::set_enabled(bool on) {
  if (on) {
    capture_.fetch_or(kTrace, std::memory_order_relaxed);
  } else {
    capture_.fetch_and(~kTrace, std::memory_order_relaxed);
  }
}

void TraceRecorder::set_flight_capture(bool on) {
  if (on) {
    capture_.fetch_or(kFlight, std::memory_order_relaxed);
  } else {
    capture_.fetch_and(~kFlight, std::memory_order_relaxed);
  }
}

void TraceRecorder::set_kernel_spans(bool on) {
  kernel_spans_.store(on, std::memory_order_relaxed);
}

i64 TraceRecorder::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

namespace {

/// Owns the calling thread's buffer registration; retires the buffer's
/// events into the recorder when the thread exits.
struct ThreadBufferOwner {
  TraceRecorder::ThreadBuffer* buffer;
  ThreadBufferOwner() : buffer(&TraceRecorder::instance().register_thread()) {}
  ~ThreadBufferOwner() { TraceRecorder::instance().retire_thread(*buffer); }
};

TraceRecorder::ThreadBuffer& local_buffer() {
  thread_local ThreadBufferOwner owner;
  return *owner.buffer;
}

}  // namespace

TraceRecorder::ThreadBuffer& TraceRecorder::register_thread() {
  std::lock_guard<std::mutex> lock(impl_->registry_mutex);
  impl_->live.push_back(std::make_unique<ThreadBuffer>());
  impl_->live.back()->tid = impl_->next_tid++;
  return *impl_->live.back();
}

void TraceRecorder::retire_thread(ThreadBuffer& buffer) {
  std::lock_guard<std::mutex> lock(impl_->registry_mutex);
  {
    std::lock_guard<std::mutex> buf_lock(buffer.mutex);
    impl_->retired.insert(impl_->retired.end(), buffer.events.begin(),
                          buffer.events.end());
    buffer.events.clear();
  }
  // The ThreadBuffer itself stays in `live` (it keeps its tid); only its
  // events move, so a re-registered id is never reused.
}

void TraceRecorder::record(const TraceEvent& event) {
  const u32 capture = capture_.load(std::memory_order_relaxed);
  if (capture == 0) return;
  ThreadBuffer& buffer = local_buffer();
  TraceEvent copy = event;
  copy.tid = buffer.tid;
  if ((capture & kTrace) != 0) {
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.events.push_back(copy);
  }
  if ((capture & kFlight) != 0) {
    FlightRecorder::instance().append(copy);
  }
}

void TraceRecorder::instant(const char* name, const char* cat) {
  if (!capturing()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = now_ns();
  record(e);
}

void TraceRecorder::instant(const char* name, const char* cat,
                            const char* key, f64 value) {
  if (!capturing()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = now_ns();
  e.nargs = 1;
  e.arg_keys[0] = key;
  e.arg_vals[0] = value;
  record(e);
}

void TraceRecorder::instant(const char* name, const char* cat,
                            const char* key0, f64 val0, const char* key1,
                            f64 val1) {
  if (!capturing()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = now_ns();
  e.nargs = 2;
  e.arg_keys[0] = key0;
  e.arg_vals[0] = val0;
  e.arg_keys[1] = key1;
  e.arg_vals[1] = val1;
  record(e);
}

void TraceRecorder::flow(const char* name, const char* cat, u64 id,
                         bool start) {
  if (!capturing()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = now_ns();
  e.flow = start ? 1 : 2;
  e.flow_id = id;
  record(e);
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->registry_mutex);
  std::vector<TraceEvent> out = impl_->retired;
  for (const auto& buffer : impl_->live) {
    std::lock_guard<std::mutex> buf_lock(buffer->mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

i64 TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(impl_->registry_mutex);
  i64 n = static_cast<i64>(impl_->retired.size());
  for (const auto& buffer : impl_->live) {
    std::lock_guard<std::mutex> buf_lock(buffer->mutex);
    n += static_cast<i64>(buffer->events.size());
  }
  return n;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(impl_->registry_mutex);
  impl_->retired.clear();
  for (const auto& buffer : impl_->live) {
    std::lock_guard<std::mutex> buf_lock(buffer->mutex);
    buffer->events.clear();
  }
}

std::map<std::string, f64> TraceRecorder::span_seconds_by_name() const {
  std::map<std::string, f64> totals;
  for (const TraceEvent& e : snapshot()) {
    if (e.dur_ns >= 0) {
      totals[e.name] += static_cast<f64>(e.dur_ns) * 1e-9;
    }
  }
  return totals;
}

SpanClock::SpanClock() {
  TraceRecorder::instance().set_enabled(true);
  before_ = TraceRecorder::instance().span_seconds_by_name();
}

f64 SpanClock::seconds(const char* name) const {
  const auto base = before_.find(name);
  return TraceRecorder::instance().span_seconds_by_name()[name] -
         (base == before_.end() ? 0.0 : base->second);
}

std::string TraceRecorder::chrome_trace_json() const {
  return obs::chrome_trace_json(snapshot());
}

void TraceRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  FEKF_CHECK(f != nullptr, "cannot open trace file '" + path + "'");
  const std::string json = chrome_trace_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Environment activation: FEKF_TRACE=<path> enables tracing at startup and
// writes the Chrome trace at process exit; FEKF_METRICS=<path> does the
// same for the metrics registry dump; FEKF_TRACE_KERNELS=1 adds per-kernel
// spans on top of capturing; FEKF_FLIGHT arms the flight recorder and
// FEKF_TELEMETRY starts the JSONL sampler (obs/flight.hpp,
// obs/telemetry.hpp). Construction order is safe because activation
// touches instance() (leaked) before anything records.
//
// The exporter runs from std::atexit over intentionally-leaked state — an
// idempotent latch, never a static destructor — so late pool-worker
// teardown (whose thread_local retirement runs after function-local
// statics are destroyed) and crash-path flight dumps can never race a
// destructed path string. PR 4's workspace registry adopted the same
// immortal pattern for the same reason.
// ---------------------------------------------------------------------------

namespace {

struct ActivationState {
  std::string trace_path;
  std::string metrics_path;
  std::atomic<bool> exported{false};
};

ActivationState* activation_state() {
  static ActivationState* state = new ActivationState();  // leaked
  return state;
}

void fekf_obs_export_at_exit() {
  ActivationState* state = activation_state();
  if (state->exported.exchange(true, std::memory_order_acq_rel)) return;
  // Best-effort export: a failing write must not escape process teardown.
  try {
    TelemetrySampler::instance().stop();  // final sample + join
    if (!state->trace_path.empty()) {
      TraceRecorder::instance().write_chrome_trace(state->trace_path);
    }
    if (!state->metrics_path.empty()) {
      MetricsRegistry::instance().write_json(state->metrics_path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[warn] observability export failed: %s\n",
                 e.what());
  }
}

struct EnvActivation {
  EnvActivation() {
    ActivationState* state = activation_state();
    bool want_export = false;
    if (const char* path = env::get("FEKF_TRACE")) {
      if (path[0] != '\0') {
        state->trace_path = path;
        TraceRecorder::instance().set_enabled(true);
        want_export = true;
      }
    }
    if (const char* on = env::get("FEKF_TRACE_KERNELS")) {
      if (on[0] != '\0' && !(on[0] == '0' && on[1] == '\0')) {
        TraceRecorder::instance().set_kernel_spans(true);
      }
    }
    if (const char* path = env::get("FEKF_METRICS")) {
      if (path[0] != '\0') {
        state->metrics_path = path;
        set_metrics_enabled(true);
        want_export = true;
      }
    }
    if (const char* spec = env::get("FEKF_FLIGHT")) {
      if (spec[0] != '\0') {
        FlightRecorder::instance().arm(spec);
      }
    }
    if (const char* spec = env::get("FEKF_TELEMETRY")) {
      if (spec[0] != '\0') {
        TelemetrySampler::instance().start_from_spec(spec);
        want_export = true;  // stop() flushes the final sample
      }
    }
    if (want_export) {
      std::atexit(fekf_obs_export_at_exit);
    }
  }
};

const EnvActivation g_env_activation;

}  // namespace

}  // namespace fekf::obs

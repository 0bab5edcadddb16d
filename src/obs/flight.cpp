#include "obs/flight.hpp"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>

#include "core/fault.hpp"
#include "obs/metrics.hpp"

namespace fekf::obs {

namespace {

/// Dumps closer together than this are dropped (except forced crash-path
/// dumps): chaos legs record FaultLog events at step rate, and one
/// black box per fault burst is worth more than a thrashing disk. The
/// first dump after arming always fires.
constexpr i64 kMinDumpGapNs = 50'000'000;  // 50 ms

/// Re-entrancy latch: an FEKF_CHECK failing *inside* a dump (e.g. the
/// metrics serializer) must not recurse into another dump.
std::atomic<bool> g_dumping{false};

struct DumpLatch {
  bool acquired;
  DumpLatch() : acquired(!g_dumping.exchange(true)) {}
  ~DumpLatch() {
    if (acquired) g_dumping.store(false);
  }
};

void fault_hook(const FaultEvent& event) {
  FlightRecorder::instance().dump("fault: " + event.kind + " -> " +
                                  event.action);
}

void failure_hook(const char* what) {
  // Runs inside fekf::fail just before the throw; the dump must stay
  // exception-free (it is: dump() reports write errors, never throws).
  FlightRecorder::instance().dump(std::string("check failed: ") + what);
}

}  // namespace

struct FlightRecorder::Impl {
  mutable std::mutex mutex;
  std::string path;
  std::atomic<i64> capacity{FlightRecorder::kDefaultCapacity};
  std::atomic<i64> last_dump_ns{-1};
  bool handlers_installed = false;
  std::terminate_handler previous_terminate = nullptr;
};

namespace {

// Fatal-signal dump: restore the previous disposition and re-raise so the
// process still dies with the original signal (core dumps, CI reporting).
// Dumping from a signal handler is not strictly async-signal-safe; it is
// the standard crash-handler trade-off — the process is lost either way,
// and a truncated black box beats none.
struct PreviousSignal {
  int sig;
  void (*handler)(int) = SIG_DFL;
};
PreviousSignal g_previous_signals[] = {
    {SIGSEGV}, {SIGABRT}, {SIGBUS}, {SIGFPE}, {SIGILL}};

void crash_signal_handler(int sig) {
  FlightRecorder::instance().dump("fatal signal " + std::to_string(sig),
                                  /*force=*/true);
  for (const PreviousSignal& p : g_previous_signals) {
    if (p.sig == sig) {
      std::signal(sig, p.handler == SIG_IGN ? SIG_IGN : SIG_DFL);
      break;
    }
  }
  std::raise(sig);
}

void terminate_with_dump() {
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.dump("std::terminate", /*force=*/true);
  std::abort();
}

std::string events_range_error(const std::string& got) {
  return "FEKF_FLIGHT: events= wants an integer in [1, " +
         std::to_string(FlightRecorder::kMaxCapacity) + "], got '" + got +
         "'";
}

}  // namespace

FlightRecorder::FlightRecorder() : impl_(new Impl) {}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked
  return *recorder;
}

void FlightRecorder::arm(const std::string& spec) {
  std::string path = spec;
  i64 capacity = kDefaultCapacity;
  const std::size_t comma = spec.find(',');
  if (comma != std::string::npos) {
    path = spec.substr(0, comma);
    std::string rest = spec.substr(comma + 1);
    while (!rest.empty()) {
      const std::size_t next = rest.find(',');
      const std::string token = rest.substr(0, next);
      rest = next == std::string::npos ? "" : rest.substr(next + 1);
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos) {
        throw Error("FEKF_FLIGHT: expected 'key=value' in token '" + token +
                    "'");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "events") {
        char* end = nullptr;
        const long long parsed = std::strtoll(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0' || parsed < 1 ||
            parsed > kMaxCapacity) {
          throw Error(events_range_error(value));
        }
        capacity = static_cast<i64>(parsed);
      } else {
        throw Error("FEKF_FLIGHT: unknown qualifier '" + key +
                    "' (supported: events=)");
      }
    }
  }
  if (path.empty()) {
    throw Error("FEKF_FLIGHT: empty dump path");
  }
  arm_path(path, capacity);
}

void FlightRecorder::arm_path(const std::string& path, i64 capacity) {
  FEKF_CHECK(!path.empty(), "flight recorder needs a dump path");
  if (capacity < 1 || capacity > kMaxCapacity) {
    throw Error(events_range_error(std::to_string(capacity)));
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->path = path;
    impl_->capacity = capacity;
    if (!impl_->handlers_installed) {
      impl_->handlers_installed = true;
      for (PreviousSignal& p : g_previous_signals) {
        const auto previous = std::signal(p.sig, &crash_signal_handler);
        p.handler = previous == SIG_ERR ? SIG_DFL : previous;
      }
      impl_->previous_terminate = std::set_terminate(&terminate_with_dump);
    }
  }
  // Re-arming starts a fresh black box: unless the trace sink keeps them,
  // the held events and their storage go (each thread allocates the new
  // ring at its next event), and the dump counters restart from zero.
  clear();
  set_fault_hook(&fault_hook);
  set_failure_hook(&failure_hook);
  armed_.store(true, std::memory_order_relaxed);
  TraceRecorder::instance().set_flight_capture(capacity);
}

void FlightRecorder::disarm() {
  TraceRecorder::instance().set_flight_capture(0);
  armed_.store(false, std::memory_order_relaxed);
  set_fault_hook(nullptr);
  set_failure_hook(nullptr);
}

u64 FlightRecorder::capacity() const {
  return static_cast<u64>(impl_->capacity.load(std::memory_order_relaxed));
}

std::vector<TraceEvent> FlightRecorder::ring_snapshot() const {
  return TraceRecorder::instance().snapshot(capacity());
}

u64 FlightRecorder::dropped() const {
  u64 left_out = 0;
  TraceRecorder::instance().snapshot(capacity(), &left_out);
  return left_out;
}

u64 FlightRecorder::appended() const {
  return TraceRecorder::instance().appended();
}

bool FlightRecorder::dump(const std::string& reason, bool force) {
  if (!armed()) return false;
  DumpLatch latch;
  if (!latch.acquired) return false;
  const i64 now = TraceRecorder::now_ns();
  const i64 last = impl_->last_dump_ns.load(std::memory_order_relaxed);
  if (!force && last >= 0 && now - last < kMinDumpGapNs) return false;
  impl_->last_dump_ns.store(now, std::memory_order_relaxed);

  const std::string path = this->path();
  if (path.empty()) return false;

  u64 dropped = 0;
  const std::vector<TraceEvent> events =
      TraceRecorder::instance().snapshot(capacity(), &dropped);
  std::string extra = "\"dumpReason\":";
  detail::append_json_escaped(extra, reason.c_str());
  extra += ",\"flightDropped\":" + std::to_string(dropped);
  std::string metrics = MetricsRegistry::instance().json();
  while (!metrics.empty() && metrics.back() == '\n') metrics.pop_back();
  extra += ",\"metrics\":" + metrics;

  const std::string json = chrome_trace_json(events, extra);
  // No FEKF_CHECK here: dump() runs inside fail()'s notification hook and
  // from crash handlers — a failing write warns and returns.
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[warn] flight dump: cannot open '%s'\n",
                 path.c_str());
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  dump_count_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_enabled()) {
    MetricsRegistry::instance().counter("obs.flight_dumps").inc();
  }
  return true;
}

void FlightRecorder::clear() {
  // The trace sink's events are never the flight recorder's to drop.
  if (!TraceRecorder::enabled()) TraceRecorder::instance().clear();
  dump_count_.store(0, std::memory_order_relaxed);
  impl_->last_dump_ns.store(-1, std::memory_order_relaxed);
}

std::string FlightRecorder::path() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->path;
}

}  // namespace fekf::obs

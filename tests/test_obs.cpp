// Observability layer tests (DESIGN.md §11): Chrome-trace export shape,
// span nesting and thread-id stability, metrics exactness under the thread
// pool, histogram bucketing and percentile interpolation, the
// disabled-path zero-allocation contract, the KernelLaunch count/span
// bridge, the flight recorder's ring/dump semantics on the shared event
// store (alone and beside the trace sink), and the trainer observer hooks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <thread>

#include "core/fault.hpp"
#include "data/dataset.hpp"
#include "json_validator.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernel_counter.hpp"
#include "train/lcurve.hpp"
#include "train/observer.hpp"
#include "train/trainer.hpp"

// ---------------------------------------------------------------------------
// Counting global allocator: the disabled-path contract ("constructing a
// ScopedSpan is one relaxed load and no allocation") is asserted by
// counting every operator new in the process.
// ---------------------------------------------------------------------------

namespace {
std::atomic<fekf::i64> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow variants must be replaced too: libstdc++'s temporary buffers
// (std::stable_sort) allocate with `new(nothrow)` and release with sized
// delete, so leaving these to the runtime while replacing delete above
// splits one allocation family across two allocators — ASan reports it as
// an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}

// GCC's heuristic cannot see that our operator new malloc()s.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace fekf {
namespace {

using obs::MetricsRegistry;
using obs::ScopedSpan;
using obs::TraceEvent;
using obs::TraceRecorder;
using testutil::JsonValidator;

/// RAII: force tracing to a known state, restore on exit, drop any events
/// this test recorded.
class TraceScope {
 public:
  explicit TraceScope(bool enabled, bool kernel_spans = false)
      : was_enabled_(TraceRecorder::enabled()) {
    TraceRecorder::instance().clear();
    TraceRecorder::instance().set_enabled(enabled);
    TraceRecorder::instance().set_kernel_spans(kernel_spans);
  }
  ~TraceScope() {
    TraceRecorder::instance().set_kernel_spans(false);
    TraceRecorder::instance().set_enabled(was_enabled_);
    TraceRecorder::instance().clear();
  }

 private:
  bool was_enabled_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// RAII: arm the flight recorder to a fresh dump path, disarm and drop the
/// rings on exit so later tests see a disarmed recorder.
class FlightScope {
 public:
  explicit FlightScope(const std::string& path,
                       i64 capacity = obs::FlightRecorder::kDefaultCapacity) {
    obs::FlightRecorder::instance().arm_path(path, capacity);
  }
  ~FlightScope() {
    obs::FlightRecorder::instance().disarm();
    obs::FlightRecorder::instance().clear();
  }
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(Trace, ChromeExportIsWellFormedJson) {
  TraceScope scope(/*enabled=*/true);
  {
    ScopedSpan outer("outer", "test");
    outer.arg("alpha", 1.5);
    {
      ScopedSpan inner("inner", "test");
      inner.arg("beta", -2.0);
      inner.arg("gamma", 3.0);
      inner.arg("dropped", 4.0);  // third arg is dropped, not UB
    }
  }
  TraceRecorder::instance().instant("mark", "test", "step", 7.0);
  // Non-finite args (a NaN ABE on a diverged step) must export as null,
  // not as an invalid bare `nan` token.
  TraceRecorder::instance().instant(
      "diverged", "test", "abe", std::numeric_limits<f64>::quiet_NaN());

  const std::string json = TraceRecorder::instance().chrome_trace_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  // Instant events use the Chrome "i" phase with thread scope.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Trace, SpansNestAndShareTheRecordingThreadId) {
  TraceScope scope(/*enabled=*/true);
  {
    ScopedSpan outer("outer", "test");
    ScopedSpan inner("inner", "test");
  }
  auto events = TraceRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order records inner first; both land on the same thread.
  const TraceEvent& inner = events[0].dur_ns >= 0 &&
                                    std::string(events[0].name) == "inner"
                                ? events[0]
                                : events[1];
  const TraceEvent& outer = &inner == &events[0] ? events[1] : events[0];
  ASSERT_STREQ(inner.name, "inner");
  ASSERT_STREQ(outer.name, "outer");
  EXPECT_EQ(inner.tid, outer.tid);
  // Proper containment: outer starts no later and ends no earlier.
  EXPECT_LE(outer.ts_ns, inner.ts_ns);
  EXPECT_GE(outer.ts_ns + outer.dur_ns, inner.ts_ns + inner.dur_ns);
}

TEST(Trace, ThreadIdsAreStableAndDense) {
  // The guarantee is per OS thread: a thread keeps its dense id for the
  // process lifetime (which workers participate in a given parallel_for is
  // scheduling, not identity). The main thread's id must survive rounds of
  // pool work unchanged, and the id universe must stay dense and bounded
  // by the thread count instead of growing per round.
  TraceScope scope(/*enabled=*/true);
  {
    ScopedSpan span("main_span", "test");
  }
  auto events = TraceRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  const i32 main_tid = events[0].tid;
  TraceRecorder::instance().clear();

  set_num_threads(4);
  for (int round = 0; round < 3; ++round) {
    parallel_for(0, 4096, [](i64) { ScopedSpan span("work", "test"); });
  }
  set_num_threads(0);
  {
    ScopedSpan span("main_span", "test");
  }
  events = TraceRecorder::instance().snapshot();
  std::vector<i32> tids;
  i32 main_tid_after = -1;
  for (const TraceEvent& e : events) {
    tids.push_back(e.tid);
    if (std::string(e.name) == "main_span") main_tid_after = e.tid;
  }
  EXPECT_EQ(main_tid_after, main_tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  // Dense small ids: at most main + 4 pool workers ever record, and ids
  // are assigned from a small dense range, not regenerated per round.
  EXPECT_LE(tids.size(), 5u);
  for (const i32 tid : tids) {
    EXPECT_GE(tid, 0);
    EXPECT_LT(tid, 8);
  }
}

TEST(Trace, DisabledPathRecordsNothingAndAllocatesNothing) {
  TraceScope scope(/*enabled=*/false);
  ASSERT_FALSE(obs::FlightRecorder::instance().armed());
  auto& recorder = TraceRecorder::instance();
  const i64 before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    ScopedSpan span("hot", "test");
    span.arg("x", 1.0);
    KernelLaunch launch("hot_kernel");
    // The newer site kinds honor the same contract: flow links and
    // instants are no-ops (and allocation-free) while nothing captures,
    // with the flight sink disarmed.
    recorder.flow("hot_flow", "test", static_cast<u64>(i), /*start=*/true);
    recorder.instant("hot_mark", "test");
  }
  const i64 after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "disabled spans must not allocate";
  EXPECT_EQ(TraceRecorder::instance().event_count(), 0);
  EXPECT_EQ(obs::FlightRecorder::instance().appended(), 0u);
}

TEST(Trace, KernelLaunchBridgesCountsToSpans) {
  // Counting works regardless of tracing; kernel spans appear only when
  // both tracing and the kernel-span gate are on.
  {
    TraceScope scope(/*enabled=*/true, /*kernel_spans=*/false);
    KernelCountScope counts;
    { KernelLaunch launch("bridge_kernel"); }
    EXPECT_EQ(counts.count(), 1);
    EXPECT_EQ(TraceRecorder::instance().event_count(), 0);
  }
  {
    TraceScope scope(/*enabled=*/true, /*kernel_spans=*/true);
    KernelCountScope counts;
    { KernelLaunch launch("bridge_kernel"); }
    EXPECT_EQ(counts.count(), 1);
    auto events = TraceRecorder::instance().snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "bridge_kernel");
    EXPECT_STREQ(events[0].cat, "kernel");
    EXPECT_GE(events[0].dur_ns, 0);
  }
}

TEST(Trace, SpanSecondsByNameSumsCompleteSpans) {
  TraceScope scope(/*enabled=*/true);
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span("phase_a", "test");
  }
  TraceRecorder::instance().instant("not_a_span", "test");
  auto by_name = TraceRecorder::instance().span_seconds_by_name();
  ASSERT_TRUE(by_name.count("phase_a"));
  EXPECT_GE(by_name["phase_a"], 0.0);
  EXPECT_FALSE(by_name.count("not_a_span"));
}

TEST(Trace, SpanClockCountsOnlyItsWindowAndRestoresState) {
  TraceScope scope(/*enabled=*/true);
  { ScopedSpan span("phase_b", "test"); }  // before the window
  TraceRecorder::instance().set_enabled(false);
  {
    const obs::SpanClock clock;
    EXPECT_TRUE(TraceRecorder::enabled());
    EXPECT_EQ(clock.seconds("phase_b"), 0.0);
    {
      ScopedSpan span("phase_b", "test");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(clock.seconds("phase_b"), 0.0);
    EXPECT_EQ(clock.seconds("never_opened"), 0.0);
  }
  EXPECT_FALSE(TraceRecorder::enabled());
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(Flight, RetiredThreadRingSurvivesAndDumpIsLoadable) {
  TraceScope scope(/*enabled=*/false);
  const std::string path = ::testing::TempDir() + "/flight_retired.json";
  FlightScope flight(path);
  auto& recorder = obs::FlightRecorder::instance();

  std::thread worker([] {
    ScopedSpan span("retired_thread_span", "test");
    TraceRecorder::instance().instant("retired_thread_mark", "test");
  });
  worker.join();

  // The worker's ring is owned by the recorder, not the thread_local, so
  // its events survive the thread.
  bool found = false;
  for (const TraceEvent& e : recorder.ring_snapshot()) {
    if (std::string(e.name) == "retired_thread_span") found = true;
  }
  EXPECT_TRUE(found) << "exited thread's ring was lost";

  ASSERT_TRUE(recorder.dump("test dump", /*force=*/true));
  EXPECT_EQ(recorder.dump_count(), 1);
  const std::string json = read_file(path);
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("retired_thread_span"), std::string::npos);
  EXPECT_NE(json.find("\"dumpReason\":\"test dump\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

TEST(Flight, RingWraparoundKeepsNewestWithExactDropCount) {
  TraceScope scope(/*enabled=*/false);
  const std::string path = ::testing::TempDir() + "/flight_wrap.json";
  constexpr i64 kCapacity = 64;
  constexpr int kEvents = 100;
  FlightScope flight(path, kCapacity);
  auto& recorder = obs::FlightRecorder::instance();

  // A fresh thread gets a fresh ring, so the counts below are exact.
  std::thread worker([] {
    for (int i = 0; i < kEvents; ++i) {
      TraceRecorder::instance().instant("wrap", "test", "i",
                                        static_cast<f64>(i));
    }
  });
  worker.join();

  const auto events = recorder.ring_snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kCapacity));
  f64 min_arg = 1e300, max_arg = -1.0;
  for (const TraceEvent& e : events) {
    ASSERT_STREQ(e.name, "wrap");
    ASSERT_EQ(e.nargs, 1);
    min_arg = std::min(min_arg, e.arg_vals[0]);
    max_arg = std::max(max_arg, e.arg_vals[0]);
  }
  // Oldest overwritten first: exactly the newest kCapacity remain.
  EXPECT_EQ(min_arg, static_cast<f64>(kEvents - kCapacity));
  EXPECT_EQ(max_arg, static_cast<f64>(kEvents - 1));
  EXPECT_EQ(recorder.appended(), static_cast<u64>(kEvents));
  EXPECT_EQ(recorder.dropped(), static_cast<u64>(kEvents - kCapacity));
}

TEST(Flight, ArmedSteadyStateDoesNotAllocate) {
  TraceScope scope(/*enabled=*/false);
  const std::string path = ::testing::TempDir() + "/flight_steady.json";
  FlightScope flight(path, /*capacity=*/256);
  // Warm this thread's ring: the one permitted allocation (slot storage).
  TraceRecorder::instance().instant("warmup", "test");
  const i64 before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    ScopedSpan span("armed_hot", "test");
    span.arg("x", 1.0);
  }
  const i64 after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "armed flight recording must overwrite in place, not allocate";
}

/// Runs `arm(spec)` and expects a single-line fekf::Error naming `knob`.
template <typename Arm>
void expect_spec_rejected(const std::string& spec, const char* knob,
                          Arm&& arm) {
  SCOPED_TRACE(spec);
  try {
    arm(spec);
    ADD_FAILURE() << "accepted a hostile spec";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(knob), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
}

TEST(Flight, SpecParserRejectsHostileInput) {
  auto& recorder = obs::FlightRecorder::instance();
  const std::string path = ::testing::TempDir() + "/flight_spec.json";
  const std::vector<std::string> specs = {
      path + ",events",                    // missing '='
      path + ",depth=16",                  // unknown qualifier
      ",events=16",                        // empty path
      "",                                  // empty spec
      path + ",events=0",
      path + ",events=-3",
      path + ",events=12k",
      path + ",events=1048577",            // one past the per-thread cap
      path + ",events=1000000000000",
      path + ",events=99999999999999999999999",  // strtoll overflow
  };
  for (const std::string& spec : specs) {
    expect_spec_rejected(spec, "FEKF_FLIGHT",
                         [&](const std::string& s) { recorder.arm(s); });
    EXPECT_FALSE(recorder.armed()) << spec;
  }
  for (const i64 capacity : {i64{0}, obs::FlightRecorder::kMaxCapacity + 1,
                             i64{1000000000000}}) {
    expect_spec_rejected(std::to_string(capacity), "FEKF_FLIGHT",
                         [&](const std::string&) {
                           recorder.arm_path(path, capacity);
                         });
    EXPECT_FALSE(recorder.armed());
  }
  // The cap itself is accepted (the ring is only sized on first append).
  recorder.arm(path + ",events=" +
               std::to_string(obs::FlightRecorder::kMaxCapacity));
  EXPECT_TRUE(recorder.armed());
  recorder.disarm();
  recorder.clear();
}

TEST(Flight, BothSinksShareOneStoreAndEachSeesItsShare) {
  // With the trace sink on, every buffer keeps every event, so the Chrome
  // export holds all of them; the flight dump still writes only the newest
  // `events` of each thread and counts the rest as dropped.
  TraceScope scope(/*enabled=*/true);
  const std::string path = ::testing::TempDir() + "/flight_both.json";
  constexpr i64 kCapacity = 16;
  constexpr int kMainEvents = 40;
  constexpr int kWorkerEvents = 25;
  FlightScope flight(path, kCapacity);
  auto& recorder = obs::FlightRecorder::instance();

  const auto emit = [](const char* name, int n) {
    for (int i = 0; i < n; ++i) {
      TraceRecorder::instance().instant(name, "test", "i",
                                        static_cast<f64>(i));
    }
  };
  std::thread worker([&] { emit("both_worker", kWorkerEvents); });
  worker.join();
  emit("both_main", kMainEvents);

  const auto count_args = [](const std::vector<TraceEvent>& events,
                             const char* name, f64* min_arg) {
    i64 n = 0;
    *min_arg = 1e300;
    for (const TraceEvent& e : events) {
      if (std::string(e.name) != name) continue;
      ++n;
      *min_arg = std::min(*min_arg, e.arg_vals[0]);
    }
    return n;
  };
  f64 min_arg = 0.0;
  const auto all = TraceRecorder::instance().snapshot();
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kMainEvents + kWorkerEvents));
  EXPECT_EQ(count_args(all, "both_main", &min_arg), kMainEvents);
  EXPECT_EQ(min_arg, 0.0);
  EXPECT_EQ(count_args(all, "both_worker", &min_arg), kWorkerEvents);
  EXPECT_EQ(min_arg, 0.0);
  const std::string chrome = TraceRecorder::instance().chrome_trace_json();
  EXPECT_TRUE(JsonValidator(chrome).valid());

  const auto ring = recorder.ring_snapshot();
  ASSERT_EQ(ring.size(), static_cast<std::size_t>(2 * kCapacity));
  EXPECT_EQ(count_args(ring, "both_main", &min_arg), kCapacity);
  EXPECT_EQ(min_arg, static_cast<f64>(kMainEvents - kCapacity));
  EXPECT_EQ(count_args(ring, "both_worker", &min_arg), kCapacity);
  EXPECT_EQ(min_arg, static_cast<f64>(kWorkerEvents - kCapacity));
  const u64 remainder = kMainEvents + kWorkerEvents - 2 * kCapacity;
  EXPECT_EQ(recorder.dropped(), remainder);

  ASSERT_TRUE(recorder.dump("both sinks", /*force=*/true));
  const std::string json = read_file(path);
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"flightDropped\":" + std::to_string(remainder)),
            std::string::npos);
  // Disarming the flight sink leaves the trace sink's events in place.
  recorder.disarm();
  recorder.clear();
  EXPECT_EQ(TraceRecorder::instance().event_count(),
            kMainEvents + kWorkerEvents);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, CountersAndSumsAreExactAtWidth4) {
  auto& registry = MetricsRegistry::instance();
  auto& counter = registry.counter("test.exact_counter");
  auto& histogram = registry.histogram("test.exact_histogram");
  counter.reset();
  histogram.reset();

  set_num_threads(4);
  constexpr i64 kN = 20000;
  constexpr f64 kSample = 0.125;  // identical increments => exact CAS sum
  parallel_for(0, kN, [&](i64) {
    counter.inc();
    histogram.record(kSample);
  });
  set_num_threads(0);

  EXPECT_EQ(counter.value(), kN);
  EXPECT_EQ(histogram.count(), kN);
  EXPECT_DOUBLE_EQ(histogram.sum(), static_cast<f64>(kN) * kSample);
  EXPECT_DOUBLE_EQ(histogram.min(), kSample);
  EXPECT_DOUBLE_EQ(histogram.max(), kSample);
  // All identical samples land in exactly one bucket.
  i64 occupied = 0, total = 0;
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
    if (histogram.bucket_count(i) > 0) ++occupied;
    total += histogram.bucket_count(i);
  }
  EXPECT_EQ(occupied, 1);
  EXPECT_EQ(total, kN);
  counter.reset();
  histogram.reset();
}

TEST(Metrics, HistogramBucketsArePowerOfTwoInclusive) {
  obs::Histogram h;
  // An exact power of two is the *inclusive* upper bound of its bucket.
  h.record(0.03125);  // 2^-5
  int hit = -1;
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
    if (h.bucket_count(i) > 0) hit = i;
  }
  ASSERT_GE(hit, 0);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_upper_bound(hit), 0.03125);

  // Degenerate samples: non-positive and NaN underflow, huge overflows.
  h.reset();
  h.record(0.0);
  h.record(-1.0);
  h.record(std::numeric_limits<f64>::quiet_NaN());
  EXPECT_EQ(h.bucket_count(0), 3);
  h.record(1e9);
  EXPECT_EQ(h.bucket_count(obs::Histogram::kBuckets - 1), 1);
  EXPECT_EQ(h.count(), 4);
}

TEST(Metrics, RegistryJsonIsWellFormed) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("test.json_counter").inc(3);
  registry.gauge("test.json_gauge").set(2.5);
  registry.histogram("test.json_histogram").record(0.01);
  const std::string json = registry.json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"test.json_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_histogram\""), std::string::npos);
}

TEST(Metrics, HistogramPercentileInterpolates) {
  obs::Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0.0);  // empty histogram

  h.record(0.25);
  // One sample: every quantile collapses to it (clamped to [min, max]).
  EXPECT_DOUBLE_EQ(h.percentile(0.01), 0.25);
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 0.25);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.25);

  h.reset();
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-3);
  const f64 p50 = h.percentile(0.50);
  const f64 p90 = h.percentile(0.90);
  const f64 p99 = h.percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
  // Log2 buckets are coarse, but interpolation must keep the median in
  // the right neighborhood of the true 0.5 for a uniform ramp.
  EXPECT_GT(p50, 0.2);
  EXPECT_LT(p50, 1.0);
}

TEST(Metrics, RegistryJsonReportsPercentiles) {
  auto& registry = MetricsRegistry::instance();
  auto& h = registry.histogram("test.percentile_hist");
  h.reset();
  for (int i = 1; i <= 100; ++i) h.record(i * 1e-3);
  const std::string json = registry.json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  for (const char* key : {"\"p50\":", "\"p90\":", "\"p99\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  h.reset();
}

TEST(Metrics, StableReferencesAcrossLookups) {
  auto& registry = MetricsRegistry::instance();
  auto& a = registry.counter("test.stable");
  auto& b = registry.counter("test.stable");
  EXPECT_EQ(&a, &b);
}

// ---------------------------------------------------------------------------
// Trainer observer hooks
// ---------------------------------------------------------------------------

deepmd::ModelConfig tiny_model() {
  deepmd::ModelConfig cfg;
  cfg.rcut = 5.0;
  cfg.rcut_smth = 2.5;
  cfg.embed_width = 8;
  cfg.axis_neurons = 4;
  cfg.fitting_width = 16;
  return cfg;
}

TEST(Observer, LcurveStreamMatchesPostHocWrite) {
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature = 4;
  dcfg.test_per_temperature = 1;
  const data::SystemSpec& spec = data::get_system("Cu");
  data::Dataset dataset = data::build_dataset(spec, dcfg);
  deepmd::DeepmdModel model(tiny_model(), spec.num_types());
  model.fit_stats(dataset.train);
  auto train_envs = train::prepare_all(model, dataset.train);
  auto test_envs = train::prepare_all(model, dataset.test);

  const std::string dir = ::testing::TempDir();
  const std::string live_path = dir + "/lcurve_live.csv";
  const std::string replay_path = dir + "/lcurve_replay.csv";

  train::TrainOptions opts;
  opts.batch_size = 2;
  opts.max_epochs = 2;
  opts.eval_max_samples = 4;
  train::LcurveObserver lcurve(live_path);
  opts.observers = {&lcurve};

  const bool metrics_were = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  optim::KalmanConfig kcfg;
  train::KalmanTrainer trainer(model, kcfg, opts);
  train::TrainResult result =
      trainer.train(train_envs, std::span<const train::EnvPtr>(test_envs));
  obs::set_metrics_enabled(metrics_were);
  ASSERT_EQ(result.history.size(), 2u);

  // The streamed lcurve and a post-hoc write_lcurve of the same history
  // must be byte-identical (write_lcurve replays through the observer).
  train::write_lcurve(result, replay_path);
  EXPECT_EQ(read_file(live_path), read_file(replay_path));

  // The energy offset columns and gauges carry the last evaluation's
  // per-atom residual split.
  const train::Metrics& last = result.history.back().train;
  EXPECT_NE(last.energy_offset_per_atom, 0.0);
  const auto records = train::read_lcurve(live_path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_NEAR(records.back().train.energy_offset_per_atom,
              last.energy_offset_per_atom,
              1e-6 * std::abs(last.energy_offset_per_atom));
  EXPECT_NEAR(records.back().test.energy_spread_per_atom,
              result.history.back().test.energy_spread_per_atom,
              1e-6 * result.history.back().test.energy_spread_per_atom);
  auto& registry = MetricsRegistry::instance();
  EXPECT_EQ(registry.gauge("train.energy_offset_per_atom").value(),
            last.energy_offset_per_atom);
  EXPECT_EQ(registry.gauge("train.energy_spread_per_atom").value(),
            last.energy_spread_per_atom);
}

TEST(Observer, TraceCoversTrainingPhases) {
  // A traced training run must attribute every Figure 7(c) phase plus the
  // step/eval envelopes and the model layers below deepmd.predict — the
  // acceptance surface of DESIGN.md §11.
  TraceScope scope(/*enabled=*/true);
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature = 2;
  dcfg.test_per_temperature = 1;
  const data::SystemSpec& spec = data::get_system("Cu");
  data::Dataset dataset = data::build_dataset(spec, dcfg);
  deepmd::DeepmdModel model(tiny_model(), spec.num_types());
  model.fit_stats(dataset.train);
  auto train_envs = train::prepare_all(model, dataset.train);
  auto test_envs = train::prepare_all(model, dataset.test);

  train::TrainOptions opts;
  opts.batch_size = 2;
  opts.max_epochs = 1;
  opts.eval_max_samples = 2;
  optim::KalmanConfig kcfg;
  train::KalmanTrainer trainer(model, kcfg, opts);
  trainer.train(train_envs, std::span<const train::EnvPtr>(test_envs));

  auto by_name = TraceRecorder::instance().span_seconds_by_name();
  for (const char* phase :
       {"step", "eval", "forward", "gradient", "kf_update", "kalman.update",
        "deepmd.predict", "deepmd.env_build", "deepmd.embedding",
        "deepmd.descriptor", "deepmd.fitting"}) {
    EXPECT_TRUE(by_name.count(phase)) << "missing span: " << phase;
  }
  const std::string json = TraceRecorder::instance().chrome_trace_json();
  EXPECT_TRUE(JsonValidator(json).valid());

  // Adam's split comes from the same clock: its forward, gradient and
  // adam_update spans carry the epoch's time.
  const obs::SpanClock clock;
  train::AdamTrainer adam(model, optim::AdamConfig{}, {}, opts);
  adam.train(train_envs, std::span<const train::EnvPtr>(test_envs));
  for (const char* phase : {"forward", "gradient", "adam_update"}) {
    EXPECT_GT(clock.seconds(phase), 0.0) << "no Adam time in: " << phase;
  }
}

TEST(Observer, TraceTimesSnapshotAndRollback) {
  // The sentinel snapshot and rollback each run under their own span, so a
  // traced run puts their cost on the one clock: a snapshot at the start
  // and after every healthy step, a rollback for the poisoned one.
  TraceScope scope(/*enabled=*/true);
  struct InjectorGuard {
    InjectorGuard() { FaultInjector::instance().configure("nan_grad@step=1"); }
    ~InjectorGuard() { FaultInjector::instance().configure_from_env(); }
  } injector;
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature = 2;
  dcfg.test_per_temperature = 1;
  const data::SystemSpec& spec = data::get_system("Cu");
  data::Dataset dataset = data::build_dataset(spec, dcfg);
  deepmd::DeepmdModel model(tiny_model(), spec.num_types());
  model.fit_stats(dataset.train);
  auto train_envs = train::prepare_all(model, dataset.train);

  train::TrainOptions opts;
  opts.batch_size = 2;
  opts.max_epochs = 1;
  train::KalmanTrainer trainer(model, optim::KalmanConfig{}, opts);
  const train::TrainResult result = trainer.train(train_envs, {});
  ASSERT_EQ(result.faults.count("nonfinite_signal"), 1);

  i64 snapshots = 0, rollbacks = 0;
  for (const TraceEvent& e : TraceRecorder::instance().snapshot()) {
    const std::string name = e.name;
    if (name == "train.snapshot") ++snapshots;
    if (name == "train.rollback") ++rollbacks;
  }
  EXPECT_EQ(rollbacks, 1);
  // One at the start, one per healthy step; the poisoned step is skipped.
  EXPECT_EQ(snapshots, result.steps);
}

}  // namespace
}  // namespace fekf

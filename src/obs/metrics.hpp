// Metrics registry (DESIGN.md §11 "Observability").
//
// Named counters, gauges, and log-scale latency histograms, safe to update
// from any thread-pool worker. Counters are relaxed atomics (exact at any
// thread width — the test suite asserts exactness at width 4); histograms
// bucket on powers of two of seconds so one instrument spans nanosecond
// kernels to multi-second epochs; sums/min/max use CAS loops over bit-cast
// doubles, so they need no C++20 atomic-float support from the toolchain.
//
// Instrument references returned by the registry are stable for the
// process lifetime — hot paths look an instrument up once and keep the
// reference; lookups themselves take a mutex and may allocate.
//
// Recording is gated on metrics_enabled() (set by FEKF_METRICS=<path>,
// which also dumps the registry as JSON at process exit, or
// programmatically); everything is off by default.
#pragma once

#include <atomic>
#include <bit>
#include <string>
#include <vector>

#include "core/common.hpp"

namespace fekf::obs {

/// Global recording gate; FEKF_METRICS enables it at startup.
bool metrics_enabled();
void set_metrics_enabled(bool on);

namespace detail {

/// value <- value + delta on a bit-cast atomic double (portable fetch_add).
inline void atomic_f64_add(std::atomic<u64>& bits, f64 delta) {
  u64 old_bits = bits.load(std::memory_order_relaxed);
  while (!bits.compare_exchange_weak(
      old_bits, std::bit_cast<u64>(std::bit_cast<f64>(old_bits) + delta),
      std::memory_order_relaxed)) {
  }
}

inline void atomic_f64_min(std::atomic<u64>& bits, f64 v) {
  u64 old_bits = bits.load(std::memory_order_relaxed);
  while (std::bit_cast<f64>(old_bits) > v &&
         !bits.compare_exchange_weak(old_bits, std::bit_cast<u64>(v),
                                     std::memory_order_relaxed)) {
  }
}

inline void atomic_f64_max(std::atomic<u64>& bits, f64 v) {
  u64 old_bits = bits.load(std::memory_order_relaxed);
  while (std::bit_cast<f64>(old_bits) < v &&
         !bits.compare_exchange_weak(old_bits, std::bit_cast<u64>(v),
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonic integer counter. inc() is one relaxed fetch_add: exact under
/// any interleaving.
class Counter {
 public:
  void inc(i64 n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  i64 value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<i64> value_{0};
};

/// Last-written double value (e.g. the current loss EMA).
class Gauge {
 public:
  void set(f64 v) {
    bits_.store(std::bit_cast<u64>(v), std::memory_order_relaxed);
  }
  void add(f64 v) { detail::atomic_f64_add(bits_, v); }
  f64 value() const {
    return std::bit_cast<f64>(bits_.load(std::memory_order_relaxed));
  }
  void reset() { set(0.0); }

 private:
  std::atomic<u64> bits_{std::bit_cast<u64>(0.0)};
};

/// Log-scale latency histogram over seconds. Bucket i (1 <= i < kBuckets-1)
/// holds samples with 2^(kMinExp+i-1) < v <= 2^(kMinExp+i); bucket 0 is the
/// underflow bin (v <= 2^kMinExp, including non-positive samples) and the
/// last bucket is the overflow bin. 2^-30 s ≈ 1 ns .. 2^8 s = 256 s covers
/// every duration this codebase produces.
class Histogram {
 public:
  static constexpr int kMinExp = -30;
  static constexpr int kMaxExp = 8;
  static constexpr int kBuckets = kMaxExp - kMinExp + 2;

  void record(f64 seconds);

  i64 count() const { return count_.load(std::memory_order_relaxed); }
  f64 sum() const {
    return std::bit_cast<f64>(sum_bits_.load(std::memory_order_relaxed));
  }
  f64 min() const;  ///< +inf when empty
  f64 max() const;  ///< -inf when empty
  f64 mean() const;
  i64 bucket_count(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket i (+inf for the overflow bin).
  static f64 bucket_upper_bound(int i);

  /// Estimated quantile (q in [0, 1]) by linear interpolation inside the
  /// log2 bucket holding the target rank, clamped to the exact observed
  /// [min, max] (so p0/p100 are exact and a single-sample histogram
  /// returns that sample). Overflow-bin ranks return max(); an empty
  /// histogram returns 0.
  f64 percentile(f64 q) const;

  void reset();

 private:
  std::atomic<i64> buckets_[kBuckets] = {};
  std::atomic<i64> count_{0};
  std::atomic<u64> sum_bits_{std::bit_cast<u64>(0.0)};
  std::atomic<u64> min_bits_;
  std::atomic<u64> max_bits_;

 public:
  Histogram();
};

class MetricsRegistry {
 public:
  /// Process-wide registry (leaked: instruments stay valid through static
  /// destruction, when the env-driven exporter reads them).
  static MetricsRegistry& instance();

  /// Find-or-create by name. References are stable forever.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Sorted instrument names per kind (tests / tooling / the
  /// docs/OBSERVABILITY.md drift gate).
  std::vector<std::string> counter_names() const;
  std::vector<std::string> gauge_names() const;
  std::vector<std::string> histogram_names() const;

  /// The whole registry as a JSON object:
  ///   {"counters": {...}, "gauges": {...}, "histograms": {name:
  ///    {"count", "sum", "min", "max", "mean", "p50", "p90", "p99",
  ///     "buckets": [{"le", n}...]}}}
  std::string json() const;
  void write_json(const std::string& path) const;

  /// Zero every instrument (registrations survive).
  void reset();

 private:
  MetricsRegistry();
  struct Impl;
  Impl* impl_;
};

}  // namespace fekf::obs

#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

namespace fekf::obs {

namespace {

std::atomic<bool> g_metrics_enabled{false};

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_number(std::string& out, f64 v) {
  char buf[32];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  } else {
    // JSON has no inf/nan literals; emit null (empty-histogram min/max).
    std::snprintf(buf, sizeof(buf), "null");
  }
  out += buf;
}

}  // namespace

bool metrics_enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram()
    : min_bits_(std::bit_cast<u64>(std::numeric_limits<f64>::infinity())),
      max_bits_(std::bit_cast<u64>(-std::numeric_limits<f64>::infinity())) {}

void Histogram::record(f64 seconds) {
  int index = 0;
  if (seconds > 0.0 && std::isfinite(seconds)) {
    // ilogb(v) = floor(log2 v); samples exactly on a power of two belong
    // to the bucket they bound, hence the exact-power adjustment.
    int e = std::ilogb(seconds);
    if (std::exp2(e) == seconds) --e;
    index = e + 1 - kMinExp;
    if (index < 1) index = 0;
    if (index > kBuckets - 1) index = kBuckets - 1;
  } else if (!std::isfinite(seconds) && seconds > 0.0) {
    index = kBuckets - 1;
  }
  buckets_[static_cast<std::size_t>(index)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_f64_add(sum_bits_, seconds);
  detail::atomic_f64_min(min_bits_, seconds);
  detail::atomic_f64_max(max_bits_, seconds);
}

f64 Histogram::min() const {
  return std::bit_cast<f64>(min_bits_.load(std::memory_order_relaxed));
}

f64 Histogram::max() const {
  return std::bit_cast<f64>(max_bits_.load(std::memory_order_relaxed));
}

f64 Histogram::mean() const {
  const i64 n = count();
  return n > 0 ? sum() / static_cast<f64>(n) : 0.0;
}

f64 Histogram::bucket_upper_bound(int i) {
  if (i >= kBuckets - 1) return std::numeric_limits<f64>::infinity();
  return std::exp2(static_cast<f64>(kMinExp + i));
}

f64 Histogram::percentile(f64 q) const {
  const i64 n = count();
  if (n <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Target rank in [1, n]; walk the cumulative bucket counts to find the
  // bucket that holds it, then place the rank linearly inside the
  // bucket's [lower, upper] value range. Log2 buckets make this an upper
  // bound on the true quantile error of one octave; the min/max clamp
  // restores exactness at the tails.
  const f64 rank = q * static_cast<f64>(n);
  i64 cumulative = 0;
  f64 value = max();
  for (int b = 0; b < kBuckets; ++b) {
    const i64 in_bucket = bucket_count(b);
    if (in_bucket == 0) continue;
    if (static_cast<f64>(cumulative + in_bucket) >= rank) {
      if (b == kBuckets - 1) {
        value = max();  // overflow bin has no finite upper bound
      } else {
        const f64 upper = bucket_upper_bound(b);
        const f64 lower = b == 0 ? 0.0 : bucket_upper_bound(b - 1);
        const f64 frac =
            (rank - static_cast<f64>(cumulative)) / static_cast<f64>(in_bucket);
        value = lower + frac * (upper - lower);
      }
      break;
    }
    cumulative += in_bucket;
  }
  return std::min(std::max(value, min()), max());
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(std::bit_cast<u64>(0.0), std::memory_order_relaxed);
  min_bits_.store(std::bit_cast<u64>(std::numeric_limits<f64>::infinity()),
                  std::memory_order_relaxed);
  max_bits_.store(std::bit_cast<u64>(-std::numeric_limits<f64>::infinity()),
                  std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  // Node-based maps: element addresses are stable across inserts, which is
  // the "hold the reference" contract the hot paths rely on.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<std::string> MetricsRegistry::counter_names() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> names;
  names.reserve(impl_->counters.size());
  for (const auto& [name, counter] : impl_->counters) names.push_back(name);
  return names;
}

std::vector<std::string> MetricsRegistry::gauge_names() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> names;
  names.reserve(impl_->gauges.size());
  for (const auto& [name, gauge] : impl_->gauges) names.push_back(name);
  return names;
}

std::vector<std::string> MetricsRegistry::histogram_names() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> names;
  names.reserve(impl_->histograms.size());
  for (const auto& [name, hist] : impl_->histograms) names.push_back(name);
  return names;
}

std::string MetricsRegistry::json() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : impl_->counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(out, name);
    out += ": " + std::to_string(counter->value());
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : impl_->gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(out, name);
    out += ": ";
    append_number(out, gauge->value());
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : impl_->histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(out, name);
    out += ": {\"count\": " + std::to_string(hist->count()) + ", \"sum\": ";
    append_number(out, hist->sum());
    out += ", \"min\": ";
    append_number(out, hist->count() > 0 ? hist->min() : 0.0);
    out += ", \"max\": ";
    append_number(out, hist->count() > 0 ? hist->max() : 0.0);
    out += ", \"mean\": ";
    append_number(out, hist->mean());
    out += ", \"p50\": ";
    append_number(out, hist->percentile(0.50));
    out += ", \"p90\": ";
    append_number(out, hist->percentile(0.90));
    out += ", \"p99\": ";
    append_number(out, hist->percentile(0.99));
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      // Keep the dump compact: only occupied buckets are listed.
      if (hist->bucket_count(b) == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out += "{\"le\": ";
      append_number(out, Histogram::bucket_upper_bound(b));
      out += ", \"count\": " + std::to_string(hist->bucket_count(b)) + "}";
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  FEKF_CHECK(f != nullptr, "cannot open metrics file '" + path + "'");
  const std::string body = json();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& [name, counter] : impl_->counters) counter->reset();
  for (auto& [name, gauge] : impl_->gauges) gauge->reset();
  for (auto& [name, hist] : impl_->histograms) hist->reset();
}

}  // namespace fekf::obs

#include "obs/telemetry.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fekf::obs {

struct TelemetrySampler::Impl {
  std::mutex mutex;
  std::condition_variable cv;
  std::thread worker;
  std::FILE* file = nullptr;
  f64 interval_s = TelemetrySampler::kDefaultIntervalS;
  bool running = false;
  bool stopping = false;
  std::atomic<i64> samples{0};

  /// One sample = one flushed line, so the file is consumable mid-run.
  void write_sample() {
    const f64 t_s = static_cast<f64>(TraceRecorder::now_ns()) * 1e-9;
    const std::string line = MetricsRegistry::instance().compact_json(t_s);
    std::fwrite(line.data(), 1, line.size(), file);
    std::fputc('\n', file);
    std::fflush(file);
    samples.fetch_add(1, std::memory_order_relaxed);
  }

  void loop() {
    std::unique_lock<std::mutex> lock(mutex);
    while (!stopping) {
      cv.wait_for(lock, std::chrono::duration<f64>(interval_s),
                  [&] { return stopping; });
      if (stopping) break;
      write_sample();
    }
  }
};

namespace {

std::string interval_range_error(const std::string& got) {
  return "FEKF_TELEMETRY: interval= wants milliseconds in (0, " +
         std::to_string(static_cast<i64>(TelemetrySampler::kMaxIntervalS *
                                         1e3)) +
         "], got '" + got + "'";
}

}  // namespace

TelemetrySampler::TelemetrySampler() : impl_(new Impl) {}

TelemetrySampler& TelemetrySampler::instance() {
  static TelemetrySampler* sampler = new TelemetrySampler();  // leaked
  return *sampler;
}

void TelemetrySampler::start(const std::string& path, f64 interval_s) {
  // Negated so NaN fails too.
  if (!(interval_s > 0.0 && interval_s <= kMaxIntervalS)) {
    throw Error(interval_range_error(std::to_string(interval_s * 1e3)));
  }
  std::lock_guard<std::mutex> lock(impl_->mutex);
  FEKF_CHECK(!impl_->running, "telemetry sampler already running");
  impl_->file = std::fopen(path.c_str(), "w");
  FEKF_CHECK(impl_->file != nullptr,
             "cannot open telemetry file '" + path + "'");
  impl_->interval_s = interval_s;
  impl_->stopping = false;
  impl_->samples.store(0, std::memory_order_relaxed);
  set_metrics_enabled(true);
  impl_->running = true;
  impl_->worker = std::thread([this] { impl_->loop(); });
}

void TelemetrySampler::start_from_spec(const std::string& spec) {
  std::string path = spec;
  f64 interval_s = kDefaultIntervalS;
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
        throw Error("FEKF_TELEMETRY: expected 'key=value' in token '" +
                    token + "'");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "interval") {
        char* end = nullptr;
        const f64 ms = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0' ||
            !(ms > 0.0 && ms <= kMaxIntervalS * 1e3)) {
          throw Error(interval_range_error(value));
        }
        interval_s = ms * 1e-3;
      } else {
        throw Error("FEKF_TELEMETRY: unknown qualifier '" + key +
                    "' (supported: interval=)");
      }
    }
  }
  if (path.empty()) {
    throw Error("FEKF_TELEMETRY: empty output path");
  }
  start(path, interval_s);
}

void TelemetrySampler::stop() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (!impl_->running) return;
    impl_->stopping = true;
    worker = std::move(impl_->worker);
  }
  impl_->cv.notify_all();
  worker.join();
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->write_sample();  // final state, so short runs never export empty
    std::fclose(impl_->file);
    impl_->file = nullptr;
    impl_->running = false;
  }
}

bool TelemetrySampler::running() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->running;
}

i64 TelemetrySampler::samples() const {
  return impl_->samples.load(std::memory_order_relaxed);
}

}  // namespace fekf::obs

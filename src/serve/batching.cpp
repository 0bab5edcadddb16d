#include "serve/batching.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>

#include "core/env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fekf::serve {

namespace {
/// Process-wide request ids: dense, never reused, shared by every
/// evaluator instance so a trace mixing two evaluators still has unique
/// flow ids.
std::atomic<u64> g_next_request_id{1};
}  // namespace

BatchingConfig BatchingConfig::from_env() {
  BatchingConfig c;
  c.max_batch =
      std::max<i64>(1, env::get_i64("FEKF_SERVE_MAX_BATCH", c.max_batch));
  c.max_wait_s =
      std::max(0.0, env::get_f64("FEKF_SERVE_MAX_WAIT_US",
                                 c.max_wait_s * 1e6)) *
      1e-6;
  c.workers = std::max<i64>(1, env::get_i64("FEKF_SERVE_WORKERS", c.workers));
  return c;
}

BatchingEvaluator::BatchingEvaluator(const ModelRegistry& registry,
                                     BatchingConfig config)
    : registry_(registry), config_(config) {
  FEKF_CHECK(config_.max_batch >= 1, "max_batch must be >= 1");
  // Bounded to one day: a larger (or non-finite) wait overflows the
  // condition-variable deadline and spins the worker forever.
  FEKF_CHECK(std::isfinite(config_.max_wait_s) && config_.max_wait_s >= 0.0 &&
                 config_.max_wait_s <= 86400.0,
             "max_wait_s must be finite and in [0, 86400] s, got " +
                 std::to_string(config_.max_wait_s));
  FEKF_CHECK(config_.workers >= 1, "workers must be >= 1");
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (i64 w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

BatchingEvaluator::~BatchingEvaluator() { shutdown(); }

void BatchingEvaluator::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

std::future<EvalResult> BatchingEvaluator::submit(EvalRequest request) {
  // Freshness resolves NOW: serve-latest binds to the newest version at
  // submit time; later publishes do not move an already-queued request.
  const ModelSnapshot* snap = request.pin_version != 0
                                  ? registry_.version(request.pin_version)
                                  : registry_.latest();
  FEKF_CHECK(snap != nullptr,
             request.pin_version != 0
                 ? "pin_version was never published"
                 : "registry has no published model yet");

  const u64 request_id =
      g_next_request_id.fetch_add(1, std::memory_order_relaxed);
  obs::ScopedSpan enqueue_span("serve.enqueue", "serve");
  enqueue_span.arg("rid", static_cast<f64>(request_id));
  enqueue_span.arg("version", static_cast<f64>(snap->version));
  // Flow start inside the enqueue span: the arrow lands on the batch span
  // of whichever worker executes this request.
  obs::TraceRecorder::instance().flow("serve.request", "serve", request_id,
                                      /*start=*/true);

  Pending pending;
  // Geometry preprocessing on the walker's thread, not the worker's.
  pending.env = snap->model->prepare(request.snapshot);
  pending.with_forces = request.with_forces;
  pending.snapshot = snap;
  pending.request_id = request_id;
  pending.submit_seconds = registry_.now_seconds();
  pending.deadline_seconds = request.deadline_s >= 0.0
                                 ? pending.submit_seconds + request.deadline_s
                                 : -1.0;
  std::future<EvalResult> fut = pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FEKF_CHECK(!stop_, "submit after shutdown");
    queue_.push_back(std::move(pending));
    if (obs::metrics_enabled()) {
      auto& metrics = obs::MetricsRegistry::instance();
      metrics.counter("serve.requests").inc();
      metrics.gauge("serve.queue_depth")
          .set(static_cast<f64>(queue_.size()));
    }
  }
  cv_.notify_one();
  return fut;
}

EvalResult BatchingEvaluator::evaluate(const EvalRequest& request) {
  return submit(request).get();
}

std::vector<BatchingEvaluator::Pending> BatchingEvaluator::next_batch() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return {};  // stopping and drained

    // The oldest request defines the batch key: its resolved snapshot and
    // force flag. Only key-matching requests may share a predict_batch.
    const ModelSnapshot* snap = queue_.front().snapshot;
    const bool with_forces = queue_.front().with_forces;
    const f64 now = registry_.now_seconds();
    const f64 close_at = queue_.front().submit_seconds + config_.max_wait_s;

    i64 matching = 0;
    bool deadline_hit = false;
    f64 wake_at = close_at;
    for (const Pending& p : queue_) {
      if (p.snapshot == snap && p.with_forces == with_forces &&
          matching < config_.max_batch) {
        ++matching;
      }
      if (p.deadline_seconds >= 0.0) {
        if (p.deadline_seconds <= now) {
          deadline_hit = true;
        } else {
          wake_at = std::min(wake_at, p.deadline_seconds);
        }
      }
    }

    if (stop_ || matching >= config_.max_batch || now >= close_at ||
        deadline_hit) {
      std::vector<Pending> batch;
      batch.reserve(static_cast<std::size_t>(matching));
      for (auto it = queue_.begin();
           it != queue_.end() &&
           batch.size() < static_cast<std::size_t>(config_.max_batch);) {
        if (it->snapshot == snap && it->with_forces == with_forces) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      if (obs::metrics_enabled()) {
        obs::MetricsRegistry::instance()
            .gauge("serve.queue_depth")
            .set(static_cast<f64>(queue_.size()));
      }
      return batch;
    }

    cv_.wait_for(lock, std::chrono::duration<f64>(wake_at - now));
  }
}

void BatchingEvaluator::worker_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      // The batch-form span covers the whole coalescing window: waiting
      // for the first request plus the max_wait_s gathering time.
      obs::ScopedSpan form_span("serve.batch_form", "serve");
      batch = next_batch();
      form_span.arg("size", static_cast<f64>(batch.size()));
    }
    if (batch.empty()) return;
    const ModelSnapshot* snap = batch.front().snapshot;
    const bool with_forces = batch.front().with_forces;

    obs::ScopedSpan span("serve.batch", "serve");
    span.arg("size", static_cast<f64>(batch.size()));
    span.arg("version", static_cast<f64>(snap->version));
    // Flow finish per member: links each request's enqueue span (where
    // the flow started) to this batch span.
    if (obs::TraceRecorder::capturing()) {
      auto& recorder = obs::TraceRecorder::instance();
      for (const Pending& p : batch) {
        recorder.flow("serve.request", "serve", p.request_id,
                      /*start=*/false);
      }
    }

    std::vector<std::shared_ptr<const deepmd::EnvData>> envs;
    envs.reserve(batch.size());
    for (const Pending& p : batch) envs.push_back(p.env);

    const f64 eval_start = registry_.now_seconds();
    try {
      std::vector<EvalResult> results;
      {
        obs::ScopedSpan execute_span("serve.execute", "serve");
        execute_span.arg("size", static_cast<f64>(batch.size()));
        execute_span.arg("version", static_cast<f64>(snap->version));
        results = evaluate_prepared(*snap->model, envs, with_forces);
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        results[i].model_version = snap->version;
        results[i].request_id = batch[i].request_id;
        results[i].queue_seconds = eval_start - batch[i].submit_seconds;
        batch[i].promise.set_value(std::move(results[i]));
        obs::TraceRecorder::instance().instant(
            "serve.complete", "serve", "rid",
            static_cast<f64>(batch[i].request_id), "latency_s",
            registry_.now_seconds() - batch[i].submit_seconds);
      }
    } catch (...) {
      for (Pending& p : batch) {
        p.promise.set_exception(std::current_exception());
      }
    }

    // First batch served from a never-before-served version closes the
    // publish-to-first-serve window for it.
    u64 prev = max_served_version_.load(std::memory_order_relaxed);
    bool first_serve = snap->version > prev;
    while (snap->version > prev &&
           !max_served_version_.compare_exchange_weak(
               prev, snap->version, std::memory_order_relaxed)) {
      first_serve = snap->version > prev;
    }

    if (obs::metrics_enabled()) {
      auto& metrics = obs::MetricsRegistry::instance();
      metrics.counter("serve.batches").inc();
      metrics.histogram("serve.batch_occupancy")
          .record(static_cast<f64>(batch.size()));
      metrics.histogram("serve.batch_eval_seconds")
          .record(registry_.now_seconds() - eval_start);
      const f64 complete_seconds = registry_.now_seconds();
      for (const Pending& p : batch) {
        metrics.histogram("serve.queue_wait_seconds")
            .record(eval_start - p.submit_seconds);
        // Submit-to-complete: the request-level SLO bench_serving reports
        // as p50/p90/p99 and ci/budgets.json gates ("obs" section).
        metrics.histogram("serve.request_latency_seconds")
            .record(complete_seconds - p.submit_seconds);
      }
      if (first_serve) {
        metrics.histogram("serve.publish_to_first_serve_seconds")
            .record(registry_.now_seconds() - snap->publish_seconds);
      }
    }
  }
}

}  // namespace fekf::serve

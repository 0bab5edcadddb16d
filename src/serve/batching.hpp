// Request-coalescing evaluator (DESIGN.md §14).
//
// Many MD-walker threads submit EvalRequests concurrently; worker threads
// drain the queue and evaluate same-model-version runs of requests in ONE
// DeepmdModel::predict_batch pass — amortizing per-request launch overhead
// exactly the way the minibatch FEKF amortizes update overhead. Geometry
// preprocessing (prepare(), the per-snapshot neighbor/env build) runs on
// the submitting walker's thread, so the worker's critical path is pure
// model math.
//
// Freshness: a request's model version is resolved at submit time —
// serve-latest requests bind to the registry's newest version THEN, and a
// publish landing while they sit in the queue does not retroactively move
// them (no torn reads, stable batch membership). pin_version requests bind
// to that exact version; a batch only ever contains one version.
//
// Deadlines: a request with deadline_s >= 0 is dispatched no later than
// its deadline even if the batch is under-full; otherwise batches close at
// max_batch requests or max_wait_s after their oldest member, whichever
// comes first.
//
// Arena: each batch's activations come from the worker thread's arena
// (evaluate_prepared opens one ArenaScope per batch). Arming is per thread
// (tensor/workspace.hpp), so the walkers' prepare() stays on the heap and
// a trainer may run its own scopes in the same process.
#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/evaluator.hpp"
#include "serve/registry.hpp"

namespace fekf::serve {

struct BatchingConfig {
  i64 max_batch = 16;       ///< FEKF_SERVE_MAX_BATCH
  f64 max_wait_s = 200e-6;  ///< FEKF_SERVE_MAX_WAIT_US
  i64 workers = 1;          ///< FEKF_SERVE_WORKERS

  /// Defaults overridden by the FEKF_SERVE_* env knobs (core/env.hpp).
  static BatchingConfig from_env();
};

class BatchingEvaluator final : public Evaluator {
 public:
  /// The registry must have at least one published version before the
  /// first submit (submitting against an empty registry throws).
  explicit BatchingEvaluator(const ModelRegistry& registry,
                             BatchingConfig config = BatchingConfig::from_env());
  ~BatchingEvaluator() override;
  BatchingEvaluator(const BatchingEvaluator&) = delete;
  BatchingEvaluator& operator=(const BatchingEvaluator&) = delete;

  /// Asynchronous submit: resolves the model version, builds the env on
  /// the calling thread, and enqueues. Throws on unknown pin_version or
  /// empty registry; throws after shutdown().
  std::future<EvalResult> submit(EvalRequest request);

  /// Blocking evaluate == submit(...).get(). Thread-safe.
  EvalResult evaluate(const EvalRequest& request) override;

  /// Stop accepting requests, drain the queue, join the workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

 private:
  struct Pending {
    std::shared_ptr<const deepmd::EnvData> env;
    bool with_forces = true;
    const ModelSnapshot* snapshot = nullptr;  ///< resolved version
    u64 request_id = 0;                       ///< trace flow id
    f64 submit_seconds = 0.0;                 ///< registry clock
    f64 deadline_seconds = -1.0;              ///< absolute; < 0: none
    std::promise<EvalResult> promise;
  };

  void worker_loop();
  /// Pop the next batch (oldest request's version, up to max_batch
  /// members). Returns empty only when stopping and the queue is dry.
  std::vector<Pending> next_batch();

  const ModelRegistry& registry_;
  BatchingConfig config_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;

  std::atomic<u64> max_served_version_{0};
  std::vector<std::thread> workers_;
};

}  // namespace fekf::serve

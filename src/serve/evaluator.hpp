// The one stable evaluation API (DESIGN.md §14).
//
// Before this header there were three ways to ask a model for energy and
// forces: DeepmdModel::predict on a hand-prepared env, the ModelPotential
// MD adapter, and ad-hoc example code. All of them now funnel through
// EvalRequest/EvalResult value types, so the direct path, the batched
// serving path, and the MD adapter are guaranteed to speak the same
// contract (original-atom-order forces, energy in eV) — and the batched
// path is testably bit-exact against the direct one (test_serve.cpp).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "deepmd/model.hpp"
#include "md/neighbor.hpp"
#include "md/system.hpp"

namespace fekf::serve {

/// One evaluation request. The snapshot's energy/forces fields are inputs
/// to training, not to evaluation — they are ignored here.
struct EvalRequest {
  md::Snapshot snapshot;
  bool with_forces = true;

  /// Optional neighbor list already built for `snapshot` at a cutoff of at
  /// least the model's rcut (ModelPotential passes its MD step's). Read
  /// only while the request is prepared, inside evaluate() or submit();
  /// nothing keeps the pointer.
  const md::NeighborList* neighbors = nullptr;

  /// Freshness: 0 serves the latest published version at submit time;
  /// a non-zero value pins that exact version (it must exist). Only the
  /// registry-backed evaluators interpret this; the direct path always
  /// evaluates the model it wraps.
  u64 pin_version = 0;

  /// Max seconds the request may sit in a batching queue before it is
  /// dispatched even in an under-full batch; < 0 means no deadline.
  f64 deadline_s = -1.0;
};

/// One evaluation result.
struct EvalResult {
  f64 energy = 0.0;             ///< eV
  std::vector<md::Vec3> forces; ///< eV/Å, ORIGINAL atom order; empty
                                ///< unless with_forces was set
  u64 model_version = 0;        ///< registry version served (0: unversioned)
  u64 request_id = 0;           ///< per-process unique id (batching path);
                                ///< also the trace flow id linking the
                                ///< request's enqueue span to its batch
  f64 queue_seconds = 0.0;      ///< time spent queued (batching path)
  f64 eval_seconds = 0.0;       ///< model time of the (possibly shared) pass
  i64 batch_size = 1;           ///< requests coalesced into that pass
};

/// Anything that can answer an EvalRequest: DirectEvaluator (synchronous,
/// unversioned), BatchingEvaluator (batching.hpp), future remote/sharded
/// backends.
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Blocking evaluate. Thread-safe for concurrent callers.
  virtual EvalResult evaluate(const EvalRequest& request) = 0;
};

/// The single direct entrypoint: prepare + predict + scatter forces back
/// to original atom order. Everything that used to call predict() for
/// inference goes through here.
EvalResult evaluate_with(const deepmd::DeepmdModel& model,
                         const EvalRequest& request);

/// Batched entrypoint over already-prepared environments (the batching
/// queue prepares each env on its walker's thread). results[i] answers
/// envs[i]; every result's eval_seconds/batch_size describe the shared
/// pass. Bit-exact per request vs evaluate_with under the `auto` kernel
/// policy (see DeepmdModel::predict_batch).
std::vector<EvalResult> evaluate_prepared(
    const deepmd::DeepmdModel& model,
    std::span<const std::shared_ptr<const deepmd::EnvData>> envs,
    bool with_forces);

/// Convenience: prepare + evaluate a batch of requests in one shared pass.
std::vector<EvalResult> evaluate_batch_with(const deepmd::DeepmdModel& model,
                                            std::span<const EvalRequest> requests);

/// Synchronous adapter over a model the caller owns. model_version is
/// always 0 (unversioned); pin_version/deadline_s are ignored.
class DirectEvaluator final : public Evaluator {
 public:
  explicit DirectEvaluator(const deepmd::DeepmdModel& model) : model_(model) {}

  EvalResult evaluate(const EvalRequest& request) override {
    return evaluate_with(model_, request);
  }

 private:
  const deepmd::DeepmdModel& model_;
};

}  // namespace fekf::serve

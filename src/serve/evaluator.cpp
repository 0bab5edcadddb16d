#include "serve/evaluator.hpp"

#include <chrono>

#include "obs/trace.hpp"
#include "tensor/workspace.hpp"

namespace fekf::serve {

namespace {

f64 now_seconds() {
  return std::chrono::duration<f64>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Convert one Prediction into an EvalResult, scattering the type-sorted
/// force rows back to original atom order through env->perm.
EvalResult to_result(const deepmd::EnvData& env,
                     const deepmd::DeepmdModel::Prediction& pred,
                     bool with_forces) {
  EvalResult out;
  out.energy = static_cast<f64>(pred.energy.item());
  if (with_forces) {
    const Tensor& f = pred.forces.value();
    out.forces.assign(static_cast<std::size_t>(env.natoms), md::Vec3{});
    for (i64 sorted = 0; sorted < env.natoms; ++sorted) {
      const i64 orig = env.perm[static_cast<std::size_t>(sorted)];
      out.forces[static_cast<std::size_t>(orig)] =
          md::Vec3{f.at(sorted, 0), f.at(sorted, 1), f.at(sorted, 2)};
    }
  }
  return out;
}

}  // namespace

EvalResult evaluate_with(const deepmd::DeepmdModel& model,
                         const EvalRequest& request) {
  obs::ScopedSpan span("serve.evaluate", "serve");
  const f64 t0 = now_seconds();
  auto env = model.prepare(request.snapshot);
  auto pred = model.predict(env, request.with_forces);
  EvalResult out = to_result(*env, pred, request.with_forces);
  out.eval_seconds = now_seconds() - t0;
  return out;
}

std::vector<EvalResult> evaluate_prepared(
    const deepmd::DeepmdModel& model,
    std::span<const std::shared_ptr<const deepmd::EnvData>> envs,
    bool with_forces) {
  obs::ScopedSpan span("serve.evaluate_batch", "serve");
  span.arg("requests", static_cast<f64>(envs.size()));
  std::vector<EvalResult> out;
  out.reserve(envs.size());
  // The batch's activations come from this thread's arena (and its pool
  // helpers'). Only plain EvalResults leave the scope; `preds` is declared
  // after it, so every tensor dies before the arena rewinds.
  ArenaScope arena;
  const f64 t0 = now_seconds();
  auto preds = model.predict_batch(envs, with_forces);
  const f64 elapsed = now_seconds() - t0;
  for (std::size_t i = 0; i < envs.size(); ++i) {
    EvalResult r = to_result(*envs[i], preds[i], with_forces);
    r.eval_seconds = elapsed;
    r.batch_size = static_cast<i64>(envs.size());
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<EvalResult> evaluate_batch_with(
    const deepmd::DeepmdModel& model, std::span<const EvalRequest> requests) {
  FEKF_CHECK(!requests.empty(), "empty request batch");
  const bool with_forces = requests.front().with_forces;
  std::vector<std::shared_ptr<const deepmd::EnvData>> envs;
  envs.reserve(requests.size());
  for (const EvalRequest& req : requests) {
    FEKF_CHECK(req.with_forces == with_forces,
               "mixed with_forces in one batch");
    envs.push_back(model.prepare(req.snapshot));
  }
  return evaluate_prepared(model, envs, with_forces);
}

}  // namespace fekf::serve

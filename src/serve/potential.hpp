// Adapter: drive MD from any serve::Evaluator, closing the loop the paper
// motivates — train a force field in minutes, then run molecular dynamics
// with it. Replaces the old deepmd::ModelPotential, which was one of the
// three divergent evaluation paths the serve API collapses: this one is a
// thin shim over EvalRequest/EvalResult, so MD exercises exactly the code
// path the serving bench and tests gate.
#pragma once

#include <memory>

#include "md/potential.hpp"
#include "serve/evaluator.hpp"

namespace fekf::serve {

class ModelPotential final : public md::Potential {
 public:
  /// Evaluate through `evaluator` (direct or batching; non-owning, must
  /// outlive this object). `rcut` must match the served models' cutoff.
  ModelPotential(Evaluator& evaluator, f64 rcut)
      : evaluator_(&evaluator), rcut_(rcut) {}

  /// Convenience for the common single-model case: wraps `model` (which
  /// must have fitted statistics and outlive this object) in an owned
  /// DirectEvaluator.
  explicit ModelPotential(const deepmd::DeepmdModel& model)
      : owned_(std::make_unique<DirectEvaluator>(model)),
        evaluator_(owned_.get()),
        rcut_(model.config().rcut) {}

  f64 cutoff() const override { return rcut_; }

  /// Evaluates through the evaluator, handing it `nl` so the env build
  /// skips its own neighbor search: an MD step searches once.

  f64 compute(std::span<const md::Vec3> positions,
              std::span<const i32> types, const md::Cell& cell,
              const md::NeighborList& nl,
              std::span<md::Vec3> forces) const override;

 private:
  std::unique_ptr<DirectEvaluator> owned_;
  Evaluator* evaluator_;
  f64 rcut_;
};

}  // namespace fekf::serve

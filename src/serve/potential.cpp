#include "serve/potential.hpp"

namespace fekf::serve {

f64 ModelPotential::compute(std::span<const md::Vec3> positions,
                            std::span<const i32> types, const md::Cell& cell,
                            const md::NeighborList& nl,
                            std::span<md::Vec3> forces) const {
  FEKF_CHECK(positions.size() == types.size() &&
                 positions.size() == forces.size(),
             "array size mismatch");
  EvalRequest request;
  request.snapshot.cell = cell;
  request.snapshot.positions.assign(positions.begin(), positions.end());
  request.snapshot.types.assign(types.begin(), types.end());
  request.snapshot.forces.assign(positions.size(), md::Vec3{});
  request.with_forces = true;
  // The integrator's list, built at cutoff() == the model's rcut, stands in
  // for the env build's own neighbor search.
  request.neighbors = &nl;

  const EvalResult result = evaluator_->evaluate(request);
  for (std::size_t i = 0; i < forces.size(); ++i) {
    forces[i] += result.forces[i];
  }
  return result.energy;
}

}  // namespace fekf::serve

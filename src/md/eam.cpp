#include "md/eam.hpp"

#include <cmath>
#include <vector>

namespace fekf::md {

f64 SuttonChen::compute(std::span<const Vec3> positions,
                        std::span<const i32> types, const Cell& cell,
                        const NeighborList& nl,
                        std::span<Vec3> forces) const {
  (void)cell;
  (void)types;  // single-species teacher
  FEKF_CHECK(positions.size() == forces.size(), "array size mismatch");
  const i64 n = static_cast<i64>(positions.size());
  const f64 r_switch = 0.9 * rcut_;

  // Pass 1: densities rho_i (switched). Each pair's (a/r)^m is kept for
  // pass 2, which visits the pairs in the same order.
  std::vector<f64> rho(static_cast<std::size_t>(n), 0.0);
  std::vector<f64> phi;
  std::size_t pairs = 0;
  for (i64 i = 0; i < n; ++i) pairs += nl.of(i).size();
  phi.reserve(pairs);
  for (i64 i = 0; i < n; ++i) {
    f64 acc = 0.0;
    for (const Neighbor& nb : nl.of(i)) {
      if (nb.r >= rcut_) continue;
      f64 dsw = 0.0;
      const f64 sw = switch_fn(nb.r, r_switch, rcut_, dsw);
      const f64 phir = std::pow(p_.a / nb.r, p_.m);
      phi.push_back(phir);
      acc += phir * sw;
    }
    rho[static_cast<std::size_t>(i)] = acc;
  }

  // Embedding derivative dF/drho = -eps c / (2 sqrt(rho)); regularize the
  // (physically unreachable) rho -> 0 case.
  std::vector<f64> dF(static_cast<std::size_t>(n), 0.0);
  f64 energy = 0.0;
  for (i64 i = 0; i < n; ++i) {
    const f64 r_i = std::max(rho[static_cast<std::size_t>(i)], 1e-12);
    energy += -p_.epsilon * p_.c * std::sqrt(r_i);
    dF[static_cast<std::size_t>(i)] =
        -p_.epsilon * p_.c * 0.5 / std::sqrt(r_i);
  }

  // Pass 2: pair energy and forces. With the full double-counted neighbor
  // list, F_i = sum_nb [ V'(r) + (dF_i + dF_nb) phi'(r) ] * d_hat, where
  // both V and phi carry the switch.
  std::size_t pair = 0;
  for (i64 i = 0; i < n; ++i) {
    Vec3 fi{};
    const f64 dFi = dF[static_cast<std::size_t>(i)];
    for (const Neighbor& nb : nl.of(i)) {
      if (nb.r >= rcut_) continue;
      f64 dsw = 0.0;
      const f64 sw = switch_fn(nb.r, r_switch, rcut_, dsw);
      const f64 vr = p_.epsilon * std::pow(p_.a / nb.r, p_.n);
      const f64 dvr = -p_.n * vr / nb.r;
      const f64 phir = phi[pair++];
      const f64 dphir = -p_.m * phir / nb.r;
      energy += 0.5 * vr * sw;
      const f64 dV = dvr * sw + vr * dsw;
      const f64 dPhi = dphir * sw + phir * dsw;
      const f64 dFj = dF[static_cast<std::size_t>(nb.index)];
      const f64 scal = dV + (dFi + dFj) * dPhi;
      fi += scal * (nb.d / nb.r);
    }
    forces[static_cast<std::size_t>(i)] += fi;
  }
  return energy;
}

}  // namespace fekf::md

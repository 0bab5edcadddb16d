#include "deepmd/env.hpp"

#include <algorithm>
#include <numeric>

#include "deepmd/smooth.hpp"
#include "md/neighbor.hpp"

namespace fekf::deepmd {

std::shared_ptr<const EnvData> build_env(
    const md::Snapshot& snapshot, const EnvStats& stats,
    std::span<const i64> sel, const ModelConfig& config,
    const md::NeighborList* neighbors) {
  const i64 n = snapshot.natoms();
  const i32 num_types = static_cast<i32>(sel.size());
  FEKF_CHECK(n > 0, "empty snapshot");
  FEKF_CHECK(stats.davg.size() == sel.size(), "stats/sel type mismatch");

  auto env = std::make_shared<EnvData>();
  env->natoms = n;
  env->num_types = num_types;
  env->sel.assign(sel.begin(), sel.end());

  // Sort atoms by type (stable, so same-type atoms keep their order).
  env->perm.resize(static_cast<std::size_t>(n));
  std::iota(env->perm.begin(), env->perm.end(), 0);
  std::stable_sort(env->perm.begin(), env->perm.end(), [&](i64 a, i64 b) {
    return snapshot.types[static_cast<std::size_t>(a)] <
           snapshot.types[static_cast<std::size_t>(b)];
  });
  std::vector<i64> inverse_perm(static_cast<std::size_t>(n));
  for (i64 s = 0; s < n; ++s) {
    inverse_perm[static_cast<std::size_t>(env->perm[static_cast<std::size_t>(s)])] = s;
  }
  env->type_counts.assign(static_cast<std::size_t>(num_types), 0);
  for (const i32 t : snapshot.types) {
    FEKF_CHECK(t >= 0 && t < num_types, "atom type out of range");
    ++env->type_counts[static_cast<std::size_t>(t)];
  }
  env->type_offsets.assign(static_cast<std::size_t>(num_types) + 1, 0);
  for (i32 t = 0; t < num_types; ++t) {
    env->type_offsets[static_cast<std::size_t>(t) + 1] =
        env->type_offsets[static_cast<std::size_t>(t)] +
        env->type_counts[static_cast<std::size_t>(t)];
  }

  // This thread's list from its previous build keeps its storage
  // (NeighborList::build reuses it), so a serving walker's steady state
  // allocates no neighbor lists.
  thread_local md::NeighborList own;
  if (neighbors == nullptr) {
    own.build(snapshot.positions, snapshot.cell, config.rcut);
    neighbors = &own;
  }
  const md::NeighborList& nl = *neighbors;
  FEKF_CHECK(nl.size() == n && nl.rcut() >= config.rcut,
             "prebuilt neighbor list must cover every atom at a cutoff of "
             "at least rcut");
  // Only a longer list holds neighbors at or past rcut.
  const bool longer = nl.rcut() > config.rcut;

  // One Jacobian per filled slot: count them to size each type's vector.
  std::vector<i64> filled(static_cast<std::size_t>(num_types));
  std::vector<i64> slots(static_cast<std::size_t>(num_types), 0);
  for (i64 i = 0; i < n; ++i) {
    std::fill(filled.begin(), filled.end(), 0);
    for (const md::Neighbor& nb : nl.of(i)) {
      if (longer && nb.r >= config.rcut) continue;
      ++filled[static_cast<std::size_t>(
          snapshot.types[static_cast<std::size_t>(nb.index)])];
    }
    for (std::size_t t = 0; t < slots.size(); ++t) {
      slots[t] += std::min(filled[t], sel[t]);
    }
  }

  env->r_mats.reserve(static_cast<std::size_t>(num_types));
  env->jacobians.resize(static_cast<std::size_t>(num_types));
  for (i32 t = 0; t < num_types; ++t) {
    env->r_mats.push_back(
        Tensor::zeros(n * sel[static_cast<std::size_t>(t)], 4));
    env->jacobians[static_cast<std::size_t>(t)].reserve(
        static_cast<std::size_t>(slots[static_cast<std::size_t>(t)]));
  }

  // Padding slots carry the *normalized raw-zero* radial value
  // (0 - davg)/dstd and zero angular entries, exactly as DeePMD-kit pads —
  // the constant encodes "no neighbor here" and lets the descriptor see
  // coordination numbers.
  for (i32 t = 0; t < num_types; ++t) {
    Tensor& rm = env->r_mats[static_cast<std::size_t>(t)];
    const f32 pad = static_cast<f32>(
        (0.0 - stats.davg[static_cast<std::size_t>(t)]) /
        stats.dstd_r[static_cast<std::size_t>(t)]);
    for (i64 row = 0; row < rm.rows(); ++row) rm.at(row, 0) = pad;
  }

  for (i64 srt = 0; srt < n; ++srt) {
    const i64 orig = env->perm[static_cast<std::size_t>(srt)];
    std::fill(filled.begin(), filled.end(), 0);
    // Neighbor lists are distance-sorted, so the nearest neighbors of each
    // type claim the slots — truncation (if any) drops the farthest.
    for (const md::Neighbor& nb : nl.of(orig)) {
      if (longer && nb.r >= config.rcut) continue;
      const i32 t = snapshot.types[static_cast<std::size_t>(nb.index)];
      i64& cnt = filled[static_cast<std::size_t>(t)];
      if (cnt >= sel[static_cast<std::size_t>(t)]) {
        ++env->truncated_neighbors;
        continue;
      }
      const i64 row = srt * sel[static_cast<std::size_t>(t)] + cnt;
      ++cnt;
      const SmoothValue sv =
          smooth_weight(nb.r, config.rcut_smth, config.rcut);
      const f64 inv_r = 1.0 / nb.r;
      const f64 dd[3] = {nb.d.x, nb.d.y, nb.d.z};
      const f64 dhat[3] = {nb.d.x * inv_r, nb.d.y * inv_r, nb.d.z * inv_r};
      const f64 inv_std_r = 1.0 / stats.dstd_r[static_cast<std::size_t>(t)];
      const f64 inv_std_a = 1.0 / stats.dstd_a[static_cast<std::size_t>(t)];

      Tensor& rm = env->r_mats[static_cast<std::size_t>(t)];
      rm.at(row, 0) = static_cast<f32>(
          (sv.s - stats.davg[static_cast<std::size_t>(t)]) * inv_std_r);
      for (int c = 0; c < 3; ++c) {
        rm.at(row, 1 + c) = static_cast<f32>(sv.s * dhat[c] * inv_std_a);
      }

      SlotJacobian jac;
      jac.row = static_cast<i32>(row);
      jac.center = static_cast<i32>(srt);
      jac.neighbor = static_cast<i32>(
          inverse_perm[static_cast<std::size_t>(nb.index)]);
      // Row 0: d/dr_j [(s - davg)/dstd_r] = (ds/dr) dhat / dstd_r.
      for (int k = 0; k < 3; ++k) {
        jac.j[static_cast<std::size_t>(k)] = sv.ds * dhat[k] * inv_std_r;
      }
      // Rows 1..3: d/dr_j [s d_c / r] / dstd_a
      //   = [ds dhat_k d_c / r + s (delta_ck / r - d_c d_k / r^3)] / dstd_a.
      for (int c = 0; c < 3; ++c) {
        for (int k = 0; k < 3; ++k) {
          const f64 v = sv.ds * dhat[k] * dd[c] * inv_r +
                        sv.s * ((c == k ? inv_r : 0.0) -
                                dd[c] * dd[k] * inv_r * inv_r * inv_r);
          jac.j[static_cast<std::size_t>(3 * (c + 1) + k)] = v * inv_std_a;
        }
      }
      env->jacobians[static_cast<std::size_t>(t)].push_back(jac);
    }
  }

  // Labels are optional: serving/inference snapshots (EvalRequest) carry
  // geometry only, training snapshots carry teacher energy and forces.
  env->energy_label = snapshot.energy;
  env->force_label = Tensor::zeros(n, 3);
  if (static_cast<i64>(snapshot.forces.size()) == n) {
    for (i64 srt = 0; srt < n; ++srt) {
      const i64 orig = env->perm[static_cast<std::size_t>(srt)];
      const md::Vec3& f = snapshot.forces[static_cast<std::size_t>(orig)];
      env->force_label.at(srt, 0) = static_cast<f32>(f.x);
      env->force_label.at(srt, 1) = static_cast<f32>(f.y);
      env->force_label.at(srt, 2) = static_cast<f32>(f.z);
    }
  }
  return env;
}

}  // namespace fekf::deepmd

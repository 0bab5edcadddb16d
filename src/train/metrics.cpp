#include "train/metrics.hpp"

#include <cmath>

#include "tensor/workspace.hpp"

namespace fekf::train {

std::vector<EnvPtr> prepare_all(const deepmd::DeepmdModel& model,
                                std::span<const md::Snapshot> snapshots) {
  std::vector<EnvPtr> envs;
  envs.reserve(snapshots.size());
  for (const md::Snapshot& s : snapshots) {
    envs.push_back(model.prepare(s));
  }
  return envs;
}

Metrics evaluate(const deepmd::DeepmdModel& model,
                 std::span<const EnvPtr> envs, i64 max_samples,
                 bool with_forces) {
  FEKF_CHECK(!envs.empty(), "evaluate on empty set");
  const i64 n = max_samples < 0
                    ? static_cast<i64>(envs.size())
                    : std::min<i64>(max_samples,
                                    static_cast<i64>(envs.size()));
  f64 se_e = 0.0, se_epa = 0.0, sum_epa = 0.0, se_f = 0.0;
  std::vector<f64> dea_all(static_cast<std::size_t>(n));
  i64 f_count = 0;
  for (i64 s = 0; s < n; ++s) {
    // One arena scope per sample: `pred` is declared after it, so the
    // pass's activations die before the scope rewinds.
    ArenaScope arena;
    const EnvPtr& env = envs[static_cast<std::size_t>(s)];
    auto pred = model.predict(env, with_forces);
    const f64 de = static_cast<f64>(pred.energy.item()) - env->energy_label;
    se_e += de * de;
    const f64 dea = de / static_cast<f64>(env->natoms);
    se_epa += dea * dea;
    sum_epa += dea;
    dea_all[static_cast<std::size_t>(s)] = dea;
    if (with_forces) {
      const Tensor& f = pred.forces.value();
      const Tensor& y = env->force_label;
      for (i64 i = 0; i < f.numel(); ++i) {
        const f64 d = static_cast<f64>(f.data()[i]) - y.data()[i];
        se_f += d * d;
      }
      f_count += f.numel();
    }
  }
  Metrics m;
  m.energy_rmse = std::sqrt(se_e / static_cast<f64>(n));
  m.energy_rmse_per_atom = std::sqrt(se_epa / static_cast<f64>(n));
  m.energy_offset_per_atom = sum_epa / static_cast<f64>(n);
  f64 se_spread = 0.0;
  for (const f64 d : dea_all) {
    const f64 c = d - m.energy_offset_per_atom;
    se_spread += c * c;
  }
  m.energy_spread_per_atom = std::sqrt(se_spread / static_cast<f64>(n));
  if (f_count > 0) {
    m.force_rmse = std::sqrt(se_f / static_cast<f64>(f_count));
  }
  return m;
}

}  // namespace fekf::train

#include "deepmd/model.hpp"

#include <cstring>

#include "deepmd/bmm.hpp"
#include "deepmd/jacobian_ops.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace fekf::deepmd {

namespace op = ag::ops;
using ag::Variable;

DeepmdModel::DeepmdModel(ModelConfig config, i32 num_types)
    : config_(config), num_types_(num_types) {
  FEKF_CHECK(num_types >= 1, "num_types must be >= 1");
  FEKF_CHECK(config.embed_width >= config.axis_neurons,
             "axis_neurons (M^<) cannot exceed embed_width (M)");
  Rng rng(config.init_seed);
  for (i32 t = 0; t < num_types; ++t) {
    embeddings_.emplace_back(config.embed_width,
                             "embed" + std::to_string(t), rng);
  }
  const i64 descriptor_dim = config.embed_width * config.axis_neurons;
  for (i32 t = 0; t < num_types; ++t) {
    fittings_.emplace_back(descriptor_dim, config.fitting_width,
                           "fit" + std::to_string(t), rng);
  }
}

void DeepmdModel::fit_stats(std::span<const md::Snapshot> train) {
  EnvStats env_stats =
      compute_env_stats(train, num_types_, config_);
  EnergyStats energy_stats = compute_energy_stats(train, num_types_);
  set_stats(std::move(env_stats), std::move(energy_stats));
}

void DeepmdModel::set_stats(EnvStats env_stats, EnergyStats energy_stats) {
  env_stats_ = std::move(env_stats);
  energy_stats_ = std::move(energy_stats);
  sel_ = config_.sel.empty() ? env_stats_.suggested_sel : config_.sel;
  FEKF_CHECK(static_cast<i32>(sel_.size()) == num_types_,
             "sel size must equal num_types");
  stats_ready_ = true;
}

std::shared_ptr<const EnvData> DeepmdModel::prepare(
    const md::Snapshot& snapshot, const md::NeighborList* neighbors) const {
  FEKF_CHECK(stats_ready_, "call fit_stats() before prepare()");
  obs::ScopedSpan span("deepmd.env_build", "deepmd");
  return build_env(snapshot, env_stats_, sel_, config_, neighbors);
}

Variable DeepmdModel::descriptor(const std::vector<Variable>& r_leaves,
                                 const std::vector<Variable>& g_mats,
                                 i64 natoms) const {
  obs::ScopedSpan span("deepmd.descriptor", "deepmd");
  const i64 m = config_.embed_width;
  const i64 m_axis = config_.axis_neurons;
  i64 nm_total = 0;
  for (const i64 s : sel_) nm_total += s;
  const f32 inv_nm = 1.0f / static_cast<f32>(nm_total);

  if (config_.fusion >= FusionLevel::kOpt1) {
    // Fused path: batched kernels over all atoms (one launch each).
    Variable a;
    for (i32 t = 0; t < num_types_; ++t) {
      Variable at = bmm_tn(g_mats[static_cast<std::size_t>(t)],
                           r_leaves[static_cast<std::size_t>(t)],
                           sel_[static_cast<std::size_t>(t)]);
      a = a.defined() ? op::add(a, at) : at;
    }
    a = op::scale(a, inv_nm);
    Variable a_axis = block_slice_rows(a, m, 0, m_axis);
    Variable d_blocks = bmm_nt(a, a_axis, m, m_axis);
    return op::reshape(d_blocks, natoms, m * m_axis);
  }

  // Baseline path: per-atom composed primitives, the fragmented-kernel
  // behaviour of framework autograd that Figure 7(b) quantifies.
  Variable d;
  for (i64 i = 0; i < natoms; ++i) {
    Variable a_i;
    for (i32 t = 0; t < num_types_; ++t) {
      const i64 st = sel_[static_cast<std::size_t>(t)];
      Variable g_i =
          op::slice_rows(g_mats[static_cast<std::size_t>(t)], i * st,
                         (i + 1) * st);
      Variable r_i =
          op::slice_rows(r_leaves[static_cast<std::size_t>(t)], i * st,
                         (i + 1) * st);
      Variable a_t = op::matmul_tn(g_i, r_i);
      a_i = a_i.defined() ? op::add(a_i, a_t) : a_t;
    }
    a_i = op::scale(a_i, inv_nm);
    Variable a_axis = op::slice_rows(a_i, 0, m_axis);
    Variable d_i = op::matmul_nt(a_i, a_axis);  // M x M^<
    Variable d_row = op::reshape(d_i, 1, m * m_axis);
    d = d.defined() ? op::concat_rows(d, d_row) : d_row;
  }
  return d;
}

DeepmdModel::Prediction DeepmdModel::predict(
    const std::shared_ptr<const EnvData>& env, bool with_forces) const {
  FEKF_CHECK(stats_ready_, "call fit_stats() before predict()");
  FEKF_CHECK(env != nullptr, "null env");
  obs::ScopedSpan span("deepmd.predict", "deepmd");
  span.arg("natoms", static_cast<f64>(env->natoms));
  span.arg("with_forces", with_forces ? 1.0 : 0.0);
  const i64 natoms = env->natoms;

  // Environment-matrix leaves (one per neighbor type). They require grad
  // only when forces are needed: dE/dR~ feeds the Jacobian force map.
  std::vector<Variable> r_leaves;
  r_leaves.reserve(static_cast<std::size_t>(num_types_));
  for (i32 t = 0; t < num_types_; ++t) {
    r_leaves.emplace_back(env->r_mats[static_cast<std::size_t>(t)],
                          /*requires_grad=*/with_forces);
  }

  // Embedding nets on the radial column.
  std::vector<Variable> g_mats;
  g_mats.reserve(static_cast<std::size_t>(num_types_));
  for (i32 t = 0; t < num_types_; ++t) {
    Variable s = op::slice_cols(r_leaves[static_cast<std::size_t>(t)], 0, 1);
    g_mats.push_back(embeddings_[static_cast<std::size_t>(t)].forward(
        s, config_.fusion));
  }

  Variable d = descriptor(r_leaves, g_mats, natoms);

  // Per center-type fitting nets over the type-sorted descriptor rows.
  Variable e_norm;
  for (i32 ct = 0; ct < num_types_; ++ct) {
    const i64 begin = env->type_offsets[static_cast<std::size_t>(ct)];
    const i64 end = env->type_offsets[static_cast<std::size_t>(ct) + 1];
    if (begin == end) continue;
    Variable d_ct =
        (begin == 0 && end == natoms) ? d : op::slice_rows(d, begin, end);
    Variable e_ct =
        fittings_[static_cast<std::size_t>(ct)].forward(d_ct, config_.fusion);
    Variable e_sum = op::sum_all(e_ct);
    e_norm = e_norm.defined() ? op::add(e_norm, e_sum) : e_sum;
  }

  f64 bias_total = 0.0;
  for (i32 t = 0; t < num_types_; ++t) {
    bias_total += energy_stats_.bias_per_type[static_cast<std::size_t>(t)] *
                  static_cast<f64>(env->type_counts[static_cast<std::size_t>(t)]);
  }

  Prediction out;
  out.energy = op::add_scalar(e_norm, static_cast<f32>(bias_total));

  if (with_forces) {
    // dE/dR~ with create_graph so the force stays differentiable w.r.t.
    // the weights (needed by the force loss / EKF force measurement).
    auto grad_r = ag::grad(e_norm, r_leaves, /*grad_root=*/{},
                           /*create_graph=*/true);
    Variable f;
    for (i32 t = 0; t < num_types_; ++t) {
      Variable ft = jacobian_force(grad_r[static_cast<std::size_t>(t)], env, t);
      f = f.defined() ? op::add(f, ft) : ft;
    }
    out.forces = f;
  }
  return out;
}

std::vector<DeepmdModel::Prediction> DeepmdModel::predict_batch(
    std::span<const std::shared_ptr<const EnvData>> envs,
    bool with_forces) const {
  FEKF_CHECK(stats_ready_, "call fit_stats() before predict_batch()");
  if (envs.empty()) return {};
  if (envs.size() == 1) return {predict(envs[0], with_forces)};

  const i64 n = static_cast<i64>(envs.size());
  obs::ScopedSpan span("deepmd.predict_batch", "deepmd");
  span.arg("requests", static_cast<f64>(n));

  // Atom order for the whole batch: CENTER-TYPE-major, env-minor — all
  // type-0 atoms (env 0's block, then env 1's, ...), then all type-1
  // atoms, and so on. Each env's slice of a type block is its own
  // type-sorted sub-block, so (a) the per-type fitting input is ONE
  // contiguous row range of the descriptor instead of per-env slices, and
  // (b) an env's rows, visited in ascending type order, reproduce its
  // internal atom order exactly. Everything per-env below is plain
  // memcpy / numeric reduction on values, never autograd ops: the batch
  // graph carries the same node count as a single predict(), which is
  // where the launch amortization comes from.
  const std::size_t nt = static_cast<std::size_t>(num_types_);
  std::vector<i64> ct_atom_base(nt + 1, 0);
  std::vector<std::vector<i64>> env_atom0(
      nt, std::vector<i64>(static_cast<std::size_t>(n), 0));
  for (i32 ct = 0; ct < num_types_; ++ct) {
    i64 acc = ct_atom_base[static_cast<std::size_t>(ct)];
    for (i64 i = 0; i < n; ++i) {
      const auto& env = envs[static_cast<std::size_t>(i)];
      FEKF_CHECK(env != nullptr, "null env in predict_batch");
      FEKF_CHECK(static_cast<i32>(env->r_mats.size()) == num_types_,
                 "env/model num_types mismatch in predict_batch");
      env_atom0[static_cast<std::size_t>(ct)][static_cast<std::size_t>(i)] =
          acc;
      acc += env->type_counts[static_cast<std::size_t>(ct)];
    }
    ct_atom_base[static_cast<std::size_t>(ct) + 1] = acc;
  }
  const i64 total_atoms = ct_atom_base[nt];
  span.arg("natoms", static_cast<f64>(total_atoms));

  // One environment-matrix leaf per neighbor type, sel_t rows per atom in
  // the global atom order. Concatenation is a plain copy outside the
  // graph: the leaves are roots, so no op sees the per-env tensors.
  std::vector<Variable> r_leaves;
  r_leaves.reserve(nt);
  for (i32 t = 0; t < num_types_; ++t) {
    const i64 sel_t = sel_[static_cast<std::size_t>(t)];
    // Uninitialized: the per-(ct, env) copies below cover every atom's
    // rows exactly once (the ct blocks partition the atom range).
    Tensor cat(total_atoms * sel_t, 4);
    for (i32 ct = 0; ct < num_types_; ++ct) {
      for (i64 i = 0; i < n; ++i) {
        const auto& env = envs[static_cast<std::size_t>(i)];
        const i64 a0 = env->type_offsets[static_cast<std::size_t>(ct)];
        const i64 a1 = env->type_offsets[static_cast<std::size_t>(ct) + 1];
        if (a0 == a1) continue;
        std::memcpy(
            cat.data() +
                env_atom0[static_cast<std::size_t>(ct)]
                         [static_cast<std::size_t>(i)] * sel_t * 4,
            env->r_mats[static_cast<std::size_t>(t)].data() + a0 * sel_t * 4,
            static_cast<std::size_t>((a1 - a0) * sel_t * 4) * sizeof(f32));
      }
    }
    r_leaves.emplace_back(std::move(cat), /*requires_grad=*/with_forces);
  }

  // Embeddings / descriptor: predict() verbatim, over the batch rows.
  std::vector<Variable> g_mats;
  g_mats.reserve(nt);
  for (i32 t = 0; t < num_types_; ++t) {
    Variable s = op::slice_cols(r_leaves[static_cast<std::size_t>(t)], 0, 1);
    g_mats.push_back(embeddings_[static_cast<std::size_t>(t)].forward(
        s, config_.fusion));
  }

  Variable d = descriptor(r_leaves, g_mats, total_atoms);

  // Fitting per center type: one contiguous slice of the type-major
  // descriptor — the same per-ct op sequence as predict(), regardless of
  // batch width.
  std::vector<Variable> e_ct_all(nt);
  for (i32 ct = 0; ct < num_types_; ++ct) {
    const i64 begin = ct_atom_base[static_cast<std::size_t>(ct)];
    const i64 end = ct_atom_base[static_cast<std::size_t>(ct) + 1];
    if (begin == end) continue;
    Variable d_ct = (begin == 0 && end == total_atoms)
                        ? d
                        : op::slice_rows(d, begin, end);
    e_ct_all[static_cast<std::size_t>(ct)] =
        fittings_[static_cast<std::size_t>(ct)].forward(d_ct, config_.fusion);
  }

  // Per-env energies, computed numerically from the fitting values with
  // the exact arithmetic predict() performs: sum_all on a cnt-row tensor
  // is parallel_reduce_f64 over [0, cnt) with a fixed chunk length — the
  // partition depends only on the element count, which is this env's own
  // row count in both paths — followed by f32 adds in ascending
  // center-type order and one f32 bias add.
  std::vector<Prediction> out(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    const auto& env = envs[static_cast<std::size_t>(i)];
    f32 e_norm = 0.0f;
    bool have = false;
    for (i32 ct = 0; ct < num_types_; ++ct) {
      const i64 cnt = env->type_counts[static_cast<std::size_t>(ct)];
      if (cnt == 0) continue;
      const Tensor& e_ct = e_ct_all[static_cast<std::size_t>(ct)].value();
      const f32* pe =
          e_ct.data() +
          (env_atom0[static_cast<std::size_t>(ct)]
                    [static_cast<std::size_t>(i)] -
           ct_atom_base[static_cast<std::size_t>(ct)]) * e_ct.cols();
      const i64 elems = cnt * e_ct.cols();
      const f64 acc = parallel_reduce_f64(
          0, elems, kReduceChunk, [pe](i64 lo, i64 hi) {
            f64 s = 0.0;
            for (i64 j = lo; j < hi; ++j) s += pe[j];
            return s;
          });
      const f32 e_sum = static_cast<f32>(acc);
      e_norm = have ? e_norm + e_sum : e_sum;
      have = true;
    }
    f64 bias_total = 0.0;
    for (i32 t = 0; t < num_types_; ++t) {
      bias_total +=
          energy_stats_.bias_per_type[static_cast<std::size_t>(t)] *
          static_cast<f64>(env->type_counts[static_cast<std::size_t>(t)]);
    }
    out[static_cast<std::size_t>(i)].energy = Variable(
        Tensor::scalar(e_norm + static_cast<f32>(bias_total)),
        /*requires_grad=*/false);
  }

  if (with_forces) {
    // One backward pass for the whole batch. sum_all + add backward seed
    // every fitting-output row's gradient with exactly 1.0 — the same
    // seeds the per-env chains in predict() produce — and every backward
    // kernel in the chain is row/block-independent, so each env's block
    // of dE/dR~ is bit-identical to its single-env backward.
    Variable e_total;
    for (i32 ct = 0; ct < num_types_; ++ct) {
      const Variable& e_ct = e_ct_all[static_cast<std::size_t>(ct)];
      if (!e_ct.defined()) continue;
      Variable s = op::sum_all(e_ct);
      e_total = e_total.defined() ? op::add(e_total, s) : s;
    }
    auto grad_r = ag::grad(e_total, r_leaves, /*grad_root=*/{},
                           /*create_graph=*/false);
    for (i64 i = 0; i < n; ++i) {
      const auto& env = envs[static_cast<std::size_t>(i)];
      Variable f;
      for (i32 t = 0; t < num_types_; ++t) {
        const i64 sel_t = sel_[static_cast<std::size_t>(t)];
        // Uninitialized: the ct blocks partition [0, natoms), so the
        // copies below write every row.
        Tensor g_env(env->natoms * sel_t, 4);
        for (i32 ct = 0; ct < num_types_; ++ct) {
          const i64 a0 = env->type_offsets[static_cast<std::size_t>(ct)];
          const i64 a1 = env->type_offsets[static_cast<std::size_t>(ct) + 1];
          if (a0 == a1) continue;
          std::memcpy(
              g_env.data() + a0 * sel_t * 4,
              grad_r[static_cast<std::size_t>(t)].value().data() +
                  env_atom0[static_cast<std::size_t>(ct)]
                           [static_cast<std::size_t>(i)] * sel_t * 4,
              static_cast<std::size_t>((a1 - a0) * sel_t * 4) * sizeof(f32));
        }
        Variable ft = jacobian_force(
            Variable(std::move(g_env), /*requires_grad=*/false),
            env, t);
        f = f.defined() ? op::add(f, ft) : ft;
      }
      out[static_cast<std::size_t>(i)].forces = f;
    }
  }
  return out;
}

std::vector<Variable> DeepmdModel::parameters() const {
  std::vector<Variable> params;
  for (const EmbeddingNet& net : embeddings_) {
    for (const LayerParams& layer : net.layers()) {
      params.push_back(layer.weight);
      params.push_back(layer.bias);
    }
  }
  for (const FittingNet& net : fittings_) {
    for (const LayerParams& layer : net.layers()) {
      params.push_back(layer.weight);
      params.push_back(layer.bias);
    }
  }
  return params;
}

std::vector<std::pair<std::string, i64>> DeepmdModel::parameter_layout()
    const {
  std::vector<std::pair<std::string, i64>> layout;
  for (const EmbeddingNet& net : embeddings_) {
    for (const LayerParams& layer : net.layers()) {
      layout.emplace_back(layer.name + ".w", layer.weight.numel());
      layout.emplace_back(layer.name + ".b", layer.bias.numel());
    }
  }
  for (const FittingNet& net : fittings_) {
    for (const LayerParams& layer : net.layers()) {
      layout.emplace_back(layer.name + ".w", layer.weight.numel());
      layout.emplace_back(layer.name + ".b", layer.bias.numel());
    }
  }
  return layout;
}

i64 DeepmdModel::num_parameters() const {
  i64 n = 0;
  for (const auto& [name, size] : parameter_layout()) n += size;
  return n;
}

}  // namespace fekf::deepmd

#include "deepmd/fused_descriptor.hpp"

#include <cstring>

#include "autograd/ops.hpp"
#include "deepmd/bmm.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/dispatch.hpp"
#include "tensor/kernel_counter.hpp"
#include "tensor/variants/variants.hpp"

namespace fekf::deepmd {

using ag::Variable;
namespace op = ag::ops;

// Threading: both composite kernels parallelize over the atom (block)
// dimension — each task owns whole output blocks, so results are bit-exact
// at any width (DESIGN.md "Threading & determinism"). Bit-exactness against
// the kOpt1 chain is by construction: every accumulator follows the order
// of the kernel it replaces (per-type f32 partials added in type order for
// desc_a, f64 inner products for desc_d, the bmm_nn/bmm_tn orders inside
// desc_d_grad), and padded rows still add a literal +0.0f exactly like the
// op::add-with-zeros it fuses away.

namespace {

Tensor desc_a_kernel(const std::vector<Variable>& g_mats,
                     const std::vector<Variable>& r_mats,
                     const std::vector<i64>& sel, f32 inv_nm) {
  const std::size_t types = g_mats.size();
  FEKF_CHECK(types >= 1 && r_mats.size() == types && sel.size() == types,
             "desc_a: per-type input count mismatch");
  const i64 m = g_mats[0].cols();
  const i64 q = r_mats[0].cols();
  FEKF_CHECK(sel[0] > 0 && g_mats[0].rows() % sel[0] == 0,
             "desc_a: rows not divisible by sel");
  const i64 natoms = g_mats[0].rows() / sel[0];
  i64 work = m * q;  // the final inv_nm scale
  for (std::size_t t = 0; t < types; ++t) {
    FEKF_CHECK(g_mats[t].cols() == m && r_mats[t].cols() == q &&
                   g_mats[t].rows() == natoms * sel[t] &&
                   r_mats[t].rows() == natoms * sel[t],
               "desc_a: type " + std::to_string(t) + " shape mismatch");
    work += sel[t] * m * q;
  }
  KernelLaunch launch("desc_a");
  Tensor out(natoms * m, q);
  f32* __restrict__ po = out.data();
  parallel_for_blocks(
      0, natoms,
      [&](i64 blo, i64 bhi) {
        std::vector<f32> tmp(static_cast<std::size_t>(m * q));
        for (i64 b = blo; b < bhi; ++b) {
          f32* __restrict__ ab = po + b * m * q;
          for (std::size_t t = 0; t < types; ++t) {
            const i64 st = sel[t];
            const f32* __restrict__ gb =
                g_mats[t].value().data() + b * st * m;
            const f32* __restrict__ rb =
                r_mats[t].value().data() + b * st * q;
            std::fill(tmp.begin(), tmp.end(), 0.0f);
            for (i64 l = 0; l < st; ++l) {  // ascending l, as bmm_tn
              const f32* __restrict__ grow = gb + l * m;
              const f32* __restrict__ rrow = rb + l * q;
              for (i64 i = 0; i < m; ++i) {
                const f32 gv = grow[i];
                f32* __restrict__ trow = tmp.data() + i * q;
                for (i64 j = 0; j < q; ++j) trow[j] += gv * rrow[j];
              }
            }
            // Combine per-type partial sums in type order, exactly like
            // the bmm_tn -> op::add chain (t == 0 is the chain's seed).
            if (t == 0) {
              std::memcpy(ab, tmp.data(),
                          static_cast<std::size_t>(m * q) * sizeof(f32));
            } else {
              for (i64 e = 0; e < m * q; ++e) ab[e] += tmp[e];
            }
          }
          for (i64 e = 0; e < m * q; ++e) ab[e] *= inv_nm;  // op::scale
        }
      },
      grain_items(work));
  return out;
}

Tensor desc_d_kernel(const Tensor& a, i64 m, i64 m_axis) {
  FEKF_CHECK(m > 0 && a.rows() % m == 0 && m_axis <= m,
             "desc_d: rows " + std::to_string(a.rows()) +
                 " not divisible by m " + std::to_string(m));
  const i64 nb = a.rows() / m;
  const i64 q = a.cols();
  KernelLaunch launch("desc_d");
  Tensor out(nb * m, m_axis);
  const f32* __restrict__ pa = a.data();
  f32* __restrict__ po = out.data();
  // Each block is one matnt_f32 panel with a = b = the block of A: the
  // first m_axis rows of A are A^<, so out_b = A_b · (A_b^<)ᵀ with bmm_nt's
  // per-output f64 chain. Resolved before the parallel region.
  static dispatch::Dispatched<dispatch::MatNtPanelFn> matnt(
      "matnt_f32", &dispatch::register_matnt_variants);
  const dispatch::MatNtPanelFn fn = matnt.get();
  parallel_for_blocks(
      0, nb,
      [&](i64 blo, i64 bhi) {
        for (i64 b = blo; b < bhi; ++b) {
          const f32* ab = pa + b * m * q;
          fn(ab, ab, po + b * m * m_axis, 0, m, m_axis, q);
        }
      },
      grain_items(m * m_axis * q));
  return out;
}

/// gA = gD·A^< + pad(gD^T·A) in one pass — the whole kOpt1 backward chain
/// (bmm_nn + bmm_tn + block_pad_rows + add) for the descriptor tail.
Tensor desc_d_grad_kernel(const Tensor& gd, const Tensor& a, i64 m,
                          i64 m_axis) {
  FEKF_CHECK(m > 0 && a.rows() % m == 0 && gd.rows() == a.rows() &&
                 gd.cols() == m_axis,
             "desc_d_grad: gd " + gd.shape_str() + " vs a " + a.shape_str());
  const i64 nb = a.rows() / m;
  const i64 q = a.cols();
  KernelLaunch launch("desc_d_grad");
  Tensor out(nb * m, q);
  const f32* __restrict__ pg = gd.data();
  const f32* __restrict__ pa = a.data();
  f32* __restrict__ po = out.data();
  // The two partial products are staged in per-task buffers with loop
  // shapes copied VERBATIM from bmm_nn / bmm_tn (l-outer, accumulate in
  // place): under -ffp-contract the compiler then makes the same
  // multiply-add contraction choices as the unfused kernels, keeping the
  // fused backward bit-identical, not merely ulp-close.
  parallel_for_blocks(
      0, nb,
      [&](i64 blo, i64 bhi) {
        std::vector<f32> t1(static_cast<std::size_t>(m * q));
        std::vector<f32> t2(static_cast<std::size_t>(m_axis * q));
        for (i64 b = blo; b < bhi; ++b) {
          const f32* __restrict__ gb = pg + b * m * m_axis;
          const f32* __restrict__ ab = pa + b * m * q;
          f32* __restrict__ ob = po + b * m * q;
          // t1 = gD · A^<  (bmm_nn's loop order).
          std::fill(t1.begin(), t1.end(), 0.0f);
          for (i64 i = 0; i < m; ++i) {
            for (i64 l = 0; l < m_axis; ++l) {
              const f32 xv = gb[i * m_axis + l];
              for (i64 j = 0; j < q; ++j) {
                t1[static_cast<std::size_t>(i * q + j)] += xv * ab[l * q + j];
              }
            }
          }
          // t2 = gD^T · A  (bmm_tn's loop order; valid rows 0..m_axis).
          std::fill(t2.begin(), t2.end(), 0.0f);
          for (i64 l = 0; l < m; ++l) {
            const f32* xrow = gb + l * m_axis;
            const f32* yrow = ab + l * q;
            for (i64 i = 0; i < m_axis; ++i) {
              const f32 xv = xrow[i];
              for (i64 j = 0; j < q; ++j) {
                t2[static_cast<std::size_t>(i * q + j)] += xv * yrow[j];
              }
            }
          }
          // out = t1 + pad(t2): padded rows still add the literal +0.0f,
          // matching the op::add against block_pad_rows' zeros.
          for (i64 i = 0; i < m; ++i) {
            for (i64 j = 0; j < q; ++j) {
              const f32 pad =
                  i < m_axis ? t2[static_cast<std::size_t>(i * q + j)] : 0.0f;
              ob[i * q + j] = t1[static_cast<std::size_t>(i * q + j)] + pad;
            }
          }
        }
      },
      grain_items(m * q * (m_axis + m)));
  return out;
}

/// Differentiable wrapper over desc_d_grad_kernel; its backward composes
/// bmm ops (see header), so forces differentiate through it to any order.
Variable desc_d_grad(const Variable& gd, const Variable& a, i64 m,
                     i64 m_axis) {
  return Variable::make_op(
      desc_d_grad_kernel(gd.value(), a.value(), m, m_axis), "desc_d_grad",
      {gd, a},
      [gd, a, m, m_axis](const Variable& hh) -> std::vector<Variable> {
        // GA(gD, A) = gD·A^< + pad(gD^T·A) is bilinear; with upstream hh:
        //   d/dgD = hh·(A^<)^T + A·(hh^<)^T
        //   d/dA  = pad(gD^T·hh) + gD·hh^<
        const Variable hl = block_slice_rows(hh, m, 0, m_axis);
        Variable dgd, da;
        if (ag::needs_input_grad(0)) {
          const Variable al = block_slice_rows(a, m, 0, m_axis);
          dgd = op::add(bmm_nt(hh, al, m, m_axis), bmm_nt(a, hl, m, m_axis));
        }
        if (ag::needs_input_grad(1)) {
          da = op::add(block_pad_rows(bmm_tn(gd, hh, m), m, m_axis, 0),
                       bmm_nn(gd, hl, m));
        }
        return {dgd, da};
      });
}

}  // namespace

Variable desc_a(const std::vector<Variable>& g_mats,
                const std::vector<Variable>& r_mats,
                const std::vector<i64>& sel, f32 inv_nm) {
  const i64 m = g_mats[0].cols();
  std::vector<Variable> inputs;
  inputs.reserve(g_mats.size() + r_mats.size());
  inputs.insert(inputs.end(), g_mats.begin(), g_mats.end());
  inputs.insert(inputs.end(), r_mats.begin(), r_mats.end());
  return Variable::make_op(
      desc_a_kernel(g_mats, r_mats, sel, inv_nm), "desc_a", std::move(inputs),
      [g_mats, r_mats, sel, inv_nm, m](
          const Variable& g) -> std::vector<Variable> {
        // Same launches the kOpt1 backward issues (scale + 2 bmm per
        // type); composed of bmm ops, hence differentiable to any order.
        const std::size_t types = g_mats.size();
        const Variable gs = op::scale(g, inv_nm);
        std::vector<Variable> grads(2 * types);
        for (std::size_t t = 0; t < types; ++t) {
          if (ag::needs_input_grad(t)) {
            grads[t] = bmm_nt(r_mats[t], gs, sel[t], m);
          }
        }
        for (std::size_t t = 0; t < types; ++t) {
          if (ag::needs_input_grad(types + t)) {
            grads[types + t] = bmm_nn(g_mats[t], gs, sel[t]);
          }
        }
        return grads;
      });
}

Variable desc_d(const Variable& a, i64 m, i64 m_axis) {
  return Variable::make_op(
      desc_d_kernel(a.value(), m, m_axis), "desc_d", {a},
      [a, m, m_axis](const Variable& g) -> std::vector<Variable> {
        return {desc_d_grad(g, a, m, m_axis)};
      });
}

}  // namespace fekf::deepmd

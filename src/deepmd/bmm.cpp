#include "deepmd/bmm.hpp"

#include <cstring>

#include "parallel/thread_pool.hpp"
#include "tensor/kernel_counter.hpp"
#include "tensor/variants/variants.hpp"

namespace fekf::deepmd {

using ag::Variable;

// Threading: the batched kernels parallelize over the block (atom/batch)
// dimension — each task owns whole p x s output blocks, so the results are
// bit-exact for any thread width (DESIGN.md "Threading & determinism").
// bmm_nt's per-block body comes from the matnt_f32 variant table
// (DESIGN.md §13); every entry is bit-exact with the scalar reference.

namespace {

i64 block_count(const Tensor& t, i64 block, const char* who) {
  FEKF_CHECK(block > 0 && t.rows() % block == 0,
             std::string(who) + ": rows " + std::to_string(t.rows()) +
                 " not divisible by block " + std::to_string(block));
  return t.rows() / block;
}

Tensor bmm_nn_kernel(const Tensor& x, const Tensor& y, i64 p) {
  const i64 nb = block_count(x, p, "bmm_nn");
  const i64 q = x.cols();
  FEKF_CHECK(y.rows() == nb * q, "bmm_nn: y rows mismatch");
  const i64 s = y.cols();
  KernelLaunch launch("bmm_nn");
  Tensor out = Tensor::zeros(nb * p, s);
  const f32* __restrict__ px = x.data();
  const f32* __restrict__ py = y.data();
  f32* __restrict__ po = out.data();
  parallel_for_blocks(
      0, nb,
      [&](i64 blo, i64 bhi) {
        for (i64 b = blo; b < bhi; ++b) {
          const f32* xb = px + b * p * q;
          const f32* yb = py + b * q * s;
          f32* ob = po + b * p * s;
          for (i64 i = 0; i < p; ++i) {
            for (i64 l = 0; l < q; ++l) {
              const f32 xv = xb[i * q + l];
              for (i64 j = 0; j < s; ++j) ob[i * s + j] += xv * yb[l * s + j];
            }
          }
        }
      },
      grain_items(p * q * s));
  return out;
}

Tensor bmm_tn_kernel(const Tensor& x, const Tensor& y, i64 q) {
  const i64 nb = block_count(x, q, "bmm_tn");
  FEKF_CHECK(y.rows() == nb * q, "bmm_tn: y rows mismatch");
  const i64 p = x.cols();
  const i64 s = y.cols();
  KernelLaunch launch("bmm_tn");
  Tensor out = Tensor::zeros(nb * p, s);
  const f32* __restrict__ px = x.data();
  const f32* __restrict__ py = y.data();
  f32* __restrict__ po = out.data();
  parallel_for_blocks(
      0, nb,
      [&](i64 blo, i64 bhi) {
        for (i64 b = blo; b < bhi; ++b) {
          const f32* xb = px + b * q * p;
          const f32* yb = py + b * q * s;
          f32* ob = po + b * p * s;
          for (i64 l = 0; l < q; ++l) {
            const f32* xrow = xb + l * p;
            const f32* yrow = yb + l * s;
            for (i64 i = 0; i < p; ++i) {
              const f32 xv = xrow[i];
              for (i64 j = 0; j < s; ++j) ob[i * s + j] += xv * yrow[j];
            }
          }
        }
      },
      grain_items(p * q * s));
  return out;
}

Tensor bmm_nt_kernel(const Tensor& x, const Tensor& y, i64 p, i64 s) {
  const i64 nb = block_count(x, p, "bmm_nt");
  FEKF_CHECK(y.rows() == nb * s, "bmm_nt: y rows mismatch");
  const i64 q = x.cols();
  FEKF_CHECK(y.cols() == q, "bmm_nt: inner dim mismatch");
  KernelLaunch launch("bmm_nt");
  // Each block is one matnt_f32 panel (out_b = X_b · Y_bᵀ with a
  // per-output f64 chain); the variant body is selected on the calling
  // thread before the parallel region (DESIGN.md §13).
  const auto fn = dispatch::select(dispatch::matnt_variants()).fn;
  Tensor out(nb * p, s);
  const f32* __restrict__ px = x.data();
  const f32* __restrict__ py = y.data();
  f32* __restrict__ po = out.data();
  parallel_for_blocks(
      0, nb,
      [&](i64 blo, i64 bhi) {
        for (i64 b = blo; b < bhi; ++b) {
          fn(px + b * p * q, py + b * s * q, po + b * p * s, 0, p, s, q);
        }
      },
      grain_items(p * q * s));
  return out;
}

Tensor block_slice_kernel(const Tensor& x, i64 block, i64 r0, i64 r1) {
  const i64 nb = block_count(x, block, "block_slice_rows");
  FEKF_CHECK(0 <= r0 && r0 <= r1 && r1 <= block, "block_slice_rows bounds");
  const i64 h = r1 - r0;
  const i64 c = x.cols();
  KernelLaunch launch("block_slice_rows");
  Tensor out(nb * h, c);
  parallel_for_blocks(
      0, nb,
      [&](i64 blo, i64 bhi) {
        for (i64 b = blo; b < bhi; ++b) {
          std::memcpy(out.data() + b * h * c, x.data() + (b * block + r0) * c,
                      static_cast<std::size_t>(h * c) * sizeof(f32));
        }
      },
      grain_items(h * c));
  return out;
}

Tensor block_pad_kernel(const Tensor& x, i64 block, i64 h, i64 r0) {
  const i64 nb = block_count(x, h, "block_pad_rows");
  FEKF_CHECK(r0 >= 0 && r0 + h <= block, "block_pad_rows bounds");
  const i64 c = x.cols();
  KernelLaunch launch("block_pad_rows");
  Tensor out = Tensor::zeros(nb * block, c);
  parallel_for_blocks(
      0, nb,
      [&](i64 blo, i64 bhi) {
        for (i64 b = blo; b < bhi; ++b) {
          std::memcpy(out.data() + (b * block + r0) * c, x.data() + b * h * c,
                      static_cast<std::size_t>(h * c) * sizeof(f32));
        }
      },
      grain_items(h * c));
  return out;
}

}  // namespace

Variable bmm_nn(const Variable& x, const Variable& y, i64 p) {
  const i64 q = x.cols();
  return Variable::make_op(
      bmm_nn_kernel(x.value(), y.value(), p), "bmm_nn", {x, y},
      [x, y, p, q](const Variable& g) -> std::vector<Variable> {
        // out_b = X_b Y_b: gX_b = g_b Y_b^T, gY_b = X_b^T g_b.
        return {ag::needs_input_grad(0) ? bmm_nt(g, y, p, q) : Variable{},
                ag::needs_input_grad(1) ? bmm_tn(x, g, p) : Variable{}};
      });
}

Variable bmm_tn(const Variable& x, const Variable& y, i64 q) {
  const i64 p = x.cols();
  return Variable::make_op(
      bmm_tn_kernel(x.value(), y.value(), q), "bmm_tn", {x, y},
      [x, y, p, q](const Variable& g) -> std::vector<Variable> {
        // out_b = X_b^T Y_b: gX_b = Y_b g_b^T, gY_b = X_b g_b.
        return {ag::needs_input_grad(0) ? bmm_nt(y, g, q, p) : Variable{},
                ag::needs_input_grad(1) ? bmm_nn(x, g, q) : Variable{}};
      });
}

Variable bmm_nt(const Variable& x, const Variable& y, i64 p, i64 s) {
  return Variable::make_op(
      bmm_nt_kernel(x.value(), y.value(), p, s), "bmm_nt", {x, y},
      [x, y, p, s](const Variable& g) -> std::vector<Variable> {
        // out_b = X_b Y_b^T: gX_b = g_b Y_b, gY_b = g_b^T X_b.
        (void)s;
        return {ag::needs_input_grad(0) ? bmm_nn(g, y, p) : Variable{},
                ag::needs_input_grad(1) ? bmm_tn(g, x, p) : Variable{}};
      });
}

Variable block_slice_rows(const Variable& x, i64 block, i64 r0, i64 r1) {
  return Variable::make_op(
      block_slice_kernel(x.value(), block, r0, r1), "block_slice_rows", {x},
      [block, r0, r1](const Variable& g) -> std::vector<Variable> {
        return {block_pad_rows(g, block, r1 - r0, r0)};
      });
}

Variable block_pad_rows(const Variable& x, i64 block, i64 h, i64 r0) {
  return Variable::make_op(
      block_pad_kernel(x.value(), block, h, r0), "block_pad_rows", {x},
      [block, h, r0](const Variable& g) -> std::vector<Variable> {
        return {block_slice_rows(g, block, r0, r0 + h)};
      });
}

}  // namespace fekf::deepmd

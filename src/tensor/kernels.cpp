#include "tensor/kernels.hpp"

#include <algorithm>
#include <cstring>

#include "parallel/thread_pool.hpp"
#include "tensor/kernel_counter.hpp"
#include "tensor/variants/variants.hpp"

// Threading (DESIGN.md "Threading & determinism"): every kernel below
// parallelizes over an output partition whose elements are written by
// exactly one task (row panels, column panels, flat chunks), so results are
// bit-exact for any thread width. Reductions that fold a whole range into
// one scalar go through parallel_reduce_f64, whose fixed chunking pins the
// combine order independently of the width. Grain sizes follow the
// kGrainWork policy: unit-test-sized tensors run serial.
//
// Hot kernels take their inner bodies from the family variant tables
// (DESIGN.md §13): dispatch::select picks the body on the calling thread
// BEFORE the parallel region, and the partition/launch structure is
// unchanged — only the per-panel/per-chunk body varies by backend.

namespace fekf::kernels {

namespace {

/// y = P·g over packed P with the dispatched row body, one kGainPanelRows
/// panel per task. Shared by symv and ekf_apply_gain's gain-only form.
void gain_rows(const f64* p, const f64* g, f64* y, i64 n) {
  const auto fn = dispatch::select(dispatch::gain_variants()).fn;
  parallel_for_blocks(
      0, n, [&](i64 rlo, i64 rhi) { fn(p, g, y, rlo, rhi, n); },
      std::max(dispatch::kGainPanelRows, grain_items(n)));
}

// Serial f64 reductions have no vector rung that could be bit-exact, so
// they are not dispatched.

/// Partial <a,b> over one parallel_reduce_f64 chunk. Shared by dot and
/// ekf_apply_gain.
f64 dot_chunk(const f64* a, const f64* b, i64 lo, i64 hi) {
  f64 acc = 0.0;
  for (i64 l = lo; l < hi; ++l) acc += a[l] * b[l];
  return acc;
}

/// y[lo, hi) += alpha * x[lo, hi). Shared by axpy and ekf_commit_step, so
/// the weight step compiles to the same arithmetic at every EKF level.
void axpy_chunk(f64 alpha, const f64* x, f64* y, i64 lo, i64 hi) {
  for (i64 i = lo; i < hi; ++i) y[i] += alpha * x[i];
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  FEKF_CHECK(a.same_shape(b), std::string(op) + ": shape mismatch " +
                                  a.shape_str() + " vs " + b.shape_str());
}

template <typename Fn>
Tensor elementwise2(const Tensor& a, const Tensor& b, const char* name,
                    Fn&& fn) {
  check_same_shape(a, b, name);
  KernelLaunch launch(name);
  Tensor out(a.rows(), a.cols());
  const f32* pa = a.data();
  const f32* pb = b.data();
  f32* po = out.data();
  parallel_for_blocks(
      0, a.numel(),
      [&](i64 lo, i64 hi) {
        for (i64 i = lo; i < hi; ++i) po[i] = fn(pa[i], pb[i]);
      },
      kGrainWork);
  return out;
}

template <typename Fn>
Tensor elementwise1(const Tensor& a, const char* name, Fn&& fn) {
  KernelLaunch launch(name);
  Tensor out(a.rows(), a.cols());
  const f32* pa = a.data();
  f32* po = out.data();
  parallel_for_blocks(
      0, a.numel(),
      [&](i64 lo, i64 hi) {
        for (i64 i = lo; i < hi; ++i) po[i] = fn(pa[i]);
      },
      kGrainWork);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return elementwise2(a, b, "add", [](f32 x, f32 y) { return x + y; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return elementwise2(a, b, "sub", [](f32 x, f32 y) { return x - y; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return elementwise2(a, b, "mul", [](f32 x, f32 y) { return x * y; });
}

Tensor neg(const Tensor& a) {
  return elementwise1(a, "neg", [](f32 x) { return -x; });
}

Tensor scale(const Tensor& a, f32 alpha) {
  return elementwise1(a, "scale", [alpha](f32 x) { return alpha * x; });
}

Tensor add_scalar(const Tensor& a, f32 alpha) {
  return elementwise1(a, "add_scalar", [alpha](f32 x) { return x + alpha; });
}

Tensor tanh_backward(const Tensor& grad_y, const Tensor& y) {
  return elementwise2(grad_y, y, "tanh_backward",
                      [](f32 g, f32 t) { return g * (1.0f - t * t); });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  FEKF_CHECK(a.cols() == b.rows(), "matmul: inner dims " + a.shape_str() +
                                       " * " + b.shape_str());
  KernelLaunch launch("matmul");
  const auto fn = dispatch::select(dispatch::gemm_variants()).fn;
  const i64 m = a.rows(), k = a.cols(), n = b.cols();
  Tensor out(m, n);
  const f32* __restrict__ pa = a.data();
  const f32* __restrict__ pb = b.data();
  f32* __restrict__ po = out.data();
  parallel_for_blocks(
      0, m,
      [&](i64 rlo, i64 rhi) {
        // nullptr bias => the variant seeds output rows with zeros.
        fn(pa, pb, nullptr, po, rlo, rhi, k, n);
      },
      grain_items(k * n));
  return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  FEKF_CHECK(a.rows() == b.rows(), "matmul_tn: inner dims " + a.shape_str() +
                                       "^T * " + b.shape_str());
  KernelLaunch launch("matmul_tn");
  const auto fn = dispatch::select(dispatch::gemm_tn_variants()).fn;
  const i64 k = a.rows(), m = a.cols(), n = b.cols();
  Tensor out(m, n);
  const f32* pa = a.data();
  const f32* pb = b.data();
  f32* po = out.data();
  // Each out[i][j] is one ascending-l chain, so the row-panel split does
  // not change the numerics.
  parallel_for_blocks(
      0, m, [&](i64 rlo, i64 rhi) { fn(pa, pb, po, rlo, rhi, k, m, n); },
      grain_items(k * n));
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  FEKF_CHECK(a.cols() == b.cols(), "matmul_nt: inner dims " + a.shape_str() +
                                       " * " + b.shape_str() + "^T");
  KernelLaunch launch("matmul_nt");
  const auto fn = dispatch::select(dispatch::matnt_variants()).fn;
  const i64 m = a.rows(), k = a.cols(), n = b.rows();
  Tensor out(m, n);
  const f32* __restrict__ pa = a.data();
  const f32* __restrict__ pb = b.data();
  f32* __restrict__ po = out.data();
  parallel_for_blocks(
      0, m,
      [&](i64 rlo, i64 rhi) { fn(pa, pb, po, rlo, rhi, n, k); },
      grain_items(k * n));
  return out;
}

Tensor transpose(const Tensor& a) {
  KernelLaunch launch("transpose");
  Tensor out(a.cols(), a.rows());
  const f32* pa = a.data();
  f32* po = out.data();
  const i64 m = a.rows(), n = a.cols();
  parallel_for_blocks(
      0, m,
      [&](i64 rlo, i64 rhi) {
        for (i64 i = rlo; i < rhi; ++i) {
          for (i64 j = 0; j < n; ++j) po[j * m + i] = pa[i * n + j];
        }
      },
      grain_items(n));
  return out;
}

Tensor add_rowvec(const Tensor& mat, const Tensor& row) {
  FEKF_CHECK(row.rows() == 1 && row.cols() == mat.cols(),
             "add_rowvec: " + mat.shape_str() + " + " + row.shape_str());
  KernelLaunch launch("add_rowvec");
  Tensor out(mat.rows(), mat.cols());
  const f32* pm = mat.data();
  const f32* pr = row.data();
  f32* po = out.data();
  const i64 m = mat.rows(), n = mat.cols();
  parallel_for_blocks(
      0, m,
      [&](i64 rlo, i64 rhi) {
        for (i64 i = rlo; i < rhi; ++i) {
          for (i64 j = 0; j < n; ++j) po[i * n + j] = pm[i * n + j] + pr[j];
        }
      },
      grain_items(n));
  return out;
}

Tensor broadcast_rows(const Tensor& row, i64 m) {
  FEKF_CHECK(row.rows() == 1, "broadcast_rows expects a 1xn row");
  KernelLaunch launch("broadcast_rows");
  Tensor out(m, row.cols());
  const i64 n = row.cols();
  parallel_for_blocks(
      0, m,
      [&](i64 rlo, i64 rhi) {
        for (i64 i = rlo; i < rhi; ++i) {
          std::memcpy(out.data() + i * n, row.data(),
                      static_cast<std::size_t>(n) * sizeof(f32));
        }
      },
      grain_items(n));
  return out;
}

Tensor broadcast_cols(const Tensor& col, i64 n) {
  FEKF_CHECK(col.cols() == 1, "broadcast_cols expects an mx1 column");
  KernelLaunch launch("broadcast_cols");
  const i64 m = col.rows();
  Tensor out(m, n);
  const f32* pc = col.data();
  f32* po = out.data();
  parallel_for_blocks(
      0, m,
      [&](i64 rlo, i64 rhi) {
        for (i64 i = rlo; i < rhi; ++i) {
          const f32 v = pc[i];
          for (i64 j = 0; j < n; ++j) po[i * n + j] = v;
        }
      },
      grain_items(n));
  return out;
}

Tensor linear_fused(const Tensor& x, const Tensor& w, const Tensor& bias) {
  FEKF_CHECK(x.cols() == w.rows() && bias.rows() == 1 && bias.cols() == w.cols(),
             "linear_fused: " + x.shape_str() + " * " + w.shape_str() + " + " +
                 bias.shape_str());
  KernelLaunch launch("linear_fused");
  const auto fn = dispatch::select(dispatch::gemm_variants()).fn;
  const i64 m = x.rows(), k = x.cols(), n = w.cols();
  Tensor out(m, n);
  const f32* __restrict__ px = x.data();
  const f32* __restrict__ pw = w.data();
  const f32* __restrict__ pb = bias.data();
  f32* __restrict__ po = out.data();
  parallel_for_blocks(
      0, m,
      [&](i64 rlo, i64 rhi) { fn(px, pw, pb, po, rlo, rhi, k, n); },
      grain_items(k * n));
  return out;
}

Tensor broadcast_full(const Tensor& scalar, i64 m, i64 n) {
  FEKF_CHECK(scalar.numel() == 1, "broadcast_full expects a scalar");
  KernelLaunch launch("broadcast_full");
  return Tensor::full(m, n, scalar.item());
}

Tensor sum_all(const Tensor& a) {
  KernelLaunch launch("sum_all");
  const f32* pa = a.data();
  const f64 acc = parallel_reduce_f64(0, a.numel(), kReduceChunk,
                                      [pa](i64 lo, i64 hi) {
                                        f64 s = 0.0;
                                        for (i64 i = lo; i < hi; ++i) {
                                          s += pa[i];
                                        }
                                        return s;
                                      });
  return Tensor::scalar(static_cast<f32>(acc));
}

Tensor sum_rows(const Tensor& a) {
  KernelLaunch launch("sum_rows");
  const i64 m = a.rows(), n = a.cols();
  Tensor out(1, n);
  const f32* pa = a.data();
  f32* po = out.data();
  parallel_for_blocks(
      0, n,
      [&](i64 clo, i64 chi) {
        for (i64 j = clo; j < chi; ++j) {
          f64 acc = 0.0;
          for (i64 i = 0; i < m; ++i) acc += pa[i * n + j];
          po[j] = static_cast<f32>(acc);
        }
      },
      grain_items(m));
  return out;
}

Tensor sum_cols(const Tensor& a) {
  KernelLaunch launch("sum_cols");
  const i64 m = a.rows(), n = a.cols();
  Tensor out(m, 1);
  const f32* pa = a.data();
  f32* po = out.data();
  parallel_for_blocks(
      0, m,
      [&](i64 rlo, i64 rhi) {
        for (i64 i = rlo; i < rhi; ++i) {
          f64 acc = 0.0;
          for (i64 j = 0; j < n; ++j) acc += pa[i * n + j];
          po[i] = static_cast<f32>(acc);
        }
      },
      grain_items(n));
  return out;
}

Tensor slice_cols(const Tensor& a, i64 c0, i64 c1) {
  FEKF_CHECK(0 <= c0 && c0 <= c1 && c1 <= a.cols(), "slice_cols bounds");
  KernelLaunch launch("slice_cols");
  const i64 m = a.rows(), n = a.cols(), w = c1 - c0;
  Tensor out(m, w);
  parallel_for_blocks(
      0, m,
      [&](i64 rlo, i64 rhi) {
        for (i64 i = rlo; i < rhi; ++i) {
          std::memcpy(out.data() + i * w, a.data() + i * n + c0,
                      static_cast<std::size_t>(w) * sizeof(f32));
        }
      },
      grain_items(w));
  return out;
}

Tensor pad_cols(const Tensor& a, i64 cols, i64 c0) {
  FEKF_CHECK(c0 >= 0 && c0 + a.cols() <= cols, "pad_cols bounds");
  KernelLaunch launch("pad_cols");
  const i64 m = a.rows(), w = a.cols();
  Tensor out = Tensor::zeros(m, cols);
  parallel_for_blocks(
      0, m,
      [&](i64 rlo, i64 rhi) {
        for (i64 i = rlo; i < rhi; ++i) {
          std::memcpy(out.data() + i * cols + c0, a.data() + i * w,
                      static_cast<std::size_t>(w) * sizeof(f32));
        }
      },
      grain_items(cols));
  return out;
}

Tensor slice_rows(const Tensor& a, i64 r0, i64 r1) {
  FEKF_CHECK(0 <= r0 && r0 <= r1 && r1 <= a.rows(), "slice_rows bounds");
  KernelLaunch launch("slice_rows");
  const i64 n = a.cols(), h = r1 - r0;
  Tensor out(h, n);
  std::memcpy(out.data(), a.data() + r0 * n,
              static_cast<std::size_t>(h * n) * sizeof(f32));
  return out;
}

Tensor pad_rows(const Tensor& a, i64 rows, i64 r0) {
  FEKF_CHECK(r0 >= 0 && r0 + a.rows() <= rows, "pad_rows bounds");
  KernelLaunch launch("pad_rows");
  const i64 n = a.cols();
  Tensor out = Tensor::zeros(rows, n);
  std::memcpy(out.data() + r0 * n, a.data(),
              static_cast<std::size_t>(a.rows() * n) * sizeof(f32));
  return out;
}

Tensor concat_rows(const Tensor& a, const Tensor& b) {
  FEKF_CHECK(a.cols() == b.cols(), "concat_rows: column mismatch");
  KernelLaunch launch("concat_rows");
  Tensor out(a.rows() + b.rows(), a.cols());
  std::memcpy(out.data(), a.data(),
              static_cast<std::size_t>(a.numel()) * sizeof(f32));
  std::memcpy(out.data() + a.numel(), b.data(),
              static_cast<std::size_t>(b.numel()) * sizeof(f32));
  return out;
}

Tensor copy(const Tensor& a) {
  KernelLaunch launch("copy");
  return a.clone();
}

f64 dot_all(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "dot_all");
  KernelLaunch launch("dot_all");
  const f32* pa = a.data();
  const f32* pb = b.data();
  return parallel_reduce_f64(0, a.numel(), kReduceChunk,
                             [pa, pb](i64 lo, i64 hi) {
                               f64 s = 0.0;
                               for (i64 i = lo; i < hi; ++i) {
                                 s += static_cast<f64>(pa[i]) * pb[i];
                               }
                               return s;
                             });
}

// ---------------------------------------------------------------------------
// f64 EKF kernels
// ---------------------------------------------------------------------------

void symv(std::span<const f64> p, std::span<const f64> g, std::span<f64> y,
          i64 n) {
  FEKF_CHECK(static_cast<i64>(p.size()) == packed_size(n) &&
                 static_cast<i64>(g.size()) == n &&
                 static_cast<i64>(y.size()) == n,
             "symv size mismatch");
  KernelLaunch launch("ekf_symv");
  gain_rows(p.data(), g.data(), y.data(), n);
}

f64 dot(std::span<const f64> a, std::span<const f64> b) {
  FEKF_CHECK(a.size() == b.size(), "dot size mismatch");
  KernelLaunch launch("ekf_dot");
  const f64* pa = a.data();
  const f64* pb = b.data();
  return parallel_reduce_f64(
      0, static_cast<i64>(a.size()), kReduceChunk,
      [pa, pb](i64 lo, i64 hi) { return dot_chunk(pa, pb, lo, hi); });
}

void axpy(f64 alpha, std::span<const f64> x, std::span<f64> y) {
  FEKF_CHECK(x.size() == y.size(), "axpy size mismatch");
  KernelLaunch launch("ekf_axpy");
  const f64* px = x.data();
  f64* py = y.data();
  parallel_for_blocks(
      0, static_cast<i64>(x.size()),
      [&](i64 lo, i64 hi) { axpy_chunk(alpha, px, py, lo, hi); }, kGrainWork);
}

void p_update_unfused(std::span<f64> p, std::span<const f64> k, f64 inv_a,
                      f64 lambda, std::span<f64> scratch, i64 n) {
  FEKF_CHECK(static_cast<i64>(p.size()) == packed_size(n) &&
                 static_cast<i64>(k.size()) == n &&
                 static_cast<i64>(scratch.size()) >= n * n,
             "p_update_unfused size mismatch");
  // Launch 1: outer product tmp = k k^T (materialized, like torch.matmul).
  f64* __restrict__ tmp = scratch.data();
  const f64* __restrict__ pk = k.data();
  {
    KernelLaunch launch("ekf_outer");
    parallel_for_blocks(
        0, n,
        [&](i64 rlo, i64 rhi) {
          for (i64 i = rlo; i < rhi; ++i) {
            const f64 ki = pk[i];
            f64* __restrict__ row = tmp + i * n;
            for (i64 j = 0; j < n; ++j) row[j] = ki * pk[j];
          }
        },
        grain_items(n));
  }
  // Launch 2: tmp = (P - tmp * inv_a) / lambda over the full n x n, P read
  // from the packed triangle. Row i owns the pairs {(i,j), (j,i) : j >= i}
  // of tmp, so panels are disjoint (§9).
  const f64* __restrict__ pp = p.data();
  const f64 inv_lambda = 1.0 / lambda;
  {
    KernelLaunch launch("ekf_sub_scale");
    parallel_for_blocks(
        0, n,
        [&](i64 rlo, i64 rhi) {
          for (i64 i = rlo; i < rhi; ++i) {
            const f64* __restrict__ prow = pp + packed_row(i, n) - i;
            for (i64 j = i; j < n; ++j) {
              f64& upper = tmp[i * n + j];
              f64& lower = tmp[j * n + i];
              upper = (prow[j] - inv_a * upper) * inv_lambda;
              if (j != i) lower = (prow[j] - inv_a * lower) * inv_lambda;
            }
          }
        },
        grain_items(n));
  }
  // Launch 3: symmetrize back into packed P (Algorithm 1, line 11).
  symmetrize(scratch.first(static_cast<std::size_t>(n * n)), p, n);
}

void p_update_fused(std::span<f64> p, std::span<const f64> k, f64 inv_a,
                    f64 lambda, i64 n) {
  FEKF_CHECK(static_cast<i64>(p.size()) == packed_size(n) &&
                 static_cast<i64>(k.size()) == n,
             "p_update_fused size mismatch");
  KernelLaunch launch("ekf_p_update_fused");
  f64* pp = p.data();
  const f64* __restrict__ pk = k.data();
  const f64 inv_lambda = 1.0 / lambda;
  // Row panels of the packed triangle: (P - (1/a) k k^T)/lambda, one
  // streaming pass.
  parallel_for_blocks(
      0, n,
      [&](i64 rlo, i64 rhi) {
        dispatch::rank1_rows(pp, pp, pk, inv_a, inv_lambda, rlo, rhi, n);
      },
      grain_items(n));
}

void symmetrize(std::span<const f64> full, std::span<f64> p, i64 n) {
  FEKF_CHECK(static_cast<i64>(full.size()) == n * n &&
                 static_cast<i64>(p.size()) == packed_size(n),
             "symmetrize size mismatch");
  KernelLaunch launch("ekf_symmetrize");
  const f64* __restrict__ pf = full.data();
  f64* __restrict__ pp = p.data();
  // Row i of the packed triangle reads the pairs {(i,j), (j,i) : j > i};
  // the diagonal is copied as is.
  parallel_for_blocks(
      0, n,
      [&](i64 rlo, i64 rhi) {
        for (i64 i = rlo; i < rhi; ++i) {
          f64* __restrict__ prow = pp + packed_row(i, n) - i;
          prow[i] = pf[i * n + i];
          for (i64 j = i + 1; j < n; ++j) {
            prow[j] = 0.5 * (pf[i * n + j] + pf[j * n + i]);
          }
        }
      },
      grain_items(n));
}

f64 ekf_apply_gain(std::span<const f64> p_in, std::span<f64> p_out,
                   const EkfPendingStep* step, std::span<const f64> g,
                   std::span<f64> y, i64 n) {
  FEKF_CHECK(static_cast<i64>(p_in.size()) == packed_size(n) &&
                 (step == nullptr || (p_out.size() == p_in.size() &&
                                      static_cast<i64>(step->k.size()) == n)) &&
                 (g.empty() ? step != nullptr
                            : static_cast<i64>(g.size()) == n &&
                                  static_cast<i64>(y.size()) == n),
             "ekf_apply_gain size mismatch");
  KernelLaunch launch("ekf_apply_gain");
  const f64* src = p_in.data();
  if (g.empty()) {
    f64* dst = p_out.data();
    parallel_for_blocks(
        0, n,
        [&](i64 rlo, i64 rhi) {
          dispatch::rank1_step_rows(src, dst, *step, rlo, rhi, n);
        },
        grain_items(n));
    return 0.0;
  }
  const f64* pg = g.data();
  const f64* py = y.data();
  if (step == nullptr) {
    gain_rows(src, pg, y.data(), n);
  } else {
    // One serial pass: y[i]'s chain takes its terms j < i from the rows
    // above, so rows run in order (the optimizer runs blocks in parallel).
    dispatch::rank1_step_gain(src, p_out.data(), *step, pg, y.data(), n);
  }
  // g^T y with dot()'s fixed-chunk reduction and chunk body, so the scalar
  // is bit-identical to the symv-then-dot sequence.
  return parallel_reduce_f64(
      0, n, kReduceChunk,
      [pg, py](i64 lo, i64 hi) { return dot_chunk(pg, py, lo, hi); });
}

f64 ekf_commit_step(std::span<const f64> p, const EkfPendingStep& step,
                    f64 step_scale, std::span<f64> w, i64 n) {
  FEKF_CHECK(static_cast<i64>(p.size()) == packed_size(n) &&
                 static_cast<i64>(step.k.size()) == n &&
                 static_cast<i64>(w.size()) == n,
             "ekf_commit_step size mismatch");
  axpy_chunk(step_scale, step.k.data(), w.data(), 0, n);
  return dispatch::rank1_step_max_diag(p.data(), step, n);
}

}  // namespace fekf::kernels

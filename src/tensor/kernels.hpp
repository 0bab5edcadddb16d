// Primitive tensor kernels.
//
// Every function here corresponds to one device-kernel launch in the paper's
// GPU implementation and records itself with KernelCounter. The autograd ops
// (src/autograd/ops.*) compose these; the "system optimization" experiments
// (Fig. 7b/7c) compare composed-primitive graphs against the fused custom
// kernels at the bottom of this header and in src/deepmd / src/optim.
//
// f32 kernels operate on Tensor (network values); f64 kernels at the bottom
// operate on raw buffers (EKF covariance state, which the paper keeps in
// 64-bit: its reported P-block sizes, e.g. 10240^2 -> 800 MB, imply 8-byte
// elements; this tree stores each block's packed upper triangle, so that
// block takes 400 MB).
#pragma once

#include <span>

#include "tensor/tensor.hpp"

namespace fekf::kernels {

// ---- elementwise ----------------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor neg(const Tensor& a);
Tensor scale(const Tensor& a, f32 alpha);
Tensor add_scalar(const Tensor& a, f32 alpha);
/// Bit-identical to glibc 2.36's tanhf on every f32, computed 16 lanes at
/// a time without calling libm (tanh.cpp).
Tensor tanh(const Tensor& a);
/// Fused tanh backward: gx = gy * (1 - y*y), one launch. The unfused path
/// composes mul/sub/full and costs three launches.
Tensor tanh_backward(const Tensor& grad_y, const Tensor& y);

// ---- linear algebra -------------------------------------------------------
Tensor matmul(const Tensor& a, const Tensor& b);         // a(m,k) * b(k,n)
Tensor matmul_tn(const Tensor& a, const Tensor& b);      // a^T(k,m) * b(k,n)
Tensor matmul_nt(const Tensor& a, const Tensor& b);      // a(m,k) * b^T(n,k)
Tensor transpose(const Tensor& a);

// ---- broadcast ------------------------------------------------------------
/// mat(m,n) + row(1,n), broadcast over rows.
Tensor add_rowvec(const Tensor& mat, const Tensor& row);
/// Replicate row(1,n) into (m,n).
Tensor broadcast_rows(const Tensor& row, i64 m);
/// Replicate col(m,1) into (m,n).
Tensor broadcast_cols(const Tensor& col, i64 n);
/// Replicate scalar(1,1) into (m,n).
Tensor broadcast_full(const Tensor& scalar, i64 m, i64 n);

/// Fused affine layer: x(m,k) * w(k,n) + bias(1,n), one launch (opt2-style
/// kernel fusion; the unfused path is matmul + add_rowvec).
Tensor linear_fused(const Tensor& x, const Tensor& w, const Tensor& bias);

// ---- reductions (double accumulators) --------------------------------------
Tensor sum_all(const Tensor& a);                         // -> 1x1
Tensor sum_rows(const Tensor& a);                        // (m,n) -> 1xn
Tensor sum_cols(const Tensor& a);                        // (m,n) -> mx1

// ---- shape / layout -------------------------------------------------------
Tensor slice_cols(const Tensor& a, i64 c0, i64 c1);      // columns [c0, c1)
/// Inverse of slice_cols: place a(m, c1-c0) into zeros(m, cols) at c0.
Tensor pad_cols(const Tensor& a, i64 cols, i64 c0);
Tensor slice_rows(const Tensor& a, i64 r0, i64 r1);      // rows [c0, c1)
Tensor pad_rows(const Tensor& a, i64 rows, i64 r0);
Tensor concat_rows(const Tensor& a, const Tensor& b);

// ---- misc -----------------------------------------------------------------
Tensor copy(const Tensor& a);
/// Frobenius inner product <a, b> (one launch, double accumulator).
f64 dot_all(const Tensor& a, const Tensor& b);

// ============================================================================
// f64 optimizer kernels (EKF covariance algebra). P is a dense symmetric
// n x n block stored as its packed upper triangle: row i holds
// (i, i..n-1) at packed_row(i, n), packed_size(n) entries in all. g, k are
// length-n vectors.
// ============================================================================

/// Entries of one packed n x n block: n(n+1)/2.
constexpr i64 packed_size(i64 n) { return n * (n + 1) / 2; }

/// Offset of row i's run (i, i..n-1) in a packed block; entry (i, j) for
/// j >= i sits at packed_row(i, n) + (j - i).
constexpr i64 packed_row(i64 i, i64 n) { return i * n - i * (i - 1) / 2; }

/// y = P * g (symmetric matrix-vector product, packed P).
void symv(std::span<const f64> p, std::span<const f64> g, std::span<f64> y,
          i64 n);

/// <a, b>.
f64 dot(std::span<const f64> a, std::span<const f64> b);

/// y += alpha * x.
void axpy(f64 alpha, std::span<const f64> x, std::span<f64> y);

/// Unfused ("framework") P update, as a GEMM-backed graph would do it:
///   tmp = k * k^T            (materializes n^2 scratch — the memory cost
///   tmp = (P - tmp / a) / lambda            the paper's opt3 eliminates)
///   P   = (tmp + tmp^T) / 2  (symmetrize, folded back into packed P)
/// `scratch` must have n*n capacity; three kernel launches are recorded.
void p_update_unfused(std::span<f64> p, std::span<const f64> k, f64 inv_a,
                      f64 lambda, std::span<f64> scratch, i64 n);

/// Fused hand-written P update (paper §3.4 "optimizer optimization"):
///   P = (P - (1/a) k k^T) / lambda,
/// one streaming pass over the packed triangle — one launch, no scratch.
/// k k^T is exactly symmetric, so the result is the symmetrized update.
void p_update_fused(std::span<f64> p, std::span<const f64> k, f64 inv_a,
                    f64 lambda, i64 n);

/// Packed P = (full + full^T) / 2 over an n x n row-major `full` (the
/// unfused path's explicit symmetrization, Algorithm 1 line 11).
void symmetrize(std::span<const f64> full, std::span<f64> p, i64 n);

/// The covariance step a kFused EKF update leaves pending for the next
/// one (DESIGN.md §12):
///   P <- ((P - a k k^T) / lambda + noise I) * scale,
/// k = P g of that update, lambda the one it ran at, scale < 1 only when
/// its p_max limiter fired.
struct EkfPendingStep {
  std::span<const f64> k;
  f64 a = 0.0;
  f64 lambda = 1.0;
  f64 noise = 0.0;
  f64 scale = 1.0;
};

/// Fused FEKF sweep (EkfLevel::kFused), ONE launch, one read and one
/// write of P: p_out <- step(p_in) and, in the same row-ascending pass,
/// y = p_out g; returns g^T y. The P write is bit-exact with
/// p_update_fused + the process-noise loop + the p_max rescale, and y and
/// g^T y with symv + dot on the written P. p_in and p_out are either the
/// same buffer (in place) or disjoint (the ping-pong snapshot's first
/// write). Two reduced forms: with no step, y = p_in g and P is not
/// written (p_out is ignored); with an empty g, only the P write, over
/// row panels (a flush: y is ignored and 0 is returned).
f64 ekf_apply_gain(std::span<const f64> p_in, std::span<f64> p_out,
                   const EkfPendingStep* step, std::span<const f64> g,
                   std::span<f64> y, i64 n);

/// The O(n) eager half of a kFused update, once the optimizer has the
/// step it leaves pending (k = y of ekf_apply_gain, scale unread):
///   w <- w + step_scale * k             (axpy's arithmetic)
/// and returns the largest diagonal of the pending P before its scale,
/// with the health scan's NaN latching, for the p_max limiter and the
/// sentinels. It completes the update's one ekf_apply_gain launch and
/// records none, like the optimizer's own O(n) loops at the other levels.
f64 ekf_commit_step(std::span<const f64> p, const EkfPendingStep& step,
                    f64 step_scale, std::span<f64> w, i64 n);

}  // namespace fekf::kernels

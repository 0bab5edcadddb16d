// Differentiable operations over ag::Variable.
//
// Each op's backward is built from other ops in this header, which is what
// makes create_graph (double backward) work. Two families exist for the
// system-optimization experiments:
//   * primitive-composed ops  — one KernelCounter launch per primitive, the
//     way a framework autograd executes ("baseline" in Fig. 7b/7c);
//   * *_fused ops            — a single hand-written kernel forward and a
//     hand-written fused backward ("opt" configurations).
// Both compute identical values; tests assert that.
#pragma once

#include "autograd/variable.hpp"

namespace fekf::ag::ops {

// ---- elementwise ----------------------------------------------------------
Variable add(const Variable& a, const Variable& b);
Variable sub(const Variable& a, const Variable& b);
Variable mul(const Variable& a, const Variable& b);
Variable neg(const Variable& a);
Variable scale(const Variable& a, f32 alpha);
Variable add_scalar(const Variable& a, f32 alpha);
Variable square(const Variable& a);

/// tanh whose backward composes primitives (recomputes tanh on the tape —
/// many small launches, the framework-autograd behaviour).
Variable tanh(const Variable& a);
/// tanh whose backward is the single fused kernel g * (1 - y^2) over the
/// cached forward activation; neither it nor its double backward launches
/// tanh again.
Variable tanh_fused(const Variable& a);

// ---- linear algebra -------------------------------------------------------
Variable matmul(const Variable& a, const Variable& b);     // a * b
Variable matmul_nt(const Variable& a, const Variable& b);  // a * b^T
Variable matmul_tn(const Variable& a, const Variable& b);  // a^T * b
Variable transpose(const Variable& a);

/// x*W + bias as matmul + add_rowvec (two launches)...
Variable linear(const Variable& x, const Variable& w, const Variable& bias);
/// ...and as one fused kernel.
Variable linear_fused(const Variable& x, const Variable& w,
                      const Variable& bias);

// ---- broadcast / reduction ------------------------------------------------
Variable add_rowvec(const Variable& mat, const Variable& row);
Variable broadcast_rows(const Variable& row, i64 m);
Variable broadcast_cols(const Variable& col, i64 n);
Variable broadcast_full(const Variable& scalar, i64 m, i64 n);
Variable sum_all(const Variable& a);
Variable mean_all(const Variable& a);
Variable sum_rows(const Variable& a);
Variable sum_cols(const Variable& a);

// ---- shape ----------------------------------------------------------------
Variable slice_cols(const Variable& a, i64 c0, i64 c1);
Variable pad_cols(const Variable& a, i64 cols, i64 c0);
Variable slice_rows(const Variable& a, i64 r0, i64 r1);
Variable pad_rows(const Variable& a, i64 rows, i64 r0);
Variable concat_rows(const Variable& a, const Variable& b);
/// Free view (no kernel launch), like torch .view().
Variable reshape(const Variable& a, i64 rows, i64 cols);

}  // namespace fekf::ag::ops

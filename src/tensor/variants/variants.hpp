// Kernel-family signatures and their variant tables (DESIGN.md §13). Each
// family is the INNER BODY of a hot kernel in tensor/kernels.cpp: a
// per-panel or per-chunk function invoked from the same parallel_for
// partitions the kernel always used, so thread-width determinism (§9) is a
// property of the variant body alone.
//
// Each family's table holds typed dispatch::Variant entries, the `scalar`
// reference first and then every variant this build compiled, in order of
// preference; dispatch::select picks one per call site:
//
//   gemm_variants()      GemmPanelFn    row panel of out = seed + x·W
//   gain_variants()      GainPanelFn    row panel of y = P·g over a packed
//                                       upper-triangle P
//   matnt_variants()     MatNtPanelFn   row panel of out = a·bᵀ with a
//                                       per-output f64 accumulator
//   gemm_tn_variants()   GemmTnPanelFn  row panel of out = aᵀ·b with a
//                                       per-output f32 FMA chain
#pragma once

#include <span>

#include "core/common.hpp"
#include "tensor/dispatch.hpp"
#include "tensor/kernels.hpp"

namespace fekf::dispatch {

// ---- family signatures ----------------------------------------------------

/// Rows [rlo, rhi) of out(m, n) = seed + x(m, k) · w(k, n), where seed is
/// the broadcast `bias` row (linear layers) or zeros (`bias == nullptr`,
/// plain matmul). Accumulates over ascending l into the output row — the
/// matmul/linear_fused reference order.
using GemmPanelFn = void (*)(const f32* x, const f32* w, const f32* bias,
                             f32* out, i64 rlo, i64 rhi, i64 k, i64 n);

/// Rows [rlo, rhi) of y = P·g, P one symmetric n x n block stored as its
/// packed upper triangle (kernels::packed_row). Each y[i] is one
/// ascending-j chain over the full row, P[i,j] for j < i read as P[j,i]:
/// a rounded product added in order, except that the last n % 4 terms are
/// fused multiply-adds. That is the arithmetic the full-P row loop this
/// family replaced compiled to (a vectorized product with an ordered add,
/// and a contracted scalar epilogue), so packed and full P agree bit for
/// bit (DESIGN.md §13).
using GainPanelFn = void (*)(const f64* p, const f64* g, f64* y, i64 rlo,
                             i64 rhi, i64 n);

/// Row panel height of the blocked ekf_gain_f64 body; symv and
/// ekf_apply_gain's gain-only form hand the body panels this tall.
inline constexpr i64 kGainPanelRows = 128;

/// Rows [rlo, rhi) of out(:, n) = a(:, q) · b(n, q)ᵀ with one f64
/// accumulator per output element over ascending l:
///   out[i*n + j] = f32( Σ_{l<q} f64(a[i*q + l]) · f64(b[j*q + l]) )
/// — the matmul_nt / bmm_nt reference order.
/// The f64 product of two f32 values is exact, so fused and unfused
/// multiply-adds round identically and any variant keeping each output's
/// ascending-l chain is bit-exact (see nt_variants.cpp).
using MatNtPanelFn = void (*)(const f32* a, const f32* b, f32* out, i64 rlo,
                              i64 rhi, i64 n, i64 q);

/// Rows [rlo, rhi) of out(m, n) = a(k, m)ᵀ · b(k, n): each output is one
/// f32 chain started at +0.0f over ascending l with one fused multiply-add
/// per term,
///   out[i*n + j] = fma(a[l*m + i], b[l*n + j], out[i*n + j]),
/// — the matmul_tn reference order (GCC contracts
/// the scalar body's every term at -march=native). The panel's rows are
/// fully written; the caller need not zero them.
using GemmTnPanelFn = void (*)(const f32* a, const f32* b, f32* out, i64 rlo,
                               i64 rhi, i64 k, i64 m, i64 n);

// ---- variant tables -------------------------------------------------------
// Family names, as the bench and docs/KERNELS.md key them: gemm_f32,
// ekf_gain_f64, matnt_f32, gemm_tn_f32.

std::span<const Variant<GemmPanelFn>> gemm_variants();
std::span<const Variant<GainPanelFn>> gain_variants();
std::span<const Variant<MatNtPanelFn>> matnt_variants();
std::span<const Variant<GemmTnPanelFn>> gemm_tn_variants();

// ---- undispatched EKF bodies ----------------------------------------------
// They live with the gain bodies in the translation unit built with
// -ffp-contract=off, so every term below has the form written.

/// Rows [rlo, rhi) of the packed rank-1 covariance update, for j >= i:
///   dst[i,j] = (src[i,j] - (coeff*k[i])*k[j]) * inv_lambda
/// with the product rounded before the subtraction. P is exactly
/// symmetric, so this is the value the full-P pair-averaged update
/// 0.5*(P[i,j] + P[j,i]) computed. src == dst updates in place; rows are
/// disjoint, so panels need no coordination (§9). The p_update_fused body.
void rank1_rows(const f64* src, f64* dst, const f64* k, f64 coeff,
                f64 inv_lambda, i64 rlo, i64 rhi, i64 n);

/// The bodies behind ekf_apply_gain apply a kernels::EkfPendingStep: for
/// j >= i,
///   step(P)[i,j] = ((P[i,j] - (a*k[i])*k[j]) * (1/lambda)
///                   + [i == j] noise) * scale,
/// each operation rounded in that order — rank1_rows' rank-1 update, then
/// the process noise, then the p_max rescale (scale is 1 when the limiter
/// did not fire, and x * 1 is exact).

/// Rows [rlo, rhi) of dst = step(src), src == dst in place; rows are
/// disjoint, so panels need no coordination.
void rank1_step_rows(const f64* src, f64* dst,
                     const kernels::EkfPendingStep& step, i64 rlo, i64 rhi,
                     i64 n);

/// The whole block in one row-ascending sweep: dst = step(src) and
/// y = dst·g with the ekf_gain_f64 chains, bit for bit. Serial: each y[i]
/// chain takes its terms j < i from the rows above it.
void rank1_step_gain(const f64* src, f64* dst,
                     const kernels::EkfPendingStep& step, const f64* g, f64* y,
                     i64 n);

/// Largest diagonal of step(p) before its scale (step.scale is not read),
/// with the health scan's NaN latching: the first non-finite entry is
/// returned as is.
f64 rank1_step_max_diag(const f64* p, const kernels::EkfPendingStep& step,
                        i64 n);

}  // namespace fekf::dispatch

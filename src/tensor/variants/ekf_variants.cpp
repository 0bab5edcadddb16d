// "ekf_gain_f64" variants — row panel of y = P·g over a packed P, behind
// symv and ekf_gain_fused — and the undispatched rank-1 row body behind
// p_update_fused and ekf_apply_fused (DESIGN.md §13).
//
// This file is compiled with -ffp-contract=off (tensor/CMakeLists.txt).
// The full-P loops these bodies replaced compiled to a rounded product
// followed by an add, except the gain's scalar epilogue; under the default
// contraction GCC fuses the same expressions in these loop shapes into
// FMAs, 1 ulp away. With contraction off, every fused term below is an
// explicit std::fma, so the arithmetic is spelled out in the source.
#include <algorithm>
#include <cmath>

#include "tensor/dispatch.hpp"
#include "tensor/kernels.hpp"
#include "tensor/variants/variants.hpp"

namespace fekf::dispatch {

using kernels::packed_row;

namespace {

/// Terms j >= fused_from(n) of every y[i] chain are fused multiply-adds:
/// the last n % 4 columns, the full-P loop's scalar epilogue.
i64 fused_from(i64 n) { return n - n % 4; }

/// One term of a y[i] chain.
inline f64 term(f64 acc, f64 pij, f64 gj, bool fused) {
  return fused ? std::fma(pij, gj, acc) : acc + pij * gj;
}

/// Reference body: one ascending-j chain per row, reading P[j,i] for
/// j < i from row j.
void gain_scalar(const f64* p, const f64* g, f64* y, i64 rlo, i64 rhi,
                 i64 n) {
  const i64 nf = fused_from(n);
  for (i64 i = rlo; i < rhi; ++i) {
    f64 acc = 0.0;
    for (i64 j = 0; j < n; ++j) {
      const f64 pij = j < i ? p[packed_row(j, n) + (i - j)]
                            : p[packed_row(i, n) + (j - i)];
      acc = term(acc, pij, g[j], j >= nf);
    }
    y[i] = acc;
  }
}

/// acc[r] gets term j of h consecutive rows' chains from the contiguous
/// run[r] = P[j, i0 + r]; independent chains, so the loop vectorizes
/// across rows.
inline void add_column_run(f64* __restrict__ acc, const f64* __restrict__ run,
                           f64 gj, i64 h, bool fused) {
  if (fused) {
    for (i64 r = 0; r < h; ++r) acc[r] = std::fma(run[r], gj, acc[r]);
    return;
  }
#pragma omp simd
  for (i64 r = 0; r < h; ++r) acc[r] += run[r] * gj;
}

/// Terms j >= i of rows [i, i + 4): each row's own run, four chains
/// stepped together once all four rows have started. acc holds the four
/// chains' partial sums over j < i on entry.
void own_runs4(const f64* p, const f64* g, const f64* acc, f64* y, i64 i,
               i64 n, i64 nf) {
  // q_r[j] = P[i + r, j] for j >= i + r.
  const f64* q0 = p + packed_row(i, n) - i;
  const f64* q1 = p + packed_row(i + 1, n) - (i + 1);
  const f64* q2 = p + packed_row(i + 2, n) - (i + 2);
  const f64* q3 = p + packed_row(i + 3, n) - (i + 3);
  f64 a0 = acc[0], a1 = acc[1], a2 = acc[2], a3 = acc[3];
  a0 = term(a0, q0[i], g[i], i >= nf);
  a0 = term(a0, q0[i + 1], g[i + 1], i + 1 >= nf);
  a1 = term(a1, q1[i + 1], g[i + 1], i + 1 >= nf);
  a0 = term(a0, q0[i + 2], g[i + 2], i + 2 >= nf);
  a1 = term(a1, q1[i + 2], g[i + 2], i + 2 >= nf);
  a2 = term(a2, q2[i + 2], g[i + 2], i + 2 >= nf);
  i64 j = i + 3;
  for (; j < nf; ++j) {
    const f64 gj = g[j];
    a0 += q0[j] * gj;
    a1 += q1[j] * gj;
    a2 += q2[j] * gj;
    a3 += q3[j] * gj;
  }
  for (; j < n; ++j) {
    const f64 gj = g[j];
    a0 = std::fma(q0[j], gj, a0);
    a1 = std::fma(q1[j], gj, a1);
    a2 = std::fma(q2[j], gj, a2);
    a3 = std::fma(q3[j], gj, a3);
  }
  y[i] = a0;
  y[i + 1] = a1;
  y[i + 2] = a2;
  y[i + 3] = a3;
}

/// Register-blocked body. The scalar loop is one serial add chain per row,
/// latency-bound, and walks column j < i of each row down the packed rows.
/// Here the panel is taken kGainPanelRows rows at a time: the terms
/// j < r0 come from the contiguous runs P[j, r0..r1), one vectorized
/// column step across the panel per j; the terms r0 <= j < i from the
/// diagonal block's runs the same way; the terms j >= i from each row's
/// own run, four rows at a time. Every y[i] keeps its ascending-j chain
/// and term form, so the body is bit-exact with the scalar one.
void gain_blocked(const f64* p, const f64* g, f64* y, i64 rlo, i64 rhi,
                  i64 n) {
  const i64 nf = fused_from(n);
  alignas(64) f64 acc[kGainPanelRows];
  for (i64 r0 = rlo; r0 < rhi; r0 += kGainPanelRows) {
    const i64 r1 = std::min(r0 + kGainPanelRows, rhi);
    std::fill(acc, acc + (r1 - r0), 0.0);
    for (i64 j = 0; j < r0; ++j) {
      add_column_run(acc, p + packed_row(j, n) + (r0 - j), g[j], r1 - r0,
                     j >= nf);
    }
    for (i64 j = r0; j + 1 < r1; ++j) {
      add_column_run(acc + (j + 1 - r0), p + packed_row(j, n) + 1, g[j],
                     r1 - j - 1, j >= nf);
    }
    i64 i = r0;
    for (; i + 4 <= r1; i += 4) own_runs4(p, g, acc + (i - r0), y, i, n, nf);
    for (; i < r1; ++i) {
      const f64* q = p + packed_row(i, n) - i;
      f64 a = acc[i - r0];
      for (i64 j = i; j < n; ++j) a = term(a, q[j], g[j], j >= nf);
      y[i] = a;
    }
  }
}

}  // namespace

void rank1_rows(const f64* src, f64* dst, const f64* k, f64 coeff,
                f64 inv_lambda, i64 rlo, i64 rhi, i64 n) {
  for (i64 i = rlo; i < rhi; ++i) {
    const f64 ki_scaled = coeff * k[i];
    // s[j] = P[i, j] for j >= i.
    const f64* s = src + (packed_row(i, n) - i);
    f64* d = dst + (packed_row(i, n) - i);
#pragma omp simd
    for (i64 j = i; j < n; ++j) d[j] = (s[j] - ki_scaled * k[j]) * inv_lambda;
  }
}

void register_ekf_variants() {
  static const bool once = [] {
    Registry& r = Registry::instance();
    r.add({"ekf_gain_f64", "scalar", "generic", 0,
           reinterpret_cast<void*>(&gain_scalar),
           "reference: one ascending-j chain per row, P[j,i] read from "
           "row j"});
    r.add({"ekf_gain_f64", "blocked", "generic", 10,
           reinterpret_cast<void*>(&gain_blocked),
           "row panel: column runs vectorized across rows, own runs four "
           "chains at a time; every chain unchanged"});
    return true;
  }();
  (void)once;
}

}  // namespace fekf::dispatch

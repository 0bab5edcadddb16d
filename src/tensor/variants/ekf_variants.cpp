// "ekf_gain_f64" variants — row panel of y = P·g over a packed P, behind
// symv and ekf_apply_gain's gain-only form — and the undispatched EKF
// bodies: the rank-1 rows behind p_update_fused, and the pending-step rows,
// sweep and diagonal probe behind ekf_apply_gain (DESIGN.md §12, §13).
//
// This file is compiled with -ffp-contract=off (tensor/CMakeLists.txt).
// The full-P loops these bodies replaced compiled to a rounded product
// followed by an add, except the gain's scalar epilogue; under the default
// contraction GCC fuses the same expressions in these loop shapes into
// FMAs, 1 ulp away. With contraction off, every fused term below is an
// explicit std::fma, so the arithmetic is spelled out in the source.
#include <algorithm>
#include <cmath>

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

namespace {

/// A kernels::EkfPendingStep with 1/lambda formed once.
struct Rank1Step {
  const f64* k;
  f64 a;
  f64 inv_lambda;
  f64 noise;
  f64 scale;
};

Rank1Step rank1_step(const kernels::EkfPendingStep& step) {
  return {step.k.data(), step.a, 1.0 / step.lambda, step.noise, step.scale};
}

/// Entry (i, j) of step(P): the rank-1 update, then the diagonal noise,
/// then the p_max scale, each rounded in that order.
inline f64 stepped(f64 s, f64 ki_scaled, f64 kj, const Rank1Step& st,
                   bool diag) {
  f64 v = (s - ki_scaled * kj) * st.inv_lambda;
  if (diag) v = v + st.noise;
  return v * st.scale;
}

/// Columns [j0, j1) of rows [i, i + 4) of the sweep, j0 >= i + 4: write
/// step(P) and continue the chains, every term unfused (i + 3 < nf).
/// Column j's chain y[j] takes its terms i..i+3 here, in that order; each
/// row's own chain acc[r] its terms j0..j1-1, read back from dst while
/// the tile is still in L1.
inline void sweep_tile4(const f64* const* s, f64* const* d, const f64* c,
                        const Rank1Step& st, const f64* g, f64* y, f64* acc,
                        i64 i, i64 j0, i64 j1, i64 nf) {
  const f64* k = st.k;
  const f64 il = st.inv_lambda, sc = st.scale;
  const f64* s0 = s[0];
  const f64* s1 = s[1];
  const f64* s2 = s[2];
  const f64* s3 = s[3];
  f64* d0 = d[0];
  f64* d1 = d[1];
  f64* d2 = d[2];
  f64* d3 = d[3];
  const f64 c0 = c[0], c1 = c[1], c2 = c[2], c3 = c[3];
  const f64 g0 = g[i], g1 = g[i + 1], g2 = g[i + 2], g3 = g[i + 3];
#pragma omp simd
  for (i64 j = j0; j < j1; ++j) {
    const f64 kj = k[j];
    const f64 v0 = ((s0[j] - c0 * kj) * il) * sc;
    const f64 v1 = ((s1[j] - c1 * kj) * il) * sc;
    const f64 v2 = ((s2[j] - c2 * kj) * il) * sc;
    const f64 v3 = ((s3[j] - c3 * kj) * il) * sc;
    d0[j] = v0;
    d1[j] = v1;
    d2[j] = v2;
    d3[j] = v3;
    y[j] = (((y[j] + v0 * g0) + v1 * g1) + v2 * g2) + v3 * g3;
  }
  f64 a0 = acc[0], a1 = acc[1], a2 = acc[2], a3 = acc[3];
  i64 j = j0;
  for (const i64 ju = std::min(j1, nf); j < ju; ++j) {
    const f64 gj = g[j];
    a0 += d0[j] * gj;
    a1 += d1[j] * gj;
    a2 += d2[j] * gj;
    a3 += d3[j] * gj;
  }
  for (; j < j1; ++j) {
    const f64 gj = g[j];
    a0 = std::fma(d0[j], gj, a0);
    a1 = std::fma(d1[j], gj, a1);
    a2 = std::fma(d2[j], gj, a2);
    a3 = std::fma(d3[j], gj, a3);
  }
  acc[0] = a0;
  acc[1] = a1;
  acc[2] = a2;
  acc[3] = a3;
}

/// Columns per sweep tile: four rows of it (8 KB) stay in L1 between the
/// write pass and the own-chain pass.
constexpr i64 kSweepTile = 256;

}  // namespace

void rank1_step_rows(const f64* src, f64* dst,
                     const kernels::EkfPendingStep& step, i64 rlo, i64 rhi,
                     i64 n) {
  const Rank1Step st = rank1_step(step);
  const f64* k = st.k;
  const f64 il = st.inv_lambda, sc = st.scale;
  for (i64 i = rlo; i < rhi; ++i) {
    const f64 ki_scaled = st.a * k[i];
    const f64* s = src + (packed_row(i, n) - i);
    f64* d = dst + (packed_row(i, n) - i);
    d[i] = stepped(s[i], ki_scaled, k[i], st, true);
#pragma omp simd
    for (i64 j = i + 1; j < n; ++j) {
      d[j] = ((s[j] - ki_scaled * k[j]) * il) * sc;
    }
  }
}

void rank1_step_gain(const f64* src, f64* dst,
                     const kernels::EkfPendingStep& step, const f64* g, f64* y,
                     i64 n) {
  // Rows ascend, so every row j < i has written its term P[j,i] g[j] into
  // y[i] (term j of y[i]'s chain, in order) before row i starts its own
  // terms j >= i from there: each chain is gain_scalar's. Rows go four at
  // a time, all below nf, so their scatter terms are unfused; the last
  // n % 4 rows run one at a time with every term fused.
  const Rank1Step st = rank1_step(step);
  const f64* k = st.k;
  const i64 nf = fused_from(n);
  std::fill(y, y + n, 0.0);
  i64 i = 0;
  for (; i + 4 <= n; i += 4) {
    const f64* s[4];
    f64* d[4];
    f64 c[4];
    for (i64 r = 0; r < 4; ++r) {
      s[r] = src + (packed_row(i + r, n) - (i + r));
      d[r] = dst + (packed_row(i + r, n) - (i + r));
      c[r] = st.a * k[i + r];
    }
    // The 4 x 4 diagonal corner: v[r][q] = step(P)[i + r, i + q], q >= r.
    f64 v[4][4];
    for (i64 r = 0; r < 4; ++r) {
      for (i64 q = r; q < 4; ++q) {
        v[r][q] = stepped(s[r][i + q], c[r], k[i + q], st, q == r);
        d[r][i + q] = v[r][q];
      }
    }
    // Chain of row i + q over terms i..i+3: P[i + t, i + q] for t < q
    // (scattered from the rows above), its own run from t = q.
    f64 acc[4];
    for (i64 q = 0; q < 4; ++q) {
      f64 a = y[i + q];
      for (i64 t = 0; t < 4; ++t) {
        a += v[std::min(t, q)][std::max(t, q)] * g[i + t];
      }
      acc[q] = a;
    }
    for (i64 j0 = i + 4; j0 < n; j0 += kSweepTile) {
      sweep_tile4(s, d, c, st, g, y, acc, i, j0, std::min(j0 + kSweepTile, n),
                  nf);
    }
    for (i64 r = 0; r < 4; ++r) y[i + r] = acc[r];
  }
  for (; i < n; ++i) {
    const f64 ki_scaled = st.a * k[i];
    const f64* s = src + (packed_row(i, n) - i);
    f64* d = dst + (packed_row(i, n) - i);
    const f64 gi = g[i];
    f64 a = y[i];
    for (i64 j = i; j < n; ++j) {
      const f64 vij = stepped(s[j], ki_scaled, k[j], st, j == i);
      d[j] = vij;
      a = std::fma(vij, g[j], a);
      if (j > i) y[j] = std::fma(vij, gi, y[j]);
    }
    y[i] = a;
  }
}

f64 rank1_step_max_diag(const f64* p, const kernels::EkfPendingStep& step,
                        i64 n) {
  const Rank1Step st = rank1_step(step);
  f64 max_diag = 0.0;
  for (i64 i = 0; i < n; ++i) {
    const f64 ki_scaled = st.a * st.k[i];
    f64 d = (p[packed_row(i, n)] - ki_scaled * st.k[i]) * st.inv_lambda;
    d = d + st.noise;
    if (!std::isfinite(d)) return d;
    max_diag = std::max(max_diag, d);
  }
  return max_diag;
}

std::span<const Variant<GainPanelFn>> gain_variants() {
  static constexpr Variant<GainPanelFn> kTable[] = {
      {"scalar", "generic", &gain_scalar},
      {"blocked", "generic", &gain_blocked},
  };
  return kTable;
}

}  // namespace fekf::dispatch

// "ekf_rank1_f64" variants: row panel of the pair-averaged symmetric
// rank-1 P update behind p_update_fused and ekf_apply_fused
// (DESIGN.md §13).
//
// The update is ELEMENTWISE over the row panel (no reduction), and every
// pair (i,j)/(j,i) depends only on its own two old values, so the tiled
// body keeps the exact per-element expression of the scalar body and is
// bit-exact for any traversal order, memcmp-asserted in
// tests/test_dispatch.cpp.
#include <algorithm>

#include "tensor/dispatch.hpp"
#include "tensor/variants/variants.hpp"

namespace fekf::dispatch {

namespace {

/// Column tile width of the tiled body: a kRank1PanelRows x kTileCols f64
/// staging block is 16 KB, a third of a 48 KB L1d.
constexpr i64 kTileCols = 32;

/// Reference body — the upper-triangle row loop p_update_fused /
/// ekf_apply_fused always ran. Row i owns pairs {(i,j),(j,i) : j >= i}.
void rank1_scalar(f64* p, const f64* k, f64 coeff, f64 inv_lambda, i64 rlo,
                  i64 rhi, i64 n) {
  for (i64 i = rlo; i < rhi; ++i) {
    const f64 ki_scaled = coeff * k[i];
    f64* __restrict__ prow = p + i * n;
    for (i64 j = i; j < n; ++j) {
      const f64 pij = 0.5 * (prow[j] + p[j * n + i]);
      const f64 v = (pij - ki_scaled * k[j]) * inv_lambda;
      prow[j] = v;
      p[j * n + i] = v;
    }
  }
}

/// Cache-tiled body. The scalar loop reads and writes the mirror (j,i) down
/// a column, one n*8-byte stride (one page at n = 512+) per element. Here
/// the panel is taken kRank1PanelRows rows at a time and its columns
/// kTileCols at a time; each tile's mirror block — rows [c0, c1), columns
/// [r0, r1), contiguous runs of up to kRank1PanelRows doubles — is staged
/// transposed in a stack buffer, updated there with unit stride next to
/// the row elements, and written back. Only owned pairs (j >= i) are
/// staged and written back, so rows outside the sub-panel are never
/// touched and the per-element expression is the scalar one.
void rank1_simd(f64* p, const f64* k, f64 coeff, f64 inv_lambda, i64 rlo,
                i64 rhi, i64 n) {
  // mirror[ii * kTileCols + jj] holds P[c0 + jj, r0 + ii].
  alignas(64) f64 mirror[kRank1PanelRows * kTileCols];
  for (i64 r0 = rlo; r0 < rhi; r0 += kRank1PanelRows) {
    const i64 r1 = std::min(r0 + kRank1PanelRows, rhi);
    for (i64 c0 = r0; c0 < n; c0 += kTileCols) {
      const i64 c1 = std::min(c0 + kTileCols, n);
      // Owned mirror entries of column j: rows i in [r0, min(r1, j + 1)).
      for (i64 j = c0; j < c1; ++j) {
        const f64* __restrict__ src = p + j * n;
        for (i64 i = r0, ie = std::min(r1, j + 1); i < ie; ++i) {
          mirror[(i - r0) * kTileCols + (j - c0)] = src[i];
        }
      }
      for (i64 i = r0; i < std::min(r1, c1); ++i) {
        const f64 ki_scaled = coeff * k[i];
        f64* __restrict__ prow = p + i * n;
        f64* __restrict__ mrow = mirror + (i - r0) * kTileCols;
#pragma omp simd
        for (i64 j = std::max(c0, i); j < c1; ++j) {
          const f64 pij = 0.5 * (prow[j] + mrow[j - c0]);
          const f64 v = (pij - ki_scaled * k[j]) * inv_lambda;
          prow[j] = v;
          mrow[j - c0] = v;
        }
      }
      for (i64 j = c0; j < c1; ++j) {
        f64* __restrict__ dst = p + j * n;
        for (i64 i = r0, ie = std::min(r1, j + 1); i < ie; ++i) {
          dst[i] = mirror[(i - r0) * kTileCols + (j - c0)];
        }
      }
    }
  }
}

}  // namespace

void register_ekf_variants() {
  static const bool once = [] {
    Registry& r = Registry::instance();
    r.add({"ekf_rank1_f64", "scalar", "generic", 0,
           reinterpret_cast<void*>(&rank1_scalar),
           "reference upper-triangle pair-averaged update"});
    r.add({"ekf_rank1_f64", "simd", "generic", 10,
           reinterpret_cast<void*>(&rank1_simd),
           "cache-tiled: mirror block staged transposed, unit-stride "
           "omp-simd pairs; expression unchanged"});
    return true;
  }();
  (void)once;
}

}  // namespace fekf::dispatch

// "gemm_tn_f32" variants: the row-panel inner body behind matmul_tn
// (DESIGN.md §13).
//
// The family contract is one f32 chain per output element over ASCENDING
// l, started at +0.0f, with one fused multiply-add per term:
//
//   out[i*n + j] = fma(a[l*m + i], b[l*n + j], out[i*n + j]),  l = 0..k-1
//
// which is what GCC emits for the scalar body at -march=native (every term
// of its vector and scalar loops is a vfmadd). The reference streams the
// whole panel through memory once per l, so each output is loaded and
// stored k times; the tiled rung keeps an output tile in registers across
// the entire chain and stores it once. Both evaluate the same chain per
// element, so they are bit-exact (memcmp-asserted in
// tests/test_dispatch.cpp).
#include <algorithm>
#include <cstring>

#include "tensor/variants/variants.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace fekf::dispatch {

namespace {

/// Reference body — the loop matmul_tn always ran, over a zero-seeded
/// panel.
void gemm_tn_scalar(const f32* a, const f32* b, f32* out, i64 rlo, i64 rhi,
                    i64 k, i64 m, i64 n) {
  std::memset(out + rlo * n, 0,
              static_cast<std::size_t>((rhi - rlo) * n) * sizeof(f32));
  for (i64 l = 0; l < k; ++l) {
    const f32* __restrict__ arow = a + l * m;
    const f32* __restrict__ brow = b + l * n;
    for (i64 i = rlo; i < rhi; ++i) {
      const f32 av = arow[i];
      f32* __restrict__ orow = out + i * n;
      for (i64 j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

#if defined(__AVX2__) && defined(__FMA__)

/// Output rows per register tile; with two 8-lane column vectors that is
/// 8 independent accumulator chains, enough to cover the FMA latency.
constexpr i64 kTileRows = 4;
constexpr i64 kTileCols = 16;

/// Lane mask selecting the first `valid` (clamped to 0..8) of 8 lanes.
inline __m256i lane_mask(i64 valid) {
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(valid < 0 ? 0 : valid)), lanes);
}

/// One R x 16 output tile at (i0, j0): accumulators start at +0.0f and take
/// one FMA per l in ascending order, then store once. kFull tiles use
/// plain loads/stores; edge tiles mask the columns past n (a masked-off
/// lane loads 0.0f and is never stored).
template <int R, bool kFull>
inline void tn_tile(const f32* __restrict__ a, const f32* __restrict__ b,
                    f32* __restrict__ out, i64 i0, i64 j0, i64 k, i64 m,
                    i64 n, __m256i mask0, __m256i mask1) {
  __m256 acc0[R], acc1[R];
  for (int r = 0; r < R; ++r) {
    acc0[r] = _mm256_setzero_ps();
    acc1[r] = _mm256_setzero_ps();
  }
  const f32* __restrict__ acol = a + i0;
  const f32* __restrict__ bcol = b + j0;
  for (i64 l = 0; l < k; ++l) {
    const f32* __restrict__ brow = bcol + l * n;
    const __m256 b0 =
        kFull ? _mm256_loadu_ps(brow) : _mm256_maskload_ps(brow, mask0);
    const __m256 b1 = kFull ? _mm256_loadu_ps(brow + 8)
                            : _mm256_maskload_ps(brow + 8, mask1);
    const f32* __restrict__ arow = acol + l * m;
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(arow + r);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
  for (int r = 0; r < R; ++r) {
    f32* orow = out + (i0 + r) * n + j0;
    if (kFull) {
      _mm256_storeu_ps(orow, acc0[r]);
      _mm256_storeu_ps(orow + 8, acc1[r]);
    } else {
      _mm256_maskstore_ps(orow, mask0, acc0[r]);
      _mm256_maskstore_ps(orow + 8, mask1, acc1[r]);
    }
  }
}

template <bool kFull>
inline void tn_tile_rows(i64 rows, const f32* a, const f32* b, f32* out,
                         i64 i0, i64 j0, i64 k, i64 m, i64 n, __m256i mask0,
                         __m256i mask1) {
  switch (rows) {
    case 4: tn_tile<4, kFull>(a, b, out, i0, j0, k, m, n, mask0, mask1); break;
    case 3: tn_tile<3, kFull>(a, b, out, i0, j0, k, m, n, mask0, mask1); break;
    case 2: tn_tile<2, kFull>(a, b, out, i0, j0, k, m, n, mask0, mask1); break;
    default: tn_tile<1, kFull>(a, b, out, i0, j0, k, m, n, mask0, mask1); break;
  }
}

/// 4 x 16 register tiles over the panel (ragged row and column edges take
/// smaller / masked tiles). Every output is written exactly once, so the
/// panel needs no zero seed.
void gemm_tn_avx2(const f32* a, const f32* b, f32* out, i64 rlo, i64 rhi,
                  i64 k, i64 m, i64 n) {
  const __m256i all = _mm256_set1_epi32(-1);
  for (i64 i0 = rlo; i0 < rhi; i0 += kTileRows) {
    const i64 rows = std::min(kTileRows, rhi - i0);
    i64 j0 = 0;
    for (; j0 + kTileCols <= n; j0 += kTileCols) {
      tn_tile_rows<true>(rows, a, b, out, i0, j0, k, m, n, all, all);
    }
    if (j0 < n) {
      tn_tile_rows<false>(rows, a, b, out, i0, j0, k, m, n,
                          lane_mask(n - j0), lane_mask(n - j0 - 8));
    }
  }
}

#endif

}  // namespace

std::span<const Variant<GemmTnPanelFn>> gemm_tn_variants() {
  static constexpr Variant<GemmTnPanelFn> kTable[] = {
      {"scalar", "generic", &gemm_tn_scalar},
#if defined(__AVX2__) && defined(__FMA__)
      {"avx2", "avx2+fma", &gemm_tn_avx2},
#endif
  };
  return kTable;
}

}  // namespace fekf::dispatch

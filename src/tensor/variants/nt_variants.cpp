// "matnt_f32" variants: the row-panel inner body behind matmul_nt and the
// per-block descriptor contraction bmm_nt (DESIGN.md §13).
//
// The family contract is one f64 accumulator per output element over
// ASCENDING l:
//
//   out[i*n + j] = f32( sum_{l<q} f64(a[i*q + l]) * f64(b[j*q + l]) )
//
// Unlike the f32-accumulate gemm family, every term here is EXACT: the
// f64 product of two f32 values fits in 53 mantissa bits (24 + 24 = 48),
// so a fused multiply-add and an unfused multiply-then-add round
// identically at every step, and the only rounding that matters is the
// add chain itself. Any variant that keeps each output's chain in
// ascending l is therefore bit-exact by construction, no matter how many
// outputs it carries per vector register — which is why this family
// vectorizes ACROSS outputs (j lanes) instead of along the reduction.
// Both wide variants first transpose the small b operand into a local
// buffer so the j lanes load contiguously; oversized panels (or n < 4)
// delegate to the scalar body.
#include "tensor/variants/variants.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace fekf::dispatch {

namespace {

/// Stack budget for the transposed b panel (16 KiB of f32). The repo's
/// callers stay far below it: bmm_nt blocks are s*q <= a few hundred,
/// matmul_nt panels are at most (network width)^2.
constexpr i64 kTransposeCap = 4096;

/// Reference body — the exact loop matmul_nt/bmm_nt always ran.
void matnt_scalar(const f32* a, const f32* b, f32* out, i64 rlo, i64 rhi,
                  i64 n, i64 q) {
  for (i64 i = rlo; i < rhi; ++i) {
    const f32* __restrict__ arow = a + i * q;
    f32* __restrict__ orow = out + i * n;
    for (i64 j = 0; j < n; ++j) {
      const f32* __restrict__ brow = b + j * q;
      f64 acc = 0.0;
      for (i64 l = 0; l < q; ++l) {
        acc += static_cast<f64>(arow[l]) * brow[l];
      }
      orow[j] = static_cast<f32>(acc);
    }
  }
}

inline void transpose_b(const f32* __restrict__ b, f32* __restrict__ bt,
                        i64 n, i64 q) {
  for (i64 j = 0; j < n; ++j) {
    for (i64 l = 0; l < q; ++l) bt[l * n + j] = b[j * q + l];
  }
}

/// Four independent f64 accumulators per j block, contiguous lane loads
/// from the transposed b. Each acc[t] is its own ascending-l chain and
/// every product is exact, so lane width cannot change any element:
/// bit-exact (GCC turns the acc array into one packed-f64 FMA chain).
void matnt_lanes(const f32* a, const f32* b, f32* out, i64 rlo, i64 rhi,
                 i64 n, i64 q) {
  if (n < 4 || n * q > kTransposeCap) {
    matnt_scalar(a, b, out, rlo, rhi, n, q);
    return;
  }
  f32 bt[kTransposeCap];
  transpose_b(b, bt, n, q);
  const i64 n4 = n - (n % 4);
  for (i64 i = rlo; i < rhi; ++i) {
    const f32* __restrict__ arow = a + i * q;
    f32* __restrict__ orow = out + i * n;
    for (i64 j = 0; j < n4; j += 4) {
      f64 acc[4] = {0.0, 0.0, 0.0, 0.0};
      for (i64 l = 0; l < q; ++l) {
        const f64 av = static_cast<f64>(arow[l]);
        const f32* __restrict__ bl = bt + l * n + j;
        for (int t = 0; t < 4; ++t) acc[t] += av * static_cast<f64>(bl[t]);
      }
      for (int t = 0; t < 4; ++t) orow[j + t] = static_cast<f32>(acc[t]);
    }
    for (i64 j = n4; j < n; ++j) {
      const f32* __restrict__ brow = b + j * q;
      f64 acc = 0.0;
      for (i64 l = 0; l < q; ++l) {
        acc += static_cast<f64>(arow[l]) * brow[l];
      }
      orow[j] = static_cast<f32>(acc);
    }
  }
}

#if defined(__AVX2__) && defined(__FMA__)
/// Explicit packed-f64 FMA over 8 (then 4) j lanes. Same exactness
/// argument as `lanes`: exact products, per-output ascending-l chain,
/// and _mm256_cvtpd_ps rounds to nearest exactly like static_cast<f32>.
void matnt_avx2(const f32* a, const f32* b, f32* out, i64 rlo, i64 rhi,
                i64 n, i64 q) {
  if (n < 4 || n * q > kTransposeCap) {
    matnt_scalar(a, b, out, rlo, rhi, n, q);
    return;
  }
  f32 bt[kTransposeCap];
  transpose_b(b, bt, n, q);
  const i64 n8 = n - (n % 8);
  const i64 n4 = n - (n % 4);
  for (i64 i = rlo; i < rhi; ++i) {
    const f32* __restrict__ arow = a + i * q;
    f32* __restrict__ orow = out + i * n;
    i64 j = 0;
    for (; j < n8; j += 8) {
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      for (i64 l = 0; l < q; ++l) {
        const __m256d av = _mm256_set1_pd(static_cast<f64>(arow[l]));
        const f32* __restrict__ bl = bt + l * n + j;
        acc0 = _mm256_fmadd_pd(av, _mm256_cvtps_pd(_mm_loadu_ps(bl)), acc0);
        acc1 =
            _mm256_fmadd_pd(av, _mm256_cvtps_pd(_mm_loadu_ps(bl + 4)), acc1);
      }
      _mm_storeu_ps(orow + j, _mm256_cvtpd_ps(acc0));
      _mm_storeu_ps(orow + j + 4, _mm256_cvtpd_ps(acc1));
    }
    for (; j < n4; j += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (i64 l = 0; l < q; ++l) {
        const __m256d av = _mm256_set1_pd(static_cast<f64>(arow[l]));
        acc = _mm256_fmadd_pd(
            av, _mm256_cvtps_pd(_mm_loadu_ps(bt + l * n + j)), acc);
      }
      _mm_storeu_ps(orow + j, _mm256_cvtpd_ps(acc));
    }
    for (; j < n; ++j) {
      const f32* __restrict__ brow = b + j * q;
      f64 acc = 0.0;
      for (i64 l = 0; l < q; ++l) {
        acc += static_cast<f64>(arow[l]) * brow[l];
      }
      orow[j] = static_cast<f32>(acc);
    }
  }
}
#endif

}  // namespace

std::span<const Variant<MatNtPanelFn>> matnt_variants() {
  static constexpr Variant<MatNtPanelFn> kTable[] = {
      {"scalar", "generic", &matnt_scalar},
      {"lanes", "generic", &matnt_lanes},
#if defined(__AVX2__) && defined(__FMA__)
      {"avx2", "avx2+fma", &matnt_avx2},
#endif
  };
  return kTable;
}

}  // namespace fekf::dispatch

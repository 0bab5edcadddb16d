// "gemm_f32" variants: the row-panel inner body behind matmul and
// linear_fused (DESIGN.md §13).
//
// Every variant keeps the reference accumulation shape — seed the output
// row (bias or zeros), then accumulate xv * wrow over ASCENDING l — so
// each output element's floating-point chain has the same term order
// across variants. simd and avx2 additionally preserve the CONTRACTION
// (one fused multiply-add per l, as GCC emits for the scalar body), so
// they are bit-exact, memcmp-asserted in tests/test_dispatch.cpp. A
// compiler that contracts differently fails the suite loudly rather than
// drifting silently.
#include <cstring>

#include "tensor/dispatch.hpp"
#include "tensor/variants/variants.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace fekf::dispatch {

namespace {

inline void seed_row(f32* __restrict__ orow, const f32* __restrict__ bias,
                     i64 n) {
  if (bias != nullptr) {
    std::memcpy(orow, bias, static_cast<std::size_t>(n) * sizeof(f32));
  } else {
    std::memset(orow, 0, static_cast<std::size_t>(n) * sizeof(f32));
  }
}

/// Reference body — the exact loop matmul/linear_fused always ran.
void gemm_scalar(const f32* x, const f32* w, const f32* bias, f32* out,
                 i64 rlo, i64 rhi, i64 k, i64 n) {
  for (i64 i = rlo; i < rhi; ++i) {
    f32* __restrict__ orow = out + i * n;
    seed_row(orow, bias, n);
    const f32* __restrict__ xrow = x + i * k;
    for (i64 l = 0; l < k; ++l) {
      const f32 xv = xrow[l];
      const f32* __restrict__ wrow = w + l * n;
      for (i64 j = 0; j < n; ++j) orow[j] += xv * wrow[j];
    }
  }
}

/// Same loop with an explicit vectorization grant on the j loop. Each
/// orow[j] keeps its own ascending-l chain, so lane width cannot change
/// any element's value: bit-exact.
void gemm_simd(const f32* x, const f32* w, const f32* bias, f32* out,
               i64 rlo, i64 rhi, i64 k, i64 n) {
  for (i64 i = rlo; i < rhi; ++i) {
    f32* __restrict__ orow = out + i * n;
    seed_row(orow, bias, n);
    const f32* __restrict__ xrow = x + i * k;
    for (i64 l = 0; l < k; ++l) {
      const f32 xv = xrow[l];
      const f32* __restrict__ wrow = w + l * n;
#pragma omp simd
      for (i64 j = 0; j < n; ++j) orow[j] += xv * wrow[j];
    }
  }
}

#if defined(__AVX2__) && defined(__FMA__)
/// Explicit 8-lane FMA over the j loop; ascending-l chain per element and
/// one fused multiply-add per step, matching the contracted scalar body:
/// bit-exact. The tail (n % 8) runs the scalar expression.
void gemm_avx2(const f32* x, const f32* w, const f32* bias, f32* out,
               i64 rlo, i64 rhi, i64 k, i64 n) {
  const i64 n8 = n - (n % 8);
  for (i64 i = rlo; i < rhi; ++i) {
    f32* __restrict__ orow = out + i * n;
    seed_row(orow, bias, n);
    const f32* __restrict__ xrow = x + i * k;
    for (i64 l = 0; l < k; ++l) {
      const __m256 xv = _mm256_set1_ps(xrow[l]);
      const f32* __restrict__ wrow = w + l * n;
      for (i64 j = 0; j < n8; j += 8) {
        const __m256 acc = _mm256_loadu_ps(orow + j);
        _mm256_storeu_ps(orow + j,
                         _mm256_fmadd_ps(xv, _mm256_loadu_ps(wrow + j), acc));
      }
      const f32 xs = xrow[l];
      for (i64 j = n8; j < n; ++j) orow[j] += xs * wrow[j];
    }
  }
}
#endif

}  // namespace

void register_gemm_variants() {
  static const bool once = [] {
    Registry& r = Registry::instance();
    r.add({"gemm_f32", "scalar", "generic", 0,
           reinterpret_cast<void*>(&gemm_scalar),
           "reference row-panel body (seed, then ascending-l accumulate)"});
    r.add({"gemm_f32", "simd", "generic", 10,
           reinterpret_cast<void*>(&gemm_simd),
           "omp-simd j loop; per-element chain unchanged"});
#if defined(__AVX2__) && defined(__FMA__)
    r.add({"gemm_f32", "avx2", "avx2+fma", 20,
           reinterpret_cast<void*>(&gemm_avx2),
           "8-lane FMA j loop; one fused multiply-add per l, as the "
           "contracted scalar body"});
#endif
    return true;
  }();
  (void)once;
}

}  // namespace fekf::dispatch

// "gemm_f32" variants: the row-panel inner body behind matmul and
// linear_fused (DESIGN.md §13).
//
// Every variant keeps the reference accumulation shape — seed the output
// row (bias or zeros), then accumulate xv * wrow over ASCENDING l — so
// each output element's floating-point chain has the same term order
// across variants. simd additionally preserves the CONTRACTION (one fused
// multiply-add per l, as GCC emits for the scalar body), so it is
// bit-exact, memcmp-asserted in tests/test_dispatch.cpp. A compiler that
// contracts differently fails the suite loudly rather than drifting
// silently. There is no intrinsics rung: under -march=native the compiler
// vectorizes simd at the host's full width, and a hand-written 8-lane FMA
// body timed no faster at any shape the workloads run.
#include <cstring>

#include "tensor/variants/variants.hpp"

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

}  // namespace

std::span<const Variant<GemmPanelFn>> gemm_variants() {
  static constexpr Variant<GemmPanelFn> kTable[] = {
      {"scalar", "generic", &gemm_scalar},
      {"simd", "generic", &gemm_simd},
  };
  return kTable;
}

}  // namespace fekf::dispatch

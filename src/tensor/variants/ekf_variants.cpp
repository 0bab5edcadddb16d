// "ekf_rank1_f64" variants: row panel of the pair-averaged symmetric
// rank-1 P update behind p_update_fused and ekf_apply_fused
// (DESIGN.md §13).
//
// The update is ELEMENTWISE over the row panel (no reduction), so the
// vectorized body keeps the exact per-element expression of the scalar
// body and is bit-exact, memcmp-asserted in tests/test_dispatch.cpp.
#include "tensor/dispatch.hpp"
#include "tensor/variants/variants.hpp"

namespace fekf::dispatch {

namespace {

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

/// omp-simd over the (independent) j elements; same per-element expression
/// and contraction shape as scalar => bit-exact.
void rank1_simd(f64* p, const f64* k, f64 coeff, f64 inv_lambda, i64 rlo,
                i64 rhi, i64 n) {
  for (i64 i = rlo; i < rhi; ++i) {
    const f64 ki_scaled = coeff * k[i];
    f64* __restrict__ prow = p + i * n;
#pragma omp simd
    for (i64 j = i; j < n; ++j) {
      const f64 pij = 0.5 * (prow[j] + p[j * n + i]);
      const f64 v = (pij - ki_scaled * k[j]) * inv_lambda;
      prow[j] = v;
      p[j * n + i] = v;
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
           "omp-simd over independent j elements; expression unchanged"});
    return true;
  }();
  (void)once;
}

}  // namespace fekf::dispatch

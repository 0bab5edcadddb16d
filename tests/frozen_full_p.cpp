// Frozen copies of the full-P row bodies the EKF ran before P was stored
// packed, kernels.cpp's symv_rows and the ekf_rank1_f64 scalar reference,
// for DispatchExactness.PackedEkfMatchesTheFullPReference.
//
// Each term is pinned to the form the release build (-O3 -march=native)
// emitted for the original loops, as read back with objdump: symv_rows'
// vector loop rounded each product and added it in order, and its scalar
// epilogue, the last n % 4 terms, fused them (vfmadd231sd); the rank-1
// update fused the exact halving into the subtraction (vfmsub132pd). This
// file is compiled with -ffp-contract=off (tests/CMakeLists.txt), so the
// forms hold under any flags. Under ASan/UBSan the original loops did not
// vectorize and every symv_rows term fused, 1 ulp away from the release
// reference.
#include <cmath>

#include "core/common.hpp"

namespace fekf::testref {

void frozen_symv_rows(const f64* p, const f64* g, f64* y, i64 rlo, i64 rhi,
                      i64 n) {
  const i64 nf = n - n % 4;
  for (i64 i = rlo; i < rhi; ++i) {
    const f64* row = p + i * n;
    f64 acc = 0.0;
    for (i64 j = 0; j < nf; ++j) acc += row[j] * g[j];
    for (i64 j = nf; j < n; ++j) acc = std::fma(row[j], g[j], acc);
    y[i] = acc;
  }
}

void frozen_rank1(f64* p, const f64* k, f64 coeff, f64 inv_lambda, i64 rlo,
                  i64 rhi, i64 n) {
  for (i64 i = rlo; i < rhi; ++i) {
    const f64 ki_scaled = coeff * k[i];
    f64* prow = p + i * n;
    for (i64 j = i; j < n; ++j) {
      const f64 sum = prow[j] + p[j * n + i];
      const f64 v = std::fma(sum, 0.5, -(ki_scaled * k[j])) * inv_lambda;
      prow[j] = v;
      p[j * n + i] = v;
    }
  }
}

}  // namespace fekf::testref

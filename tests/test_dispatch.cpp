// Kernel variant tables and the bit-exactness contract
// (DESIGN.md §13, docs/KERNELS.md).
//
// The contract these tests enforce: every compiled variant matches its
// family's scalar reference byte for byte (memcmp), both as a bare body
// and through the public kernels at thread widths 1 and 4; plus the table
// shape and selection policy: each table starts with the generic scalar
// reference, auto selects the last entry and scalar the first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "deepmd/bmm.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/dispatch.hpp"
#include "tensor/kernels.hpp"
#include "tensor/variants/variants.hpp"

namespace fekf {
namespace testref {
// The full-P reference bodies, pinned term by term (frozen_full_p.cpp).
void frozen_symv_rows(const f64* p, const f64* g, f64* y, i64 rlo, i64 rhi,
                      i64 n);
void frozen_rank1(f64* p, const f64* k, f64 coeff, f64 inv_lambda, i64 rlo,
                  i64 rhi, i64 n);
}  // namespace testref
namespace {

namespace dp = dispatch;

/// Calls visit(family, table) for each of the four family tables.
template <typename Visit>
void for_each_family(Visit&& visit) {
  visit("gemm_f32", dp::gemm_variants());
  visit("ekf_gain_f64", dp::gain_variants());
  visit("matnt_f32", dp::matnt_variants());
  visit("gemm_tn_f32", dp::gemm_tn_variants());
}

struct BackendGuard {
  const dp::Backend prior = dp::backend();
  ~BackendGuard() { dp::set_backend(prior); }
};

/// The selections the public-kernel tests sweep: the scalar reference and
/// auto, the last compiled variant of each family.
constexpr dp::Backend kModes[] = {dp::Backend::kScalar, dp::Backend::kAuto};

struct WidthGuard {
  ~WidthGuard() { set_num_threads(0); }
};

std::vector<f32> randn_f32(i64 count, u64 seed) {
  Rng rng(seed);
  Tensor t = Tensor::randn(1, count, rng);
  return std::vector<f32>(t.data(), t.data() + count);
}

std::vector<f64> randn_f64(i64 count, u64 seed) {
  Rng rng(seed);
  Tensor t = Tensor::randn(1, count, rng);
  std::vector<f64> out(static_cast<std::size_t>(count));
  for (i64 i = 0; i < count; ++i) out[static_cast<std::size_t>(i)] = t.data()[i];
  return out;
}

template <typename T>
bool bytes_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// ---------------------------------------------------------------------------
// Table shape and selection
// ---------------------------------------------------------------------------

TEST(DispatchTable, ScalarFirstAndSelectPicksTheEnds) {
  BackendGuard guard;
  for_each_family([](const char* family, auto table) {
    SCOPED_TRACE(family);
    ASSERT_GE(table.size(), 2u) << "expected at least one non-scalar variant";
    EXPECT_STREQ(table.front().name, "scalar");
    EXPECT_STREQ(table.front().isa, "generic");
    for (std::size_t i = 1; i < table.size(); ++i) {
      EXPECT_STRNE(table[i].name, "scalar");
      EXPECT_TRUE(std::string(table[i].isa) == "generic" ||
                  std::string(table[i].isa) == dp::kCompiledIsa)
          << table[i].name;
    }
    dp::set_backend(dp::Backend::kAuto);
    EXPECT_EQ(&dp::select(table), &table.back());
    dp::set_backend(dp::Backend::kScalar);
    EXPECT_EQ(&dp::select(table), &table.front());
  });
}

TEST(DispatchTable, BackendParsing) {
  dp::Backend backend = dp::Backend::kScalar;
  EXPECT_TRUE(dp::parse_backend("auto", &backend));
  EXPECT_EQ(backend, dp::Backend::kAuto);
  EXPECT_TRUE(dp::parse_backend("scalar", &backend));
  EXPECT_EQ(backend, dp::Backend::kScalar);
  EXPECT_TRUE(dp::parse_backend("", &backend));
  EXPECT_EQ(backend, dp::Backend::kAuto);
  // The forced-level names of the old ladder, and junk, are rejected.
  for (const char* bad : {"simd", "avx2", "sse9", "AVX2", "Scalar", "auto "}) {
    EXPECT_FALSE(dp::parse_backend(bad, &backend)) << bad;
  }
}

// ---------------------------------------------------------------------------
// Per-variant exactness sweeps against the scalar reference
// ---------------------------------------------------------------------------

/// Runs `check(fn)` for every non-scalar entry of a family table.
template <typename Fn, typename Check>
void for_each_checked_variant(std::span<const dp::Variant<Fn>> table,
                              Check&& check) {
  EXPECT_GE(table.size(), 2u) << "no non-scalar variant to check";
  for (const dp::Variant<Fn>& v : table.subspan(1)) {
    SCOPED_TRACE(v.name);
    check(v.fn);
  }
}

TEST(DispatchExactness, GemmVariantsAreBitExact) {
  const dp::GemmPanelFn scalar = dp::gemm_variants().front().fn;
  // Paper widths n = 25/16/50/1, an odd n = 23 (vector tail) and a
  // bias-less run.
  struct Shape { i64 m, k, n; bool bias; };
  const std::vector<Shape> shapes = {
      {9, 13, 25, true}, {7, 25, 16, true},  {5, 16, 50, true},
      {8, 50, 1, true},  {6, 10, 23, true},  {9, 13, 25, false}};
  for (const Shape& s : shapes) {
    SCOPED_TRACE("m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
                 " n=" + std::to_string(s.n));
    const std::vector<f32> x = randn_f32(s.m * s.k, 11);
    const std::vector<f32> w = randn_f32(s.k * s.n, 12);
    const std::vector<f32> b = randn_f32(s.n, 13);
    const f32* bias = s.bias ? b.data() : nullptr;
    std::vector<f32> ref(static_cast<std::size_t>(s.m * s.n));
    scalar(x.data(), w.data(), bias, ref.data(), 0, s.m, s.k, s.n);
    // Panel splits off the 8-lane and row boundaries must compose.
    std::vector<i64> cuts = {0};
    for (const i64 c : {i64{1}, i64{3}, i64{7}}) {
      if (c < s.m) cuts.push_back(c);
    }
    cuts.push_back(s.m);
    for_each_checked_variant(dp::gemm_variants(), [&](dp::GemmPanelFn fn) {
      std::vector<f32> out(static_cast<std::size_t>(s.m * s.n), -7.0f);
      fn(x.data(), w.data(), bias, out.data(), 0, s.m, s.k, s.n);
      EXPECT_TRUE(bytes_equal(ref, out));
      std::vector<f32> split(static_cast<std::size_t>(s.m * s.n), -7.0f);
      for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
        fn(x.data(), w.data(), bias, split.data(), cuts[c], cuts[c + 1], s.k,
           s.n);
      }
      EXPECT_TRUE(bytes_equal(ref, split));
    });
  }
}

TEST(DispatchExactness, GainVariantsAreBitExact) {
  const dp::GainPanelFn scalar = dp::gain_variants().front().fn;
  // n = 67 is odd (a fused n % 4 tail, a ragged 4-row group) and fits one
  // panel; 2*kGainPanelRows + 13 spans three panels.
  for (const i64 n : {i64{67}, 2 * dp::kGainPanelRows + 13}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<f64> p = randn_f64(kernels::packed_size(n), 51);
    const std::vector<f64> g = randn_f64(n, 52);
    std::vector<f64> ref(static_cast<std::size_t>(n));
    scalar(p.data(), g.data(), ref.data(), 0, n, n);
    // Panel splits at rows that are not aligned to the panel height (or
    // to the 4-row groups) must compose to the same vector.
    std::vector<i64> cuts = {0};
    for (const i64 c : {i64{19}, i64{83}, dp::kGainPanelRows + 50}) {
      if (c < n) cuts.push_back(c);
    }
    cuts.push_back(n);
    for_each_checked_variant(dp::gain_variants(), [&](dp::GainPanelFn fn) {
      std::vector<f64> out(static_cast<std::size_t>(n), -7.0);
      fn(p.data(), g.data(), out.data(), 0, n, n);
      EXPECT_TRUE(bytes_equal(ref, out));
      std::vector<f64> split(static_cast<std::size_t>(n), -7.0);
      for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
        fn(p.data(), g.data(), split.data(), cuts[c], cuts[c + 1], n);
      }
      EXPECT_TRUE(bytes_equal(ref, split));
    });
  }
}

TEST(DispatchExactness, MatNtVariantsAreBitExact) {
  const dp::MatNtPanelFn scalar = dp::matnt_variants().front().fn;
  // The shapes the family actually serves: the bmm_nt descriptor block
  // (n=6, q=4: 4-lane main + 2-wide tail), the matmul_nt backward panel
  // (n=q=50: 8-lane + 4-lane + 2 tail), a sub-4 n (delegates to scalar),
  // an odd everything, one past the transpose cap (delegate path), and a
  // b that aliases the first rows of a.
  struct Shape { i64 m, n, q; bool alias; };
  const std::vector<Shape> shapes = {{12, 6, 4, false},  {9, 50, 50, false},
                                     {7, 3, 11, false},  {5, 13, 7, false},
                                     {3, 70, 64, false}, {25, 16, 4, true}};
  for (const Shape& s : shapes) {
    SCOPED_TRACE("m=" + std::to_string(s.m) + " n=" + std::to_string(s.n) +
                 " q=" + std::to_string(s.q) + (s.alias ? " aliased" : ""));
    const std::vector<f32> a = randn_f32(s.m * s.q, 71);
    const std::vector<f32> b = s.alias ? a : randn_f32(s.n * s.q, 72);
    std::vector<f32> ref(static_cast<std::size_t>(s.m * s.n));
    scalar(a.data(), b.data(), ref.data(), 0, s.m, s.n, s.q);
    for_each_checked_variant(dp::matnt_variants(), [&](dp::MatNtPanelFn fn) {
      std::vector<f32> out(static_cast<std::size_t>(s.m * s.n), -7.0f);
      fn(a.data(), b.data(), out.data(), 0, s.m, s.n, s.q);
      EXPECT_TRUE(bytes_equal(ref, out));
      // Panel split at an arbitrary row must compose to the same matrix.
      std::vector<f32> split(static_cast<std::size_t>(s.m * s.n), -7.0f);
      fn(a.data(), b.data(), split.data(), 0, 2, s.n, s.q);
      fn(a.data(), b.data(), split.data(), 2, s.m, s.n, s.q);
      EXPECT_TRUE(bytes_equal(ref, split));
    });
  }
}

// Frozen copy of the matmul_tn body every xᵀg reduction ran before the
// gemm_tn_f32 family, verbatim over a zeroed output, so it compiles here
// with kernels.cpp's contraction (one FMA per term).
Tensor frozen_matmul_tn(const Tensor& a, const Tensor& b) {
  const i64 k = a.rows(), m = a.cols(), n = b.cols();
  Tensor out = Tensor::zeros(m, n);
  const f32* __restrict__ pa = a.data();
  const f32* __restrict__ pb = b.data();
  f32* __restrict__ po = out.data();
  for (i64 l = 0; l < k; ++l) {
    const f32* __restrict__ arow = pa + l * m;
    const f32* __restrict__ brow = pb + l * n;
    for (i64 i = 0; i < m; ++i) {
      const f32 av = arow[i];
      f32* __restrict__ orow = po + i * n;
      for (i64 j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

bool same_tensor(const Tensor& p, const Tensor& q) {
  return p.same_shape(q) &&
         std::memcmp(p.data(), q.data(),
                     static_cast<std::size_t>(p.numel()) * sizeof(f32)) == 0;
}

TEST(DispatchExactness, GemmTnVariantsAreBitExact) {
  const dp::GemmTnPanelFn scalar = dp::gemm_tn_variants().front().fn;
  // Output rows m cover 1, a ragged 4-row tile (5, 25, 50) and whole
  // tiles (12); columns n cover 1, sub-vector (4), one vector (8), the
  // masked 12/13/17 tails and multi-tile 25/50. k = 10368 is the
  // bench-width embedding gw reduction (108 atoms x 96 neighbours).
  for (const i64 k : {i64{1}, i64{37}, i64{10368}}) {
    for (const i64 m : {1, 5, 12, 25, 50}) {
      for (const i64 n : {1, 4, 8, 12, 13, 17, 25, 50}) {
        SCOPED_TRACE("k=" + std::to_string(k) + " m=" + std::to_string(m) +
                     " n=" + std::to_string(n));
        const std::vector<f32> a = randn_f32(k * m, 81);
        const std::vector<f32> b = randn_f32(k * n, 82);
        std::vector<f32> ref(static_cast<std::size_t>(m * n), -7.0f);
        scalar(a.data(), b.data(), ref.data(), 0, m, k, m, n);
        // Panel cuts off the 4-row tile boundaries must compose.
        std::vector<i64> cuts = {0};
        for (const i64 c : {i64{3}, i64{6}, i64{23}}) {
          if (c < m) cuts.push_back(c);
        }
        cuts.push_back(m);
        for_each_checked_variant(dp::gemm_tn_variants(),
                                 [&](dp::GemmTnPanelFn fn) {
          std::vector<f32> out(static_cast<std::size_t>(m * n), -7.0f);
          fn(a.data(), b.data(), out.data(), 0, m, k, m, n);
          EXPECT_TRUE(bytes_equal(ref, out));
          std::vector<f32> split(static_cast<std::size_t>(m * n), -7.0f);
          for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
            fn(a.data(), b.data(), split.data(), cuts[c], cuts[c + 1], k, m,
               n);
          }
          EXPECT_TRUE(bytes_equal(ref, split));
        });
      }
    }
  }
}

TEST(DispatchKernels, GemmTnPublicKernelsMatchTheFrozenLoop) {
  // matmul_tn runs the dispatched body; under every backend and at widths
  // 1, 2 and 4 it must reproduce the loop it replaced byte for byte.
  BackendGuard backend_guard;
  WidthGuard width_guard;
  struct Shape { i64 k, m, n; };
  const std::vector<Shape> shapes = {
      {10368, 12, 12}, {10368, 1, 12}, {2592, 25, 25}, {108, 50, 50},
      {108, 50, 1},    {37, 5, 13},    {64, 17, 8}};
  for (const Shape& s : shapes) {
    Rng rng(static_cast<u64>(s.k * 131 + s.m * 7 + s.n));
    const Tensor a = Tensor::randn(s.k, s.m, rng);
    const Tensor g = Tensor::randn(s.k, s.n, rng);
    const Tensor ref = frozen_matmul_tn(a, g);
    for (const dp::Backend mode : kModes) {
      dp::set_backend(mode);
      for (const i64 width : {1, 2, 4}) {
        SCOPED_TRACE("k=" + std::to_string(s.k) + " m=" + std::to_string(s.m) +
                     " n=" + std::to_string(s.n) + " backend=" + dp::backend_name(mode) +
                     " width=" + std::to_string(width));
        set_num_threads(width);
        EXPECT_TRUE(same_tensor(kernels::matmul_tn(a, g), ref));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Through the public kernels: width determinism and cross-path identity
// ---------------------------------------------------------------------------

/// One EKF update and the next update's gain, stepped through the public
/// kernels; returns every output so callers can compare across
/// widths/backends/paths. The fused path leaves the update's P step
/// pending and writes it in the sweep that forms the next gain.
struct EkfRun {
  std::vector<f64> p;
  std::vector<f64> y;  ///< the second gain's P g
  std::vector<f64> w;
  f64 gain = 0.0;
  f64 gain2 = 0.0;
  f64 health = 0.0;

  bool operator==(const EkfRun& o) const {
    return std::memcmp(p.data(), o.p.data(), p.size() * sizeof(f64)) == 0 &&
           std::memcmp(y.data(), o.y.data(), y.size() * sizeof(f64)) == 0 &&
           std::memcmp(w.data(), o.w.data(), w.size() * sizeof(f64)) == 0 &&
           std::memcmp(&gain, &o.gain, sizeof(f64)) == 0 &&
           std::memcmp(&gain2, &o.gain2, sizeof(f64)) == 0 &&
           std::memcmp(&health, &o.health, sizeof(f64)) == 0;
  }
};

EkfRun run_ekf(bool fused, i64 n) {
  const std::vector<f64> p0 = randn_f64(kernels::packed_size(n), 71);
  const std::vector<f64> g = randn_f64(n, 72);
  const std::vector<f64> g2 = randn_f64(n, 74);
  EkfRun r;
  r.p = p0;
  r.y.assign(static_cast<std::size_t>(n), 0.0);
  r.w = randn_f64(n, 73);
  std::vector<f64> q(static_cast<std::size_t>(n));
  const f64 lambda = 0.9987, step = 0.01, noise = 1e-8;
  if (fused) {
    r.gain = kernels::ekf_apply_gain(r.p, {}, nullptr, g, q, n);
    const kernels::EkfPendingStep pending{q, 1.0 / (lambda + r.gain), lambda,
                                          noise};
    r.health = kernels::ekf_commit_step(r.p, pending, step, r.w, n);
    r.gain2 = kernels::ekf_apply_gain(r.p, r.p, &pending, g2, r.y, n);
  } else {
    kernels::symv(r.p, g, q, n);
    r.gain = kernels::dot(g, q);
    kernels::p_update_fused(r.p, q, 1.0 / (lambda + r.gain), lambda, n);
    for (i64 i = 0; i < n; ++i) r.p[kernels::packed_row(i, n)] += noise;
    kernels::axpy(step, q, r.w);
    r.health = 0.0;
    for (i64 i = 0; i < n; ++i) {
      r.health = std::max(r.health, r.p[kernels::packed_row(i, n)]);
    }
    kernels::symv(r.p, g2, r.y, n);
    r.gain2 = kernels::dot(g2, r.y);
  }
  return r;
}

TEST(DispatchKernels, EveryBackendIsWidthDeterministicAndFusedInvariant) {
  BackendGuard backend_guard;
  WidthGuard width_guard;
  const i64 n = 193;
  std::optional<EkfRun> reference;
  for (const dp::Backend mode : kModes) {
    SCOPED_TRACE(std::string("backend=") + dp::backend_name(mode));
    dp::set_backend(mode);
    set_num_threads(1);
    const EkfRun fused1 = run_ekf(true, n);
    const EkfRun legacy1 = run_ekf(false, n);
    set_num_threads(2);
    const EkfRun fused2 = run_ekf(true, n);
    set_num_threads(4);
    const EkfRun fused4 = run_ekf(true, n);
    const EkfRun legacy4 = run_ekf(false, n);
    // Width determinism per backend (§9 holds per variant; n = 193 splits
    // into a full and a ragged gain panel)...
    EXPECT_TRUE(fused1 == fused2);
    EXPECT_TRUE(fused1 == fused4);
    EXPECT_TRUE(legacy1 == legacy4);
    // ...fused vs legacy agree on every output under every backend...
    EXPECT_TRUE(fused1 == legacy1);
    // ...and every backend reproduces the scalar reference.
    if (!reference) reference = fused1;
    EXPECT_TRUE(fused1 == *reference);
  }
}

/// A symmetric n x n test covariance near I, row-major.
std::vector<f64> test_full_p(i64 n) {
  std::vector<f64> full(static_cast<std::size_t>(n * n));
  Rng rng(static_cast<u64>(n));
  for (i64 i = 0; i < n; ++i) {
    for (i64 j = i; j < n; ++j) {
      const f64 v = rng.gaussian() * 0.1 + (i == j ? 1.0 : 0.0);
      full[static_cast<std::size_t>(i * n + j)] = v;
      full[static_cast<std::size_t>(j * n + i)] = v;
    }
  }
  return full;
}

std::vector<f64> pack(const std::vector<f64>& full, i64 n) {
  std::vector<f64> packed(static_cast<std::size_t>(kernels::packed_size(n)));
  for (i64 i = 0; i < n; ++i) {
    for (i64 j = i; j < n; ++j) {
      packed[static_cast<std::size_t>(kernels::packed_row(i, n) + j - i)] =
          full[static_cast<std::size_t>(i * n + j)];
    }
  }
  return packed;
}

std::vector<f64> expand(const std::vector<f64>& packed, i64 n) {
  std::vector<f64> full(static_cast<std::size_t>(n * n));
  for (i64 i = 0; i < n; ++i) {
    for (i64 j = 0; j < n; ++j) {
      const i64 lo = std::min(i, j), hi = std::max(i, j);
      full[static_cast<std::size_t>(i * n + j)] =
          packed[static_cast<std::size_t>(kernels::packed_row(lo, n) + hi -
                                          lo)];
    }
  }
  return full;
}

/// The pending step on the full-P reference: the frozen rank-1 update,
/// the diagonal noise, then the scale.
void frozen_step(std::vector<f64>& full, const std::vector<f64>& k, f64 a,
                 f64 lambda, f64 noise, f64 scale, i64 n) {
  testref::frozen_rank1(full.data(), k.data(), a, 1.0 / lambda, 0, n, n);
  for (i64 i = 0; i < n; ++i) {
    full[static_cast<std::size_t>(i * n + i)] += noise;
  }
  for (f64& v : full) v *= scale;
}

TEST(DispatchExactness, PackedEkfMatchesTheFullPReference) {
  // Several fused updates on packed P — ekf_apply_gain writing the step
  // the previous update left pending while it forms y, then
  // ekf_commit_step — in place and out of place (the ping-pong snapshot's
  // first write), must give the y, w and expanded P of the full-P bodies
  // bit for bit, under every backend and at pool widths 1, 2 and 4. Packed
  // P lags the reference by one step until the final flush. The n's cover
  // every n % 4 of the fused gain tail and multi-panel splits.
  BackendGuard backend_guard;
  WidthGuard width_guard;
  const f64 lambda = 0.98, step = 0.37, noise = 1e-2;
  for (const i64 n : {i64{67}, i64{130}, 2 * dp::kGainPanelRows + 13,
                      i64{260}}) {
    const std::vector<f64> full0 = test_full_p(n);
    const std::vector<f64> packed0 = pack(full0, n);
    const std::vector<f64> w0 = randn_f64(n, 91);
    for (const dp::Backend mode : kModes) {
      dp::set_backend(mode);
      for (const i64 width : {1, 2, 4}) {
        set_num_threads(width);
        for (const bool out_of_place : {false, true}) {
          SCOPED_TRACE("n=" + std::to_string(n) + " backend=" + dp::backend_name(mode) +
                       " width=" + std::to_string(width) +
                       (out_of_place ? " out of place" : " in place"));
          std::vector<f64> full = full0, ref_w = w0;
          std::vector<f64> ref_y(static_cast<std::size_t>(n));
          std::vector<f64> packed = packed0, spare(packed0.size(), -7.0);
          std::vector<f64> w = w0, y(static_cast<std::size_t>(n));
          std::vector<f64> k(static_cast<std::size_t>(n));
          std::optional<kernels::EkfPendingStep> pending;
          auto write_pending = [&](std::span<const f64> g, std::span<f64> out) {
            const f64 gain = kernels::ekf_apply_gain(
                packed, out_of_place ? spare : packed,
                pending ? &*pending : nullptr, g, out, n);
            if (pending && out_of_place) std::swap(packed, spare);
            return gain;
          };
          for (int update = 0; update < 4; ++update) {
            const std::vector<f64> g = randn_f64(n, 100 + update);
            testref::frozen_symv_rows(full.data(), g.data(), ref_y.data(), 0,
                                      n, n);
            const f64 ref_gain = kernels::dot(g, ref_y);
            const f64 gain = write_pending(g, y);
            ASSERT_EQ(std::memcmp(&gain, &ref_gain, sizeof(f64)), 0);
            ASSERT_TRUE(bytes_equal(y, ref_y)) << "update " << update;
            ASSERT_TRUE(bytes_equal(expand(packed, n), full))
                << "update " << update;

            const f64 a = 1.0 / (lambda + ref_gain);
            frozen_step(full, ref_y, a, lambda, noise, 1.0, n);
            kernels::axpy(step, ref_y, ref_w);
            k = y;
            pending = kernels::EkfPendingStep{k, a, lambda, noise};
            kernels::ekf_commit_step(packed, *pending, step, w, n);
            ASSERT_TRUE(bytes_equal(w, ref_w)) << "update " << update;
          }
          write_pending({}, {});
          ASSERT_TRUE(bytes_equal(expand(packed, n), full));
        }
      }
    }
  }
}

TEST(DispatchExactness, ApplyGainMatchesTheFullPReference) {
  // One ekf_apply_gain against the frozen full-P rank-1, the diagonal
  // noise and the p_max scale, then the frozen symv rows over the result:
  // P and y byte for byte at every n % 4 (each a different split into
  // four-row groups and a fused tail), in place and out of place (leaving
  // the source untouched), with scale 1 and a rescale; and the two reduced
  // forms, the gain alone (P not written) and the P write alone (the
  // flush). Under every backend, at widths 1 and 4, with the diagonal
  // probe of ekf_commit_step checked on the way.
  BackendGuard backend_guard;
  WidthGuard width_guard;
  const f64 lambda = 0.98, noise = 1e-2, a = 0.3;
  struct Form {
    const char* name;
    bool pending;
    bool out_of_place;
    f64 scale;
    bool gain;
  };
  const Form forms[] = {{"gain only", false, false, 1.0, true},
                        {"in place", true, false, 1.0, true},
                        {"out of place", true, true, 1.0, true},
                        {"in place, rescaled", true, false, 0.37, true},
                        {"out of place, rescaled", true, true, 0.37, true},
                        {"flush, rescaled", true, false, 0.37, false},
                        {"flush out of place", true, true, 1.0, false}};
  for (const i64 n : {1, 2, 3, 5, 8, 13, 130, 257, 1001}) {
    const std::vector<f64> full0 = test_full_p(n);
    const std::vector<f64> packed0 = pack(full0, n);
    const std::vector<f64> k = randn_f64(n, 7);
    const std::vector<f64> g = randn_f64(n, 8);
    for (const Form& form : forms) {
      std::vector<f64> ref = full0;
      f64 ref_diag = 0.0;
      if (form.pending) {
        frozen_step(ref, k, a, lambda, noise, 1.0, n);
        for (i64 i = 0; i < n; ++i) {
          ref_diag =
              std::max(ref_diag, ref[static_cast<std::size_t>(i * n + i)]);
        }
        for (f64& v : ref) v *= form.scale;
      }
      std::vector<f64> ref_y(static_cast<std::size_t>(n));
      testref::frozen_symv_rows(ref.data(), g.data(), ref_y.data(), 0, n, n);
      const f64 ref_gain = kernels::dot(g, ref_y);
      const kernels::EkfPendingStep step{k, a, lambda, noise, form.scale};
      for (const dp::Backend mode : kModes) {
        dp::set_backend(mode);
        for (const i64 width : {1, 4}) {
          set_num_threads(width);
          SCOPED_TRACE("n=" + std::to_string(n) + " " + form.name +
                       " backend=" + dp::backend_name(mode) +
                       " width=" + std::to_string(width));
          std::vector<f64> src = packed0;
          std::vector<f64> dst(packed0.size(), -7.0);
          std::vector<f64>& out = form.out_of_place ? dst : src;
          std::vector<f64> y(static_cast<std::size_t>(n), -7.0);
          if (form.pending) {
            std::vector<f64> w(static_cast<std::size_t>(n), 0.0);
            const f64 diag = kernels::ekf_commit_step(src, step, 0.0, w, n);
            ASSERT_EQ(std::memcmp(&diag, &ref_diag, sizeof(f64)), 0);
          }
          const f64 gain = kernels::ekf_apply_gain(
              src, out, form.pending ? &step : nullptr,
              form.gain ? std::span<const f64>(g) : std::span<const f64>(),
              form.gain ? std::span<f64>(y) : std::span<f64>(), n);
          ASSERT_TRUE(bytes_equal(expand(out, n), ref));
          if (form.out_of_place) {
            ASSERT_TRUE(bytes_equal(src, packed0));
          }
          if (form.gain) {
            ASSERT_TRUE(bytes_equal(y, ref_y));
            ASSERT_EQ(std::memcmp(&gain, &ref_gain, sizeof(f64)), 0);
          }
        }
      }
    }
  }
}

TEST(DispatchKernels, ForwardPathMatchesScalarUnderAuto) {
  // Every variant is bit-exact, so the public f32 kernels that dispatch
  // (and the bmm_nt descriptor contraction on top of matnt_f32) must agree
  // with forced-scalar byte for byte.
  BackendGuard guard;
  Rng rng(81);
  const Tensor x = Tensor::randn(33, 50, rng);
  const Tensor w = Tensor::randn(50, 25, rng);
  const Tensor b = Tensor::randn(1, 25, rng);
  const Tensor wt = Tensor::randn(25, 50, rng);
  const i64 m = 25, m_axis = 16;
  const Tensor a = Tensor::randn(7 * m, 4, rng);
  const Tensor a_axis = Tensor::randn(7 * m_axis, 4, rng);
  auto run = [&] {
    return std::vector<Tensor>{
        kernels::matmul(x, w), kernels::linear_fused(x, w, b),
        kernels::matmul_nt(x, wt),
        deepmd::bmm_nt(ag::Variable(a), ag::Variable(a_axis), m, m_axis)
            .value()};
  };
  auto same = [](const Tensor& p, const Tensor& q) {
    return p.same_shape(q) &&
           std::memcmp(p.data(), q.data(),
                       static_cast<std::size_t>(p.numel()) * sizeof(f32)) == 0;
  };
  std::vector<Tensor> reference;
  for (const dp::Backend mode : kModes) {
    SCOPED_TRACE(std::string("backend=") + dp::backend_name(mode));
    dp::set_backend(mode);
    const std::vector<Tensor> out = run();
    if (reference.empty()) reference = out;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_TRUE(same(reference[i], out[i])) << "kernel #" << i;
    }
  }
}

}  // namespace
}  // namespace fekf

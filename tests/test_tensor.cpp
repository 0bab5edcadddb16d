// Tensor and kernel tests: shape semantics, every f32 primitive against a
// reference computation, the f64 EKF kernels, kernel-launch accounting,
// and parameterized shape sweeps for the matmul family.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "core/rng.hpp"
#include "tensor/kernel_counter.hpp"
#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"

namespace fekf {
namespace {

namespace k = kernels;

Tensor rand_t(i64 r, i64 c, u64 seed) {
  Rng rng(seed);
  return Tensor::randn(r, c, rng);
}

TEST(Tensor, ConstructionAndAccess) {
  Tensor t = Tensor::zeros(2, 3);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.numel(), 6);
  t.at(1, 2) = 5.0f;
  EXPECT_EQ(t.at(1, 2), 5.0f);
  EXPECT_EQ(t.bytes(), 24);
}

TEST(Tensor, FromInitializerList) {
  Tensor t = Tensor::from(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_THROW(Tensor::from(2, 2, {1, 2, 3}), Error);
}

TEST(Tensor, CloneIsDeep) {
  Tensor a = Tensor::full(2, 2, 1.0f);
  Tensor b = a.clone();
  b.at(0, 0) = 9.0f;
  EXPECT_EQ(a.at(0, 0), 1.0f);
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor a = Tensor::from(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = a.reshaped(3, 2);
  b.at(0, 1) = 99.0f;
  EXPECT_EQ(a.at(0, 1), 99.0f);
  EXPECT_THROW(a.reshaped(4, 2), Error);
}

TEST(Tensor, ScalarItem) {
  EXPECT_EQ(Tensor::scalar(3.5f).item(), 3.5f);
  EXPECT_THROW(Tensor::zeros(2, 2).item(), Error);
}

TEST(Kernels, ElementwiseOps) {
  Tensor a = Tensor::from(1, 4, {1, 2, 3, 4});
  Tensor b = Tensor::from(1, 4, {10, 20, 30, 40});
  EXPECT_EQ(k::add(a, b).at(0, 2), 33.0f);
  EXPECT_EQ(k::sub(b, a).at(0, 3), 36.0f);
  EXPECT_EQ(k::mul(a, b).at(0, 1), 40.0f);
  EXPECT_EQ(k::neg(a).at(0, 0), -1.0f);
  EXPECT_EQ(k::scale(a, 0.5f).at(0, 3), 2.0f);
  EXPECT_EQ(k::add_scalar(a, 1.0f).at(0, 0), 2.0f);
  EXPECT_NEAR(k::tanh(a).at(0, 0), std::tanh(1.0), 1e-6);
}

TEST(Kernels, ShapeMismatchThrows) {
  EXPECT_THROW(k::add(Tensor::zeros(2, 2), Tensor::zeros(2, 3)), Error);
  EXPECT_THROW(k::matmul(Tensor::zeros(2, 3), Tensor::zeros(2, 3)), Error);
}

TEST(Kernels, TanhBackwardMatchesFormula) {
  Tensor y = rand_t(3, 3, 1);
  Tensor g = rand_t(3, 3, 2);
  Tensor out = k::tanh_backward(g, y);
  for (i64 i = 0; i < out.numel(); ++i) {
    EXPECT_NEAR(out.data()[i],
                g.data()[i] * (1.0f - y.data()[i] * y.data()[i]), 1e-6);
  }
}

// Parameterized matmul-family sweep against a double-precision reference.
class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<i64, i64, i64>> {};

TEST_P(MatmulShapes, AllVariantsMatchReference) {
  const auto [m, kk, n] = GetParam();
  Tensor a = rand_t(m, kk, 3);
  Tensor b = rand_t(kk, n, 4);
  // Reference C = A * B.
  std::vector<f64> ref(static_cast<std::size_t>(m * n), 0.0);
  for (i64 i = 0; i < m; ++i) {
    for (i64 l = 0; l < kk; ++l) {
      for (i64 j = 0; j < n; ++j) {
        ref[static_cast<std::size_t>(i * n + j)] +=
            static_cast<f64>(a.at(i, l)) * b.at(l, j);
      }
    }
  }
  Tensor c_nn = k::matmul(a, b);
  Tensor c_tn = k::matmul_tn(k::transpose(a), b);
  Tensor c_nt = k::matmul_nt(a, k::transpose(b));
  for (i64 i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c_nn.data()[i], ref[static_cast<std::size_t>(i)], 1e-3);
    EXPECT_NEAR(c_tn.data()[i], ref[static_cast<std::size_t>(i)], 1e-3);
    EXPECT_NEAR(c_nt.data()[i], ref[static_cast<std::size_t>(i)], 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 1, 7), std::make_tuple(1, 8, 1),
                      std::make_tuple(16, 16, 16),
                      std::make_tuple(33, 7, 5)));

TEST(Kernels, TransposeRoundTrip) {
  Tensor a = rand_t(4, 7, 5);
  Tensor tt = k::transpose(k::transpose(a));
  for (i64 i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(tt.data()[i], a.data()[i]);
  }
}

TEST(Kernels, BroadcastAndReduceAreAdjoint) {
  // <broadcast(x), y> == <x, reduce(y)> for rows, cols, and full.
  Tensor row = rand_t(1, 5, 6);
  Tensor mat = rand_t(4, 5, 7);
  EXPECT_NEAR(k::dot_all(k::broadcast_rows(row, 4), mat),
              k::dot_all(row, k::sum_rows(mat)), 1e-4);
  Tensor col = rand_t(4, 1, 8);
  EXPECT_NEAR(k::dot_all(k::broadcast_cols(col, 5), mat),
              k::dot_all(col, k::sum_cols(mat)), 1e-4);
  Tensor s = Tensor::scalar(1.7f);
  EXPECT_NEAR(k::dot_all(k::broadcast_full(s, 4, 5), mat),
              static_cast<f64>(s.item()) * k::sum_all(mat).item(), 1e-3);
}

TEST(Kernels, SliceAndPadAreInverse) {
  Tensor a = rand_t(3, 8, 9);
  Tensor sliced = k::slice_cols(a, 2, 6);
  EXPECT_EQ(sliced.cols(), 4);
  Tensor padded = k::pad_cols(sliced, 8, 2);
  for (i64 i = 0; i < 3; ++i) {
    for (i64 j = 0; j < 8; ++j) {
      EXPECT_EQ(padded.at(i, j), (j >= 2 && j < 6) ? a.at(i, j) : 0.0f);
    }
  }
  Tensor rows = k::slice_rows(a, 1, 3);
  EXPECT_EQ(rows.rows(), 2);
  Tensor rpad = k::pad_rows(rows, 3, 1);
  EXPECT_EQ(rpad.at(0, 0), 0.0f);
  EXPECT_EQ(rpad.at(1, 0), a.at(1, 0));
}

TEST(Kernels, ConcatRows) {
  Tensor a = rand_t(2, 3, 10);
  Tensor b = rand_t(1, 3, 11);
  Tensor c = k::concat_rows(a, b);
  EXPECT_EQ(c.rows(), 3);
  EXPECT_EQ(c.at(2, 1), b.at(0, 1));
}

TEST(Kernels, LinearFusedMatchesComposed) {
  Tensor x = rand_t(5, 3, 12);
  Tensor w = rand_t(3, 4, 13);
  Tensor b = rand_t(1, 4, 14);
  Tensor fused = k::linear_fused(x, w, b);
  Tensor composed = k::add_rowvec(k::matmul(x, w), b);
  for (i64 i = 0; i < fused.numel(); ++i) {
    EXPECT_NEAR(fused.data()[i], composed.data()[i], 1e-5);
  }
}

TEST(Kernels, SumAllUsesDoubleAccumulator) {
  // 1e7 + many small values: float accumulation would lose them.
  Tensor t = Tensor::full(1, 1000, 0.125f);
  t.at(0, 0) = 1e7f;
  EXPECT_NEAR(k::sum_all(t).item(), 1e7 + 999 * 0.125, 64.0);
}

TEST(Counter, CountsOnlyWhenEnabled) {
  KernelCounter::enable(false);
  KernelCounter::reset();
  (void)k::add(Tensor::zeros(2, 2), Tensor::zeros(2, 2));
  EXPECT_EQ(KernelCounter::total(), 0);
  {
    KernelCountScope scope;
    (void)k::add(Tensor::zeros(2, 2), Tensor::zeros(2, 2));
    (void)k::mul(Tensor::zeros(2, 2), Tensor::zeros(2, 2));
    EXPECT_EQ(scope.count(), 2);
  }
  EXPECT_FALSE(KernelCounter::enabled());
}

TEST(Counter, BreakdownTracksNames) {
  KernelCounter::enable(true);
  KernelCounter::reset();
  (void)k::add(Tensor::zeros(2, 2), Tensor::zeros(2, 2));
  (void)k::add(Tensor::zeros(2, 2), Tensor::zeros(2, 2));
  (void)k::matmul(Tensor::zeros(2, 2), Tensor::zeros(2, 2));
  auto names = KernelCounter::breakdown();
  EXPECT_EQ(names["add"], 2);
  EXPECT_EQ(names["matmul"], 1);
  KernelCounter::enable(false);
}

// f64 EKF kernels. P is stored as its packed upper triangle.

/// Entry (i, j) of a packed symmetric block.
f64 packed_at(const std::vector<f64>& p, i64 i, i64 j, i64 n) {
  const i64 lo = std::min(i, j), hi = std::max(i, j);
  return p[static_cast<std::size_t>(k::packed_row(lo, n) + hi - lo)];
}

TEST(EkfKernels, PackedLayout) {
  const i64 n = 5;
  EXPECT_EQ(k::packed_size(n), 15);
  // Row i starts after rows 0..i-1, which hold n, n-1, ... entries.
  i64 offset = 0;
  for (i64 i = 0; i < n; ++i) {
    EXPECT_EQ(k::packed_row(i, n), offset);
    offset += n - i;
  }
  EXPECT_EQ(offset, k::packed_size(n));
}

TEST(EkfKernels, SymvMatchesReference) {
  const i64 n = 9;
  Rng rng(15);
  std::vector<f64> p(static_cast<std::size_t>(k::packed_size(n)));
  for (auto& v : p) v = rng.gaussian();
  std::vector<f64> g(static_cast<std::size_t>(n));
  for (auto& v : g) v = rng.gaussian();
  std::vector<f64> y(static_cast<std::size_t>(n));
  k::symv(p, g, y, n);
  for (i64 i = 0; i < n; ++i) {
    f64 ref = 0.0;
    for (i64 j = 0; j < n; ++j) {
      ref += packed_at(p, i, j, n) * g[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], ref, 1e-12);
  }
}

TEST(EkfKernels, SymmetrizeFoldsPairsIntoPackedP) {
  const i64 n = 6;
  Rng rng(16);
  std::vector<f64> full(static_cast<std::size_t>(n * n));
  for (auto& v : full) v = rng.gaussian();
  std::vector<f64> p(static_cast<std::size_t>(k::packed_size(n)));
  k::symmetrize(full, p, n);
  for (i64 i = 0; i < n; ++i) {
    for (i64 j = i; j < n; ++j) {
      const f64 expected =
          i == j ? full[static_cast<std::size_t>(i * n + i)]
                 : 0.5 * (full[static_cast<std::size_t>(i * n + j)] +
                          full[static_cast<std::size_t>(j * n + i)]);
      EXPECT_EQ(packed_at(p, i, j, n), expected);
    }
  }
}

TEST(EkfKernels, PUpdateShrinksAlongK) {
  const i64 n = 12;
  Rng rng(17);
  std::vector<f64> p(static_cast<std::size_t>(k::packed_size(n)), 0.0);
  for (i64 i = 0; i < n; ++i) {
    p[static_cast<std::size_t>(k::packed_row(i, n))] = 1.0;
  }
  std::vector<f64> g(static_cast<std::size_t>(n));
  for (auto& v : g) v = rng.gaussian();
  std::vector<f64> q(static_cast<std::size_t>(n));
  k::symv(p, g, q, n);
  const f64 gpg = k::dot(g, q);
  const f64 a = 1.0 / (0.98 + gpg);
  k::p_update_fused(p, q, a, 0.98, n);
  // Entry (i,j) is (delta_ij - a q_i q_j) / lambda.
  for (i64 i = 0; i < n; ++i) {
    for (i64 j = i; j < n; ++j) {
      const f64 expected =
          ((i == j ? 1.0 : 0.0) - a * q[static_cast<std::size_t>(i)] *
                                      q[static_cast<std::size_t>(j)]) /
          0.98;
      EXPECT_NEAR(packed_at(p, i, j, n), expected, 1e-12);
    }
  }
  // Variance along g shrinks: g^T P' g < g^T P g.
  k::symv(p, g, q, n);
  EXPECT_LT(k::dot(g, q), gpg);
}

TEST(EkfKernels, AxpyAndDot) {
  std::vector<f64> x{1, 2, 3}, y{10, 20, 30};
  k::axpy(2.0, x, y);
  EXPECT_EQ(y[0], 12.0);
  EXPECT_EQ(y[2], 36.0);
  EXPECT_EQ(k::dot(x, x), 14.0);
}

}  // namespace
}  // namespace fekf

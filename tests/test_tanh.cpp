// Exactness suite for kernels::tanh (tensor/tanh.cpp): the 16-lane body
// transcribes glibc 2.36's tanhf, so it must match the C library's tanhf
// bit for bit — every positive f32 from 2^-55 to 22, where the expm1
// branches live, plus explicit rows at every branch boundary and the
// special values. On a host whose libm computes tanhf by another algorithm
// this suite reports where the two differ.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernels.hpp"

namespace fekf {
namespace {

/// libm's tanhf, kept out of reach of constant folding: GCC folds tanh of
/// a constant with a correctly rounded evaluation, which is not what the
/// library computes.
[[gnu::noipa]] f32 libm_tanh(f32 x) { return std::tanh(x); }

u32 bits_of(f32 x) {
  u32 b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

f32 from_bits(u32 b) {
  f32 x;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

/// Count the elements of kernels::tanh(x) whose bits differ from libm's,
/// reporting the first few when `report` is set.
i64 mismatches_against_libm(const Tensor& x, bool report = true) {
  const Tensor y = kernels::tanh(x);
  const i64 n = x.numel();
  std::vector<f32> ref(static_cast<std::size_t>(n));
  parallel_for_blocks(
      0, n,
      [&](i64 lo, i64 hi) {
        for (i64 i = lo; i < hi; ++i) ref[i] = libm_tanh(x.data()[i]);
      },
      kGrainWork);
  if (n == 0 || std::memcmp(y.data(), ref.data(), n * sizeof(f32)) == 0)
    return 0;
  i64 bad = 0;
  for (i64 i = 0; i < n; ++i) {
    if (bits_of(y.data()[i]) == bits_of(ref[i])) continue;
    if (++bad <= 5 && report)
      ADD_FAILURE() << "tanh(" << std::hexfloat << x.data()[i] << " = 0x"
                    << std::hex << bits_of(x.data()[i]) << ") = 0x"
                    << bits_of(y.data()[i]) << ", libm 0x" << bits_of(ref[i]);
  }
  return bad;
}

TEST(Tanh, MatchesLibmOnEveryPositiveFloatFrom2PowMinus55To22) {
  constexpr u32 kFirst = 0x24000000;  // 2^-55
  constexpr u32 kLast = 0x41b00000;   // 22
  // Not a multiple of the 16 lanes: every chunk ends in a padded tail.
  constexpr i64 kChunk = (i64{1} << 22) + 13;
  i64 bad = 0;
  for (u64 base = kFirst; base <= kLast; base += kChunk) {
    const i64 n = std::min<i64>(kChunk, static_cast<i64>(kLast - base) + 1);
    Tensor x(1, n);
    f32* px = x.data();
    parallel_for_blocks(
        0, n,
        [&](i64 lo, i64 hi) {
          for (i64 i = lo; i < hi; ++i)
            px[i] = from_bits(static_cast<u32>(base + i));
        },
        kGrainWork);
    bad += mismatches_against_libm(x, /*report=*/bad == 0);
  }
  EXPECT_EQ(bad, 0);
}

TEST(Tanh, MatchesLibmAtBranchBoundariesAndSpecialValues) {
  const std::vector<u32> positive = {
      0x00000000,                          // +0
      0x00000001, 0x007fffff, 0x00800000,  // denormals, smallest normal
      0x23ffffff, 0x24000000, 0x24000001,  // 2^-55: x * (1 + x) below
      0x327fffff, 0x32800000, 0x32800001,  // 2^-26: expm1(-2x) = -2x below
      0x3e317217, 0x3e317218, 0x3e317219,  // expm1 argument 0.5 ln2
      0x3eb17217, 0x3eb17218, 0x3eb17219,  // 0.5 ln2
      0x3f051591, 0x3f051592, 0x3f051593,  // expm1 argument 1.5 ln2
      0x3f7fffff, 0x3f800000, 0x3f800001,  // 1: expm1(2x) from here
      0x41afffff, 0x41b00000, 0x41b00001,  // 22: +-1 from here
      0x7f7fffff,                          // largest finite
      0x7f800000,                          // inf
      0x7fc00000, 0x7fa00000, 0x7fc12345,  // quiet, signaling, payload NaN
  };
  std::vector<f32> values;
  for (const u32 b : positive) {
    values.push_back(from_bits(b));
    values.push_back(from_bits(b | 0x80000000u));
  }
  const Tensor x =
      Tensor::from_vector(1, static_cast<i64>(values.size()), values);
  EXPECT_EQ(mismatches_against_libm(x), 0);
}

TEST(Tanh, NegativeHalfMatchesLibmAndIsOdd) {
  // Every 1021st negative finite f32: tanh(-x) must be -tanh(x) bit for
  // bit.
  constexpr u32 kStride = 1021;
  std::vector<f32> neg_values;
  for (u64 b = 0x80000001; b < 0xff800000; b += kStride)
    neg_values.push_back(from_bits(static_cast<u32>(b)));
  const i64 n = static_cast<i64>(neg_values.size());
  std::vector<f32> pos_values(neg_values.size());
  for (i64 i = 0; i < n; ++i) pos_values[i] = -neg_values[i];
  const Tensor neg = Tensor::from_vector(1, n, neg_values);
  const Tensor pos = Tensor::from_vector(1, n, pos_values);
  EXPECT_EQ(mismatches_against_libm(neg), 0);
  const Tensor yn = kernels::tanh(neg);
  const Tensor yp = kernels::tanh(pos);
  i64 asymmetric = 0;
  for (i64 i = 0; i < n; ++i) {
    const u32 flipped = bits_of(yp.data()[i]) ^ 0x80000000u;
    asymmetric += bits_of(yn.data()[i]) != flipped;
  }
  EXPECT_EQ(asymmetric, 0);
}

TEST(Tanh, EveryTailLengthMatchesLibm) {
  // Lengths 0-40 cover an empty input, tails alone, and whole vectors
  // followed by every tail length; N(0, 8) reaches every branch.
  Rng rng(7);
  for (i64 n = 0; n <= 40; ++n) {
    const Tensor x = Tensor::randn(1, n, rng, 8.0);
    EXPECT_EQ(mismatches_against_libm(x), 0) << "length " << n;
  }
}

}  // namespace
}  // namespace fekf

// kernels::tanh: glibc 2.36's tanhf, which is fdlibm's s_tanhf.c over
// s_expm1f.c, evaluated kLanes floats at a time with GCC vector extensions
// (DESIGN.md §13 "Not dispatched").
//
// The scalar source branches on |x| and on the expm1 reduction index k.
// Here every lane computes every branch and a lane-wise ?: picks the one
// the scalar code would have taken, so each lane performs the scalar
// code's arithmetic on its own value. Each expression keeps the source's
// rounding order, and this file is compiled with -ffp-contract=off
// (tensor/CMakeLists.txt): fusing any product into an add would move
// results by an ulp. The result is bit-identical to that tanhf for every
// f32, NaN payloads included, and no longer depends on the host's libm
// (tests/test_tanh.cpp compares every positive f32 in [2^-55, 22]).
//
// Lanes whose branch result is discarded still take defined inputs: tanh
// hands expm1 0 for non-finite or |x| >= 22 lanes, so expm1 only sees
// |x| < 44 and its float -> int conversion stays in range, and the
// variable shift and every exponent add run on clamped or unsigned
// operands.
//
// The algorithm and constants below are from fdlibm:
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
// (float versions by Ian Lance Taylor, Cygnus Support.)
#include <cstdint>
#include <cstring>

#include "parallel/thread_pool.hpp"
#include "tensor/kernel_counter.hpp"
#include "tensor/kernels.hpp"

namespace fekf::kernels {

namespace {

constexpr i64 kLanes = 16;
using VF = f32 __attribute__((vector_size(4 * kLanes)));
using VI = std::int32_t __attribute__((vector_size(4 * kLanes)));
using VU = std::uint32_t __attribute__((vector_size(4 * kLanes)));

// Vectors travel by reference: a by-value 64-byte vector parameter changes
// the calling convention on targets without AVX-512 (GCC's -Wpsabi).

/// y = expm1f(x) lane-wise (s_expm1f.c), for finite |x| < 44: the
/// overflow and non-finite filters are unreachable from tanh and omitted.
[[gnu::always_inline]] inline void expm1_lanes(const VF& x, VF& y) {
  constexpr f32 ln2_hi = 6.9313812256e-01f;  // 0x3f317180
  constexpr f32 ln2_lo = 9.0580006145e-06f;  // 0x3717f7d1
  constexpr f32 invln2 = 1.4426950216e+00f;  // 0x3fb8aa3b
  constexpr f32 Q1 = -3.3333335072e-02f;     // 0xbd088889
  constexpr f32 Q2 = 1.5873016091e-03f;      // 0x3ad00d01
  constexpr f32 Q3 = -7.9365076090e-05f;     // 0xb8a670cd
  constexpr f32 Q4 = 4.0082177293e-06f;      // 0x36867e54
  constexpr f32 Q5 = -2.0109921195e-07f;     // 0xb457edbb
  const VF zero{};
  const VI izero{};

  const VI hx = (VI)x & 0x7fffffff;
  const VI neg = (VI)x < 0;

  // Argument reduction for |x| > 0.5 ln2: x = hi - lo + c, k = round(x/ln2).
  // |x| < 1.5 ln2 takes k = +-1 directly.
  const VF hi1 = neg ? x + ln2_hi : x - ln2_hi;
  const VF lo1 = neg ? zero - ln2_lo : zero + ln2_lo;
  const VI k1 = neg ? izero - 1 : izero + 1;
  const VI kn = __builtin_convertvector(
      invln2 * x + (neg ? zero - 0.5f : zero + 0.5f), VI);
  const VF tn = __builtin_convertvector(kn, VF);
  const VF hin = x - tn * ln2_hi;  // t*ln2_hi is exact here
  const VF lon = tn * ln2_lo;
  const VI near = hx < 0x3f851592;
  const VF hi = near ? hi1 : hin;
  const VF lo = near ? lo1 : lon;
  const VF xr = hi - lo;
  const VF c = (hi - xr) - lo;
  const VI reduced = hx > 0x3eb17218;
  const VI k = reduced ? (near ? k1 : kn) : izero;
  const VF r = reduced ? xr : x;

  // x is now in the primary range.
  const VF hfx = 0.5f * r;
  const VF hxs = r * hfx;
  const VF r1 =
      1.0f + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
  const VF t = 3.0f - r1 * hfx;
  VF e = hxs * ((r1 - t) / (6.0f - r * t));
  const VF at_k0 = r - (r * e - hxs);  // c is 0
  e = (r * (e - c) - c);
  e -= hxs;
  const VF at_km1 = 0.5f * (r - e) - 0.5f;
  const VF at_k1 =
      r < -0.25f ? -2.0f * (e - (r + 0.5f)) : 1.0f + 2.0f * (r - e);

  // The remaining branches build 2^k * (1 + y) - 1 by adding k to y's
  // exponent field.
  const VU k_exp = (VU)k << 23;
  const VF y_far = 1.0f - (e - r);
  const VF at_far = (VF)((VU)y_far + k_exp) - 1.0f;  // k <= -2 or k > 56
  const VI k_mid = (k >= 2) & (k <= 22);
  const VU shift = (VU)(k_mid ? k : izero + 2);
  const VF t_mid = (VF)(0x3f800000u - (0x1000000u >> shift));  // 1 - 2^-k
  const VF y_mid = t_mid - (e - r);
  const VF at_mid = (VF)((VU)y_mid + k_exp);  // 2 <= k <= 22
  const VF t_high = (VF)((0x7fu - (VU)k) << 23);  // 2^-k
  VF y_high = r - (e + t_high);
  y_high += 1.0f;
  const VF at_high = (VF)((VU)y_high + k_exp);  // 23 <= k <= 56

  VF out = k < 23 ? at_mid : at_high;
  out = (k <= -2) | (k > 56) ? at_far : out;
  out = k == 1 ? at_k1 : out;
  out = k == -1 ? at_km1 : out;
  out = k == 0 ? at_k0 : out;
  y = hx < 0x33000000 ? x : out;  // |x| < 2^-25: expm1(x) = x
}

/// y[0, kLanes) = tanhf(x[0, kLanes)) (s_tanhf.c).
[[gnu::always_inline]] inline void tanh_lanes(const f32* px, f32* py) {
  constexpr f32 tiny = 1.0e-30f;
  VF x;
  std::memcpy(&x, px, sizeof x);
  const VI jx = (VI)x;
  const VI ix = jx & 0x7fffffff;
  const VI below22 = ix < 0x41b00000;  // |x| < 22, false for inf and NaN
  const VI ge1 = ix >= 0x3f800000;     // |x| >= 1

  const VF ax = below22 ? (VF)ix : VF{};
  VF t;
  expm1_lanes(ge1 ? 2.0f * ax : -2.0f * ax, t);
  VF z = ge1 ? 1.0f - 2.0f / (t + 2.0f) : -t / (t + 2.0f);
  z = below22 ? z : VF{} + (1.0f - tiny);  // |x| >= 22: +-1
  VF y = jx >= 0 ? z : -z;
  y = ix < 0x24000000 ? x * (1.0f + x) : y;  // |x| < 2^-55
  y = ix == 0 ? x : y;                       // +-0
  const VF inv = 1.0f / x;  // inf and NaN: +-1 and NaN
  y = ix >= 0x7f800000 ? (jx >= 0 ? inv + 1.0f : inv - 1.0f) : y;
  std::memcpy(py, &y, sizeof y);
}

/// y[i] = tanh(x[i]) over one flat chunk; the tail runs through the same
/// body from a zero-padded vector.
void tanh_chunk(const f32* x, f32* y, i64 count) {
  i64 i = 0;
  for (; i + kLanes <= count; i += kLanes) tanh_lanes(x + i, y + i);
  if (i == count) return;
  f32 in[kLanes] = {};
  f32 out[kLanes];
  const std::size_t tail = static_cast<std::size_t>(count - i) * sizeof(f32);
  std::memcpy(in, x + i, tail);
  tanh_lanes(in, out);
  std::memcpy(y + i, out, tail);
}

}  // namespace

Tensor tanh(const Tensor& a) {
  KernelLaunch launch("tanh");
  Tensor out(a.rows(), a.cols());
  const f32* pa = a.data();
  f32* po = out.data();
  parallel_for_blocks(
      0, a.numel(),
      [&](i64 lo, i64 hi) { tanh_chunk(pa + lo, po + lo, hi - lo); },
      kGrainWork);
  return out;
}

}  // namespace fekf::kernels

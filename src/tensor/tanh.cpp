// The float tanh behind every encode: a port of the fdlibm `tanhf` and
// `expm1f` that glibc (up to at least 2.36) ships, so results are bit-equal
// to `std::tanh` there and identical on every platform. `tanh` is the
// scalar port; `tanh_inplace` runs the same operations four lanes at a time,
// branch-free, and hands blocks holding a zero, a tiny or a non-finite
// input, and the last `size % 4` elements, to the scalar port.
//
// This file is built with -ffp-contract=off (src/tensor/CMakeLists.txt): a
// fused multiply-add rounds once where the reference rounds twice, and
// would change bits.
//
// The ported code is derived from s_tanhf.c and s_expm1f.c:
//
// Conversion to float by Ian Lance Taylor, Cygnus Support, ian@cygnus.com.
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================

#include <bit>
#include <cstdint>
#include <cstring>

#include "tensor/ops.hpp"

namespace hdc::tensor {
namespace {

constexpr float kLn2Hi = 6.9313812256e-01F;  // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06F;  // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00F;  // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02F;     // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03F;      // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05F;     // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06F;      // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07F;     // 0xb457edbb

// |x| bit thresholds of tanhf and expm1f.
constexpr std::uint32_t kTanhTiny = 0x24000000;    // 2^-55
constexpr std::uint32_t kTanhOne = 0x3f800000;     // 1
constexpr std::uint32_t kTanhSat = 0x41b00000;     // 22
constexpr std::uint32_t kInf = 0x7f800000;
constexpr std::uint32_t kExpm1Tiny = 0x33000000;   // 2^-25
constexpr std::uint32_t kHalfLn2 = 0x3eb17218;     // 0.5 ln2
constexpr std::uint32_t kThreeHalfLn2 = 0x3f851592;  // 1.5 ln2

float from_bits(std::uint32_t bits) { return std::bit_cast<float>(bits); }
std::uint32_t to_bits(float x) { return std::bit_cast<std::uint32_t>(x); }

// expm1f restricted to the arguments tanhf passes it: x in [2, 44) or
// x in (-2, -2^-54]. The overflow, non-finite and x < -27 ln2 filters of
// the original cannot trigger there, nor can its k = 1 case (0.5 ln2 < x <
// 1.5 ln2), so they are left out.
float expm1_port(float x) {
  const std::uint32_t hx = to_bits(x) & 0x7fffffffU;
  const bool negative = x < 0.0F;
  std::int32_t k = 0;
  float c = 0.0F;
  if (hx > kHalfLn2) {
    float hi;
    float lo;
    if (hx < kThreeHalfLn2) {  // negative x only
      hi = x + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (negative ? -0.5F : 0.5F));
      const auto t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < kExpm1Tiny) {
    return x;
  }

  // x is now in the primary range.
  const float hfx = 0.5F * x;
  const float hxs = x * hfx;
  const float r1 = 1.0F + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0F - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0F - x * t));
  if (k == 0) {
    return x - (x * e - hxs);
  }
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) {
    return 0.5F * (x - e) - 0.5F;
  }
  const std::uint32_t k_exp = static_cast<std::uint32_t>(k) << 23;  // adds k to an exponent
  if (k <= -2 || k > 56) {
    return from_bits(to_bits(1.0F - (e - x)) + k_exp) - 1.0F;
  }
  float y;
  if (k < 23) {
    y = from_bits(0x3f800000U - (0x1000000U >> k)) - (e - x);  // (1 - 2^-k) - (e - x)
  } else {
    y = x - (e + from_bits(static_cast<std::uint32_t>(0x7f - k) << 23));  // x - (e + 2^-k)
    y += 1.0F;
  }
  return from_bits(to_bits(y) + k_exp);
}

}  // namespace

float tanh(float x) {
  const std::uint32_t jx = to_bits(x);
  const std::uint32_t ix = jx & 0x7fffffffU;
  const bool negative = (jx >> 31) != 0;
  if (ix >= kInf) {
    return negative ? 1.0F / x - 1.0F : 1.0F / x + 1.0F;  // +-1, or NaN
  }
  float z;
  if (ix < kTanhSat) {
    if (ix == 0) {
      return x;  // +-0
    }
    if (ix < kTanhTiny) {
      return x * (1.0F + x);
    }
    const float ax = from_bits(ix);
    if (ix >= kTanhOne) {
      const float t = expm1_port(2.0F * ax);
      z = 1.0F - 2.0F / (t + 2.0F);
    } else {
      const float t = expm1_port(-2.0F * ax);
      z = -t / (t + 2.0F);
    }
  } else {
    z = 1.0F - 1.0e-30F;  // rounds to 1
  }
  return negative ? -z : z;
}

#if defined(__GNUC__) && (defined(__SSE2__) || defined(__ARM_NEON))
namespace {

using F4 = float __attribute__((vector_size(16)));
using U4 = std::uint32_t __attribute__((vector_size(16)));
using I4 = std::int32_t __attribute__((vector_size(16)));

// Lane select: `mask` lanes are all ones or all zeros (a vector compare).
F4 select(I4 mask, F4 a, F4 b) {
  const U4 m = reinterpret_cast<U4>(mask);
  return reinterpret_cast<F4>((m & reinterpret_cast<U4>(a)) | (~m & reinterpret_cast<U4>(b)));
}
I4 select(I4 mask, I4 a, I4 b) { return (mask & a) | (~mask & b); }

F4 splat(float v) { return F4{v, v, v, v}; }

// tanh of four lanes with 2^-55 <= |x| < inf: the scalar port's operations
// on every path at once, the lane's own path picked at the end, so each
// lane rounds exactly as `tanh(float)` does. |x| bit patterns are below
// 2^31, so they compare as signed lanes (SSE2 has no unsigned compare).
F4 tanh4(F4 x) {
  const I4 bits = reinterpret_cast<I4>(x);
  const I4 ix = bits & 0x7fffffff;
  const I4 saturated = ix >= static_cast<std::int32_t>(kTanhSat);
  // Saturated lanes compute on |x| = 22 and are replaced by 1 at the end;
  // the clamp keeps their float-to-int conversion of k in range.
  const F4 ax = reinterpret_cast<F4>(select(saturated, I4{} + kTanhSat, ix));
  const I4 big = ix >= static_cast<std::int32_t>(kTanhOne);

  // expm1(u), with u = 2|x| for |x| >= 1 (k in [3, 63]) and u = -2|x|
  // otherwise (k in [-3, 0]).
  const F4 u = select(big, splat(2.0F) * ax, splat(-2.0F) * ax);
  const I4 hu = reinterpret_cast<I4>(ax) + 0x00800000;  // |u| = 2|x|: one more in the exponent
  I4 k = __builtin_convertvector(splat(kInvLn2) * u + select(big, splat(0.5F), splat(-0.5F)),
                                 I4);
  k = select(hu < static_cast<std::int32_t>(kThreeHalfLn2), I4{} - 1, k);  // negative u only
  k = select(hu <= static_cast<std::int32_t>(kHalfLn2), I4{}, k);
  const F4 t = __builtin_convertvector(k, F4);
  const F4 hi = u - t * splat(kLn2Hi);  // k = 0: u, k = -1: u + ln2_hi
  const F4 lo = t * splat(kLn2Lo);
  const F4 r = hi - lo;
  const F4 c = (hi - r) - lo;

  const F4 one = splat(1.0F);
  const F4 hfx = splat(0.5F) * r;
  const F4 hxs = r * hfx;
  const F4 r1 =
      one + hxs * (splat(kQ1) +
                   hxs * (splat(kQ2) + hxs * (splat(kQ3) + hxs * (splat(kQ4) + hxs * splat(kQ5)))));
  const F4 tt = splat(3.0F) - r1 * hfx;
  F4 e = hxs * ((r1 - tt) / (splat(6.0F) - r * tt));
  const F4 em1_k0 = select(hu < static_cast<std::int32_t>(kExpm1Tiny), u, r - (r * e - hxs));
  e = (r * (e - c) - c);
  e -= hxs;
  const F4 em1_km1 = splat(0.5F) * (r - e) - splat(0.5F);
  const I4 k_exp = k << 23;  // adds k to an exponent
  const F4 two_mk = reinterpret_cast<F4>((0x7f - k) << 23);  // 2^-k
  const F4 em1_far = reinterpret_cast<F4>(reinterpret_cast<I4>(one - (e - r)) + k_exp) - one;
  const F4 em1_mid = reinterpret_cast<F4>(reinterpret_cast<I4>((one - two_mk) - (e - r)) + k_exp);
  const F4 em1_high = reinterpret_cast<F4>(reinterpret_cast<I4>((r - (e + two_mk)) + one) + k_exp);
  F4 em1 = select((k >= 23) & (k <= 56), em1_high, em1_far);
  em1 = select((k >= 2) & (k < 23), em1_mid, em1);
  em1 = select(k == -1, em1_km1, em1);
  em1 = select(k == 0, em1_k0, em1);

  // |x| >= 1: z = 1 - 2 / (t + 2); else z = -t / (t + 2). One division
  // serves both; z > 0 in every lane, so the sign of x is OR-ed in.
  const F4 q = select(big, splat(2.0F), -em1) / (em1 + splat(2.0F));
  F4 z = select(big, one - q, q);
  z = select(saturated, one, z);
  return reinterpret_cast<F4>(reinterpret_cast<I4>(z) | (bits ^ ix));
}

}  // namespace

void tanh_inplace(std::span<float> v) {
  float* p = v.data();
  const std::size_t n = v.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    F4 x;
    std::memcpy(&x, p + i, sizeof x);
    const I4 ix = reinterpret_cast<I4>(x) & 0x7fffffff;
    const I4 special = (ix < static_cast<std::int32_t>(kTanhTiny)) |
                       (ix >= static_cast<std::int32_t>(kInf));
    std::uint64_t halves[2];
    std::memcpy(halves, &special, sizeof halves);
    if ((halves[0] | halves[1]) != 0) {
      for (std::size_t j = i; j < i + 4; ++j) {
        p[j] = tanh(p[j]);
      }
      continue;
    }
    x = tanh4(x);
    std::memcpy(p + i, &x, sizeof x);
  }
  for (; i < n; ++i) {
    p[i] = tanh(p[i]);
  }
}
#else
void tanh_inplace(std::span<float> v) {
  for (float& x : v) {
    x = tanh(x);
  }
}
#endif

}  // namespace hdc::tensor

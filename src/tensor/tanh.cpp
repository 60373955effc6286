// The float tanh behind every encode: a port of the fdlibm `tanhf` and
// `expm1f` that glibc (up to at least 2.36) ships, so results are bit-equal
// to `std::tanh` there and identical on every platform. `tanh` is the
// scalar port; the vector port behind `tanh_inplace` (kernel_bodies.inc)
// runs the same operations several lanes at a time and hands lanes it does
// not cover to this one.
//
// This file is built with -ffp-contract=off (src/tensor/CMakeLists.txt): a
// fused multiply-add rounds once where the reference rounds twice, and
// would change bits. The constants it shares with the vector port are in
// tanh_fdlibm.hpp.
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

#include "tensor/ops.hpp"
#include "tensor/tanh_fdlibm.hpp"

namespace hdc::tensor {
namespace {

using namespace fdlibm;

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

}  // namespace hdc::tensor

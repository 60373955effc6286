#pragma once

// Constants and bit thresholds of the fdlibm `tanhf` / `expm1f` pair that
// glibc (up to at least 2.36) ships, shared by the scalar port (tanh.cpp)
// and the vector port (kernel_bodies.inc).
//
// Derived from s_tanhf.c and s_expm1f.c:
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

#include <cstdint>

namespace hdc::tensor::fdlibm {

inline constexpr float kLn2Hi = 6.9313812256e-01F;   // 0x3f317180
inline constexpr float kLn2Lo = 9.0580006145e-06F;   // 0x3717f7d1
inline constexpr float kInvLn2 = 1.4426950216e+00F;  // 0x3fb8aa3b
inline constexpr float kQ1 = -3.3333335072e-02F;     // 0xbd088889
inline constexpr float kQ2 = 1.5873016091e-03F;      // 0x3ad00d01
inline constexpr float kQ3 = -7.9365076090e-05F;     // 0xb8a670cd
inline constexpr float kQ4 = 4.0082177293e-06F;      // 0x36867e54
inline constexpr float kQ5 = -2.0109921195e-07F;     // 0xb457edbb

// |x| bit thresholds of tanhf and expm1f.
inline constexpr std::uint32_t kTanhTiny = 0x24000000;      // 2^-55
inline constexpr std::uint32_t kTanhOne = 0x3f800000;       // 1
inline constexpr std::uint32_t kTanhSat = 0x41b00000;       // 22
inline constexpr std::uint32_t kInf = 0x7f800000;
inline constexpr std::uint32_t kExpm1Tiny = 0x33000000;     // 2^-25
inline constexpr std::uint32_t kHalfLn2 = 0x3eb17218;       // 0.5 ln2
inline constexpr std::uint32_t kThreeHalfLn2 = 0x3f851592;  // 1.5 ln2

}  // namespace hdc::tensor::fdlibm

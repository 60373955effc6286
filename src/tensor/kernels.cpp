// The two instantiations of kernel_bodies.inc and the one CPU check that
// picks between them.
//
// The AVX2 region names only "avx2" in its target string, never "fma": a
// fused multiply-add rounds once where the portable kernels round twice, so
// letting the compiler contract a*b+c there would change bits. Leaving FMA
// out of the target keeps every multiply-add unfused whatever -ffp-contract
// says: on x86-64 this file is compiled with the flags it is given
// (src/tensor/CMakeLists.txt), as the benchmark package compiles it.

#include "tensor/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "tensor/tanh_fdlibm.hpp"

#if defined(__GNUC__) && (defined(__SSE2__) || defined(__ARM_NEON))
#define HDC_TENSOR_VECTOR_KERNELS 1
#else
#define HDC_TENSOR_VECTOR_KERNELS 0
#endif

#if defined(__GNUC__) && defined(__x86_64__)
#define HDC_TENSOR_AVX2 1
#else
#define HDC_TENSOR_AVX2 0
#endif

namespace hdc::tensor::kernels {

namespace portable_impl {
constexpr std::size_t kFloatLanes = 4;
#include "tensor/kernel_bodies.inc"
}  // namespace portable_impl

#if HDC_TENSOR_AVX2
#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2"))), apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2")
#endif
namespace avx2_impl {
constexpr std::size_t kFloatLanes = 8;
#include "tensor/kernel_bodies.inc"
}  // namespace avx2_impl
#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif
#endif  // HDC_TENSOR_AVX2

const KernelSet& portable() { return portable_impl::kKernelSet; }

const KernelSet* avx2() {
#if HDC_TENSOR_AVX2
  // The one CPU check of the library. __builtin_cpu_supports also requires
  // the OS to save the 256-bit registers (XGETBV), so a true answer means
  // the AVX2 instantiation can run.
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported ? &avx2_impl::kKernelSet : nullptr;
#else
  return nullptr;
#endif
}

const KernelSet& active() {
  static const KernelSet& chosen = avx2() != nullptr ? *avx2() : portable();
  return chosen;
}

}  // namespace hdc::tensor::kernels

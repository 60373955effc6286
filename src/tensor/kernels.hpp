#pragma once

// The host's hot kernels, compiled at two vector widths from one source
// (kernel_bodies.inc): a portable instantiation (SSE2 on x86-64, NEON on
// aarch64, 16-byte vectors) and, on x86-64, an AVX2 instantiation (32-byte
// vectors). Both compute every output bit for bit the same; only their speed
// differs. `active()` picks one once per process from the CPU's features.
// ops.hpp is the public interface; this header exists for the tests and
// benches that compare the two instantiations directly.

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"

namespace hdc::tensor::kernels {

struct KernelSet {
  /// C[:, col_begin, col_end) += A * B[:, col_begin, col_end) for C holding
  /// +0 on entry; `col_begin` must be a multiple of 16. Each element sums
  /// its k terms one at a time in ascending k, as `vecmat` does.
  void (*matmul_cols)(const MatrixF& a, const MatrixF& b, MatrixF& c, std::size_t col_begin,
                      std::size_t col_end);

  /// Elementwise tanh in place, equal to `tensor::tanh(float)` bit for bit.
  void (*tanh_inplace)(std::span<float> v);

  /// Rows [row_begin, row_end) of `c` = (A - zero_point) * W in exact int32.
  void (*matmul_i8_packed_rows)(const MatrixI8& a, std::int32_t zero_point,
                                const PackedWeightsI8& w, MatrixI32& c, std::size_t row_begin,
                                std::size_t row_end);

  /// The int8 requantisation of `tensor::requantize_i8` (see ops.hpp).
  void (*requantize_i8)(const MatrixI32& acc, double multiplier,
                        std::span<const double> column_scales, std::int32_t zero_point,
                        MatrixI8& out);
};

/// The portable instantiation: runs on every supported CPU.
const KernelSet& portable();

/// The AVX2 instantiation, or null when this build has none (not x86-64,
/// or a compiler without target attributes) or the CPU lacks AVX2.
const KernelSet* avx2();

/// The instantiation every public kernel in ops.hpp runs: AVX2 when
/// `avx2()` is available, else the portable one. Chosen once.
const KernelSet& active();

}  // namespace hdc::tensor::kernels

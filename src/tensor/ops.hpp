#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.hpp"

namespace hdc::tensor {

// The float GEMM, tanh, packed int8 FC and requantisation kernels below run
// at the CPU's vector width: each is compiled once portably (SSE2/NEON) and,
// on x86-64, once for AVX2, and the AVX2 copy is used when the CPU has it
// (tensor/kernels.hpp). Both copies give the same bits.

/// C = A * B  (float, row-major, register-tiled). Column ranges run on the
/// host worker pool (see common/parallel.hpp). Each output element sums its
/// k terms in ascending k from +0, exactly as `vecmat` does for one row, so
/// results are bit-identical to `vecmat` row by row and for any thread
/// count.
MatrixF matmul(const MatrixF& a, const MatrixF& b);

/// C = tanh(A * B): the HDC batch-encode kernel, with the non-linearity
/// fused into each parallel column range.
MatrixF matmul_tanh(const MatrixF& a, const MatrixF& b);

/// y = x * A  for a single row vector x (1 x k) and matrix A (k x n).
void vecmat(std::span<const float> x, const MatrixF& a, std::span<float> y);

/// C(int32) = A(int8) * B(int8), the reference the systolic array is tested
/// against. Accumulation in int32, no saturation (matches MXU semantics).
MatrixI32 matmul_i8(const MatrixI8& a, const MatrixI8& b);

/// int8 weights (k x n, row-major) repacked for `matmul_i8_packed`:
/// transposed so the k weights of each output column are contiguous, and
/// kept int8. Each column is zero-padded to `stride` (k rounded up to 16),
/// so the kernel's dot products run in whole vectors.
struct PackedWeightsI8 {
  std::size_t rows = 0;    ///< k: input width
  std::size_t cols = 0;    ///< n: output width
  std::size_t stride = 0;  ///< padded column length
  std::vector<std::int8_t> columns;  ///< column j at [j * stride, j * stride + rows)
};
PackedWeightsI8 pack_weights_i8(std::span<const std::int8_t> weights, std::size_t rows,
                                std::size_t cols);

/// C(int32) = (A - a_zero_point) * W for int8 activations A and packed int8
/// weights W: a fully-connected layer's accumulators. Sums are exact in
/// int32 (no saturation), so they equal the row-by-row loop in any order.
/// Several rows share each pass over a weight column. `a_zero_point` must
/// lie in [-128, 127]. Row blocks run on the host worker pool.
MatrixI32 matmul_i8_packed(const MatrixI8& a, std::int32_t a_zero_point,
                           const PackedWeightsI8& w);

/// out(r, j) = clamp(round(acc(r, j) * multiplier * column_scales[j]) +
/// zero_point, -128, 127), with the two multiplies in that order in double
/// and `round` rounding halves away from zero: exactly what that expression
/// gives with std::round, at every accumulator, for finite positive scales.
/// `out` must already have acc's shape; `zero_point` lies in [-128, 127].
void requantize_i8(const MatrixI32& acc, double multiplier, std::span<const double> column_scales,
                   std::int32_t zero_point, MatrixI8& out);

/// y += alpha * x.
void axpy(float alpha, std::span<const float> x, std::span<float> y);

float dot(std::span<const float> a, std::span<const float> b);
float l2_norm(std::span<const float> v);

/// Cosine similarity; returns 0 when either vector has zero norm.
float cosine(std::span<const float> a, std::span<const float> b);

/// Index of the maximum element (first occurrence on ties).
std::size_t argmax(std::span<const float> v);
std::size_t argmax_i32(std::span<const std::int32_t> v);

/// tanh(x) as the fdlibm `tanhf` computes it (the one glibc 2.36 ships):
/// bit-equal to `std::tanh` there. Built without fused multiply-adds, so
/// its bits do not depend on the platform. The one float tanh of the
/// library (see tanh.cpp).
float tanh(float x);

/// Elementwise tanh in place, a vector of lanes at a time; every element
/// equals `tanh(float)` bit for bit.
void tanh_inplace(std::span<float> v);

/// B = A^T.
MatrixF transpose(const MatrixF& a);

/// Horizontal concatenation [A | B | ...]: equal row counts required.
MatrixF hstack(std::span<const MatrixF> blocks);
/// Vertical concatenation: equal column counts required.
MatrixF vstack(std::span<const MatrixF> blocks);

/// Min / max over all elements (matrix must be non-empty).
struct MinMax {
  float min;
  float max;
};
MinMax min_max(const MatrixF& a);

}  // namespace hdc::tensor

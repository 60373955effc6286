#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.hpp"
#include "tensor/kernels.hpp"

namespace hdc::tensor {
namespace {

// Output columns per unit of parallel work: a multiple of both
// instantiations' register-tile widths (8 and 16 floats), so every column
// range a thread owns starts on a tile boundary of either.
constexpr std::size_t kStripCols = 16;

// Runs `body(col_begin, col_end)` over kStripCols-aligned column ranges of
// an n-column output on the worker pool.
template <typename Body>
void for_column_strips(std::size_t n, const Body& body) {
  const std::size_t strips = (n + kStripCols - 1) / kStripCols;
  parallel::parallel_for(0, strips, [&](std::size_t lo, std::size_t hi) {
    body(lo * kStripCols, std::min(hi * kStripCols, n));
  });
}

}  // namespace

MatrixF matmul(const MatrixF& a, const MatrixF& b) {
  HDC_CHECK(a.cols() == b.rows(), "matmul inner dimensions disagree");
  MatrixF c(a.rows(), b.cols(), 0.0F);
  const kernels::KernelSet& k = kernels::active();
  for_column_strips(b.cols(), [&](std::size_t lo, std::size_t hi) {
    k.matmul_cols(a, b, c, lo, hi);
  });
  return c;
}

MatrixF matmul_tanh(const MatrixF& a, const MatrixF& b) {
  HDC_CHECK(a.cols() == b.rows(), "matmul inner dimensions disagree");
  MatrixF c(a.rows(), b.cols(), 0.0F);
  const std::size_t n = b.cols();
  const kernels::KernelSet& k = kernels::active();
  for_column_strips(n, [&](std::size_t lo, std::size_t hi) {
    k.matmul_cols(a, b, c, lo, hi);
    // tanh fused per column range: every element in it has its full k
    // reduction done above before the non-linearity touches it.
    for (std::size_t i = 0; i < c.rows(); ++i) {
      k.tanh_inplace({c.data() + i * n + lo, hi - lo});
    }
  });
  return c;
}

void vecmat(std::span<const float> x, const MatrixF& a, std::span<float> y) {
  HDC_CHECK(x.size() == a.rows(), "vecmat input length disagrees with matrix rows");
  HDC_CHECK(y.size() == a.cols(), "vecmat output length disagrees with matrix cols");
  std::fill(y.begin(), y.end(), 0.0F);
  const std::size_t n = a.cols();
  for (std::size_t k = 0; k < x.size(); ++k) {
    const float xk = x[k];
    if (xk == 0.0F) {
      continue;
    }
    const float* row = a.data() + k * n;
    for (std::size_t j = 0; j < n; ++j) {
      y[j] += xk * row[j];
    }
  }
}

MatrixI32 matmul_i8(const MatrixI8& a, const MatrixI8& b) {
  HDC_CHECK(a.cols() == b.rows(), "matmul_i8 inner dimensions disagree");
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  MatrixI32 c(m, n, 0);
  parallel::parallel_for(0, m, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      std::int32_t* c_row = c.data() + i * n;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const std::int32_t a_ik = a(i, kk);
        if (a_ik == 0) {
          continue;
        }
        const std::int8_t* b_row = b.data() + kk * n;
        for (std::size_t j = 0; j < n; ++j) {
          c_row[j] += a_ik * static_cast<std::int32_t>(b_row[j]);
        }
      }
    }
  });
  return c;
}

namespace {

// Column padding of packed int8 weights: one 16-byte vector.
constexpr std::size_t kI8Lanes = 16;

}  // namespace

PackedWeightsI8 pack_weights_i8(std::span<const std::int8_t> weights, std::size_t rows,
                                std::size_t cols) {
  HDC_CHECK(weights.size() == rows * cols, "packed int8 weights size mismatch");
  PackedWeightsI8 packed;
  packed.rows = rows;
  packed.cols = cols;
  packed.stride = (rows + kI8Lanes - 1) / kI8Lanes * kI8Lanes;
  packed.columns.assign(cols * packed.stride, 0);
  // Transpose in square blocks so reads and writes both stay in cache.
  constexpr std::size_t kBlock = 64;
  for (std::size_t i0 = 0; i0 < rows; i0 += kBlock) {
    const std::size_t i_end = std::min(i0 + kBlock, rows);
    for (std::size_t j0 = 0; j0 < cols; j0 += kBlock) {
      const std::size_t j_end = std::min(j0 + kBlock, cols);
      for (std::size_t j = j0; j < j_end; ++j) {
        for (std::size_t i = i0; i < i_end; ++i) {
          packed.columns[j * packed.stride + i] = weights[i * cols + j];
        }
      }
    }
  }
  return packed;
}

MatrixI32 matmul_i8_packed(const MatrixI8& a, std::int32_t a_zero_point,
                           const PackedWeightsI8& w) {
  HDC_CHECK(a.cols() == w.rows, "matmul_i8_packed inner dimensions disagree");
  HDC_CHECK(w.stride >= w.rows && w.columns.size() == w.stride * w.cols,
            "packed int8 weights size mismatch");
  HDC_CHECK(a_zero_point >= -128 && a_zero_point <= 127,
            "int8 activation zero point out of range");
  MatrixI32 c(a.rows(), w.cols, 0);
  const kernels::KernelSet& k = kernels::active();
  parallel::parallel_for(0, a.rows(), [&](std::size_t lo, std::size_t hi) {
    k.matmul_i8_packed_rows(a, a_zero_point, w, c, lo, hi);
  });
  return c;
}

void requantize_i8(const MatrixI32& acc, double multiplier, std::span<const double> column_scales,
                   std::int32_t zero_point, MatrixI8& out) {
  HDC_CHECK(column_scales.size() == acc.cols(), "one requantisation scale per column required");
  HDC_CHECK(out.rows() == acc.rows() && out.cols() == acc.cols(),
            "requantisation output shape disagrees with the accumulators");
  HDC_CHECK(zero_point >= -128 && zero_point <= 127, "int8 output zero point out of range");
  kernels::active().requantize_i8(acc, multiplier, column_scales, zero_point, out);
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  HDC_CHECK(x.size() == y.size(), "axpy length mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += alpha * x[i];
  }
}

float dot(std::span<const float> a, std::span<const float> b) {
  HDC_CHECK(a.size() == b.size(), "dot length mismatch");
  double acc = 0.0;  // double accumulation keeps 10k-wide dots stable
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return static_cast<float>(acc);
}

float l2_norm(std::span<const float> v) {
  double acc = 0.0;
  for (const float x : v) {
    acc += static_cast<double>(x) * static_cast<double>(x);
  }
  return static_cast<float>(std::sqrt(acc));
}

float cosine(std::span<const float> a, std::span<const float> b) {
  const float na = l2_norm(a);
  const float nb = l2_norm(b);
  if (na == 0.0F || nb == 0.0F) {
    return 0.0F;
  }
  return dot(a, b) / (na * nb);
}

std::size_t argmax(std::span<const float> v) {
  HDC_CHECK(!v.empty(), "argmax of empty span");
  return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) - v.begin());
}

void tanh_inplace(std::span<float> v) { kernels::active().tanh_inplace(v); }

MatrixF transpose(const MatrixF& a) {
  MatrixF t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      t(j, i) = a(i, j);
    }
  }
  return t;
}

MatrixF hstack(std::span<const MatrixF> blocks) {
  HDC_CHECK(!blocks.empty(), "hstack of zero blocks");
  const std::size_t rows = blocks.front().rows();
  std::size_t cols = 0;
  for (const auto& block : blocks) {
    HDC_CHECK(block.rows() == rows, "hstack blocks must share a row count");
    cols += block.cols();
  }
  MatrixF out(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    std::size_t offset = 0;
    for (const auto& block : blocks) {
      std::copy_n(block.data() + i * block.cols(), block.cols(),
                  out.data() + i * cols + offset);
      offset += block.cols();
    }
  }
  return out;
}

MinMax min_max(const MatrixF& a) {
  HDC_CHECK(!a.empty(), "min_max of empty matrix");
  const auto [lo, hi] = std::minmax_element(a.storage().begin(), a.storage().end());
  return {*lo, *hi};
}

}  // namespace hdc::tensor

#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.hpp"

namespace hdc::tensor {
namespace {

// Register-tiled float GEMM. C is computed in kMr x kNr tiles that live in
// registers while a kKc-deep panel of A and of a packed B block streams past
// them; a tile goes back to C between panels. Every output element therefore
// still sums its k terms one at a time in ascending k, starting from the +0
// that C was created with — the order `vecmat` uses for one row — so results
// do not depend on the tiling, on the column range a thread owns, or on the
// thread count.
constexpr std::size_t kMr = 4;    // rows per register tile (tile_4x8 below)
constexpr std::size_t kNr = 8;    // columns per register tile
constexpr std::size_t kKc = 256;  // k-panel depth
constexpr std::size_t kNc = 512;  // columns per packed B block (kKc x kNc: 512 KiB)

// C(4 x kNr) += A(4 x kc) * Bp(kc x kNr). `a` rows are `lda` apart, `bp` is a
// packed strip of kc rows of kNr contiguous floats, `c` rows are `ldc` apart.
// A k step is skipped only when all four A values are zero. Each skipped
// term is then a signed zero, and adding a signed zero to an accumulator
// that started at +0 never changes it, so skipping is exact for finite B;
// it keeps the saving on bagging's zeroed feature columns. One named array
// per row keeps GCC's vectorizer from spilling the accumulators, and keeping
// the kernel out of line keeps them in registers (inlined into its caller,
// GCC 12 ran it about 4x slower).
[[gnu::noinline]] void tile_4x8(const float* a, std::size_t lda, const float* bp,
                                std::size_t kc, float* c, std::size_t ldc) {
  float c0[kNr];
  float c1[kNr];
  float c2[kNr];
  float c3[kNr];
  for (std::size_t j = 0; j < kNr; ++j) {
    c0[j] = c[j];
    c1[j] = c[ldc + j];
    c2[j] = c[2 * ldc + j];
    c3[j] = c[3 * ldc + j];
  }
  const float* a0 = a;
  const float* a1 = a + lda;
  const float* a2 = a + 2 * lda;
  const float* a3 = a + 3 * lda;
  for (std::size_t kk = 0; kk < kc; ++kk, bp += kNr) {
    const float x0 = a0[kk];
    const float x1 = a1[kk];
    const float x2 = a2[kk];
    const float x3 = a3[kk];
    if (x0 == 0.0F && x1 == 0.0F && x2 == 0.0F && x3 == 0.0F) {
      continue;
    }
    for (std::size_t j = 0; j < kNr; ++j) {
      c0[j] += x0 * bp[j];
    }
    for (std::size_t j = 0; j < kNr; ++j) {
      c1[j] += x1 * bp[j];
    }
    for (std::size_t j = 0; j < kNr; ++j) {
      c2[j] += x2 * bp[j];
    }
    for (std::size_t j = 0; j < kNr; ++j) {
      c3[j] += x3 * bp[j];
    }
  }
  for (std::size_t j = 0; j < kNr; ++j) {
    c[j] = c0[j];
    c[ldc + j] = c1[j];
    c[2 * ldc + j] = c2[j];
    c[3 * ldc + j] = c3[j];
  }
}

// C[:, col_begin : col_end) += A * B[:, col_begin : col_end), with C holding
// +0 on entry and `col_begin` a multiple of kNr. Threads split the columns,
// so each packs only its own slice of B and B is packed once per call
// whatever the thread count. A trailing partial row tile runs on a
// zero-padded copy of its rows and a trailing partial column strip on a
// zero-padded strip and a scratch tile; padding only adds lanes that are
// thrown away.
void matmul_cols(const MatrixF& a, const MatrixF& b, MatrixF& c, std::size_t col_begin,
                 std::size_t col_end) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  if (m == 0 || k == 0 || col_begin >= col_end) {
    return;
  }
  const std::size_t full_rows = m / kMr * kMr;
  const std::size_t tail_rows = m - full_rows;
  std::vector<float> a_tail(tail_rows == 0 ? 0 : kMr * k, 0.0F);
  std::vector<float> c_tail(tail_rows == 0 ? 0 : kMr * n, 0.0F);
  if (tail_rows != 0) {
    std::copy_n(a.data() + full_rows * k, tail_rows * k, a_tail.data());
  }

  const std::size_t block_cols = (std::min(kNc, col_end - col_begin) + kNr - 1) / kNr * kNr;
  std::vector<float> packed(std::min(kKc, k) * block_cols);
  float scratch[kMr * kNr];

  for (std::size_t j0 = col_begin; j0 < col_end; j0 += kNc) {
    const std::size_t nc = std::min(kNc, col_end - j0);
    const std::size_t strips = (nc + kNr - 1) / kNr;
    for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
      const std::size_t kc = std::min(kKc, k - k0);
      // Pack B[k0 : k0 + kc, j0 : j0 + nc] strip by strip (kc x kNr each).
      for (std::size_t s = 0; s < strips; ++s) {
        float* dst = packed.data() + s * kc * kNr;
        const std::size_t col = j0 + s * kNr;
        const std::size_t width = std::min(kNr, col_end - col);
        for (std::size_t kk = 0; kk < kc; ++kk, dst += kNr) {
          const float* src = b.data() + (k0 + kk) * n + col;
          std::copy_n(src, width, dst);
          std::fill(dst + width, dst + kNr, 0.0F);
        }
      }

      const auto run_tile = [&](const float* a_rows, float* c_rows) {
        for (std::size_t s = 0; s < strips; ++s) {
          const float* bp = packed.data() + s * kc * kNr;
          const std::size_t col = j0 + s * kNr;
          const std::size_t width = std::min(kNr, col_end - col);
          if (width == kNr) {
            tile_4x8(a_rows + k0, k, bp, kc, c_rows + col, n);
            continue;
          }
          for (std::size_t i = 0; i < kMr; ++i) {
            std::copy_n(c_rows + i * n + col, width, scratch + i * kNr);
            std::fill(scratch + i * kNr + width, scratch + (i + 1) * kNr, 0.0F);
          }
          tile_4x8(a_rows + k0, k, bp, kc, scratch, kNr);
          for (std::size_t i = 0; i < kMr; ++i) {
            std::copy_n(scratch + i * kNr, width, c_rows + i * n + col);
          }
        }
      };
      for (std::size_t i = 0; i < full_rows; i += kMr) {
        run_tile(a.data() + i * k, c.data() + i * n);
      }
      if (tail_rows != 0) {
        run_tile(a_tail.data(), c_tail.data());
      }
    }
  }
  for (std::size_t i = 0; i < tail_rows; ++i) {
    std::copy_n(c_tail.data() + i * n + col_begin, col_end - col_begin,
                c.data() + (full_rows + i) * n + col_begin);
  }
}

// Runs `body(col_begin, col_end)` over kNr-aligned column ranges of an
// n-column output on the worker pool.
template <typename Body>
void for_column_strips(std::size_t n, const Body& body) {
  const std::size_t strips = (n + kNr - 1) / kNr;
  parallel::parallel_for(0, strips, [&](std::size_t lo, std::size_t hi) {
    body(lo * kNr, std::min(hi * kNr, n));
  });
}

}  // namespace

MatrixF matmul(const MatrixF& a, const MatrixF& b) {
  HDC_CHECK(a.cols() == b.rows(), "matmul inner dimensions disagree");
  MatrixF c(a.rows(), b.cols(), 0.0F);
  for_column_strips(b.cols(), [&](std::size_t lo, std::size_t hi) {
    matmul_cols(a, b, c, lo, hi);
  });
  return c;
}

MatrixF matmul_tanh(const MatrixF& a, const MatrixF& b) {
  HDC_CHECK(a.cols() == b.rows(), "matmul inner dimensions disagree");
  MatrixF c(a.rows(), b.cols(), 0.0F);
  const std::size_t n = b.cols();
  for_column_strips(n, [&](std::size_t lo, std::size_t hi) {
    matmul_cols(a, b, c, lo, hi);
    // tanh fused per column range: every element in it has its full k
    // reduction done above before the non-linearity touches it.
    for (std::size_t i = 0; i < c.rows(); ++i) {
      tanh_inplace({c.data() + i * n + lo, hi - lo});
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

// Column padding of packed int8 weights (one 16-byte vector), rows of A per
// pass over the weights, and weight columns per block (a block of kI8Cols
// columns stays cache-resident while every row group uses it).
constexpr std::size_t kI8Lanes = 16;
constexpr std::size_t kI8Rows = 4;
constexpr std::size_t kI8Cols = 128;

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

namespace {

// Accumulators of rows [row_begin, row_end). Activations are widened once to
// int16 with the zero point removed (|x - zp| <= 255) and zero-padded like
// the weight columns, so each product of an int16 activation and an int8
// weight fits int16, padding adds exact zeros, and each dot product is a
// plain integer sum over whole vectors that the compiler vectorizes without
// widening the stored weights.
void matmul_i8_packed_rows(const MatrixI8& a, std::int32_t zero_point, const PackedWeightsI8& w,
                           MatrixI32& c, std::size_t row_begin, std::size_t row_end) {
  const std::size_t k = w.rows;
  const std::size_t stride = w.stride;
  const std::size_t n = w.cols;
  std::vector<std::int16_t> x((row_end - row_begin) * stride, 0);
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const std::int8_t* src = a.data() + i * k;
    std::int16_t* dst = x.data() + (i - row_begin) * stride;
    for (std::size_t kk = 0; kk < k; ++kk) {
      dst[kk] = static_cast<std::int16_t>(static_cast<std::int32_t>(src[kk]) - zero_point);
    }
  }
  for (std::size_t j0 = 0; j0 < n; j0 += kI8Cols) {
    const std::size_t j_end = std::min(j0 + kI8Cols, n);
    std::size_t i = row_begin;
    for (; i + kI8Rows <= row_end; i += kI8Rows) {
      const std::int16_t* x0 = x.data() + (i - row_begin) * stride;
      const std::int16_t* x1 = x0 + stride;
      const std::int16_t* x2 = x1 + stride;
      const std::int16_t* x3 = x2 + stride;
      for (std::size_t j = j0; j < j_end; ++j) {
        const std::int8_t* wj = w.columns.data() + j * stride;
        std::int32_t s0 = 0;
        std::int32_t s1 = 0;
        std::int32_t s2 = 0;
        std::int32_t s3 = 0;
        for (std::size_t kk = 0; kk < stride; ++kk) {
          const std::int16_t wv = wj[kk];
          s0 += x0[kk] * wv;
          s1 += x1[kk] * wv;
          s2 += x2[kk] * wv;
          s3 += x3[kk] * wv;
        }
        c(i, j) = s0;
        c(i + 1, j) = s1;
        c(i + 2, j) = s2;
        c(i + 3, j) = s3;
      }
    }
    for (; i < row_end; ++i) {
      const std::int16_t* x0 = x.data() + (i - row_begin) * stride;
      for (std::size_t j = j0; j < j_end; ++j) {
        const std::int8_t* wj = w.columns.data() + j * stride;
        std::int32_t s0 = 0;
        for (std::size_t kk = 0; kk < stride; ++kk) {
          s0 += x0[kk] * static_cast<std::int16_t>(wj[kk]);
        }
        c(i, j) = s0;
      }
    }
  }
}

}  // namespace

MatrixI32 matmul_i8_packed(const MatrixI8& a, std::int32_t a_zero_point,
                           const PackedWeightsI8& w) {
  HDC_CHECK(a.cols() == w.rows, "matmul_i8_packed inner dimensions disagree");
  HDC_CHECK(w.stride >= w.rows && w.columns.size() == w.stride * w.cols,
            "packed int8 weights size mismatch");
  HDC_CHECK(a_zero_point >= -128 && a_zero_point <= 127,
            "int8 activation zero point out of range");
  MatrixI32 c(a.rows(), w.cols, 0);
  parallel::parallel_for(0, a.rows(), [&](std::size_t lo, std::size_t hi) {
    matmul_i8_packed_rows(a, a_zero_point, w, c, lo, hi);
  });
  return c;
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

std::size_t argmax_i32(std::span<const std::int32_t> v) {
  HDC_CHECK(!v.empty(), "argmax of empty span");
  return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) - v.begin());
}

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

MatrixF vstack(std::span<const MatrixF> blocks) {
  HDC_CHECK(!blocks.empty(), "vstack of zero blocks");
  const std::size_t cols = blocks.front().cols();
  std::size_t rows = 0;
  for (const auto& block : blocks) {
    HDC_CHECK(block.cols() == cols, "vstack blocks must share a column count");
    rows += block.rows();
  }
  MatrixF out(rows, cols);
  std::size_t row_offset = 0;
  for (const auto& block : blocks) {
    std::copy_n(block.data(), block.size(), out.data() + row_offset * cols);
    row_offset += block.rows();
  }
  return out;
}

MinMax min_max(const MatrixF& a) {
  HDC_CHECK(!a.empty(), "min_max of empty matrix");
  const auto [lo, hi] = std::minmax_element(a.storage().begin(), a.storage().end());
  return {*lo, *hi};
}

}  // namespace hdc::tensor

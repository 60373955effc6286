#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "kernel_width.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"

namespace hdc::tensor {
namespace {

MatrixF random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  MatrixF m(rows, cols);
  Rng rng(seed);
  rng.fill_gaussian(m.data(), m.size());
  return m;
}

/// Naive O(mnk) reference used to validate the blocked implementation.
MatrixF naive_matmul(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols(), 0.0F);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a(i, k)) * b(k, j);
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

// --------------------------------------------------------------- Matrix ----

TEST(MatrixTest, DefaultIsEmpty) {
  MatrixF m;
  EXPECT_EQ(m.rows(), 0U);
  EXPECT_EQ(m.cols(), 0U);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, FillConstructor) {
  MatrixF m(3, 4, 2.5F);
  EXPECT_EQ(m.size(), 12U);
  for (const float v : m.storage()) {
    EXPECT_EQ(v, 2.5F);
  }
}

TEST(MatrixTest, InitializerListLayout) {
  MatrixF m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2U);
  EXPECT_EQ(m.cols(), 3U);
  EXPECT_EQ(m.at(0, 2), 3.0F);
  EXPECT_EQ(m.at(1, 0), 4.0F);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((MatrixF{{1, 2}, {3}}), Error);
}

TEST(MatrixTest, StorageConstructorValidatesSize) {
  EXPECT_THROW(MatrixF(2, 3, std::vector<float>{1, 2, 3}), Error);
}

TEST(MatrixTest, AtBoundsChecked) {
  MatrixF m(2, 2);
  EXPECT_THROW(m.at(2, 0), Error);
  EXPECT_THROW(m.at(0, 2), Error);
}

TEST(MatrixTest, RowSpanWritesThrough) {
  MatrixF m(2, 3, 0.0F);
  auto row = m.row(1);
  row[2] = 9.0F;
  EXPECT_EQ(m.at(1, 2), 9.0F);
}

TEST(MatrixTest, RowOutOfRangeThrows) {
  MatrixF m(2, 3);
  EXPECT_THROW(m.row(2), Error);
}

TEST(MatrixTest, EqualityIsElementwise) {
  MatrixF a{{1, 2}, {3, 4}};
  MatrixF b{{1, 2}, {3, 4}};
  MatrixF c{{1, 2}, {3, 5}};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(MatrixTest, SameShape) {
  EXPECT_TRUE(MatrixF(2, 3).same_shape(MatrixF(2, 3)));
  EXPECT_FALSE(MatrixF(2, 3).same_shape(MatrixF(3, 2)));
}

// --------------------------------------------------------------- matmul ----

TEST(MatmulTest, SmallKnownProduct) {
  MatrixF a{{1, 2}, {3, 4}};
  MatrixF b{{5, 6}, {7, 8}};
  const MatrixF c = matmul(a, b);
  EXPECT_EQ(c, (MatrixF{{19, 22}, {43, 50}}));
}

TEST(MatmulTest, IdentityIsNeutral) {
  const MatrixF a = random_matrix(7, 7, 1);
  MatrixF eye(7, 7, 0.0F);
  for (std::size_t i = 0; i < 7; ++i) {
    eye(i, i) = 1.0F;
  }
  const MatrixF c = matmul(a, eye);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(c.storage()[i], a.storage()[i], 1e-5F);
  }
}

TEST(MatmulTest, ShapeMismatchThrows) {
  EXPECT_THROW(matmul(MatrixF(2, 3), MatrixF(4, 2)), Error);
}

struct MatmulShape {
  std::size_t m, k, n;
};

class MatmulShapeTest : public ::testing::TestWithParam<MatmulShape> {};

TEST_P(MatmulShapeTest, BlockedMatchesNaive) {
  const auto [m, k, n] = GetParam();
  const MatrixF a = random_matrix(m, k, m * 131 + k);
  const MatrixF b = random_matrix(k, n, k * 17 + n);
  const MatrixF blocked = matmul(a, b);
  const MatrixF naive = naive_matmul(a, b);
  ASSERT_TRUE(blocked.same_shape(naive));
  for (std::size_t i = 0; i < blocked.size(); ++i) {
    EXPECT_NEAR(blocked.storage()[i], naive.storage()[i],
                1e-3F * (1.0F + std::fabs(naive.storage()[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulShapeTest,
                         ::testing::Values(MatmulShape{1, 1, 1}, MatmulShape{1, 64, 1},
                                           MatmulShape{3, 5, 7}, MatmulShape{64, 64, 64},
                                           MatmulShape{65, 63, 130}, MatmulShape{2, 200, 33},
                                           MatmulShape{128, 1, 128}));

/// Each output element summed one term at a time in ascending k from +0,
/// with no zero skipping: the order the tiled kernel must reproduce.
MatrixF k_ascending_matmul(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols(), 0.0F);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0F;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += a(i, k) * b(k, j);
      }
      c(i, j) = acc;
    }
  }
  return c;
}

/// Random A with whole zero columns (bagging's masked features), stray zero
/// entries and, when there are enough rows, an all-zero row.
MatrixF sparse_activations(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  MatrixF a = random_matrix(rows, cols, seed);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < cols; ++k) {
      if (k % 3 == 1 || (i + 2 * k) % 7 == 0) {
        a(i, k) = 0.0F;
      }
    }
  }
  if (rows > 2) {
    std::fill(a.row(2).begin(), a.row(2).end(), 0.0F);
  }
  return a;
}

// The tiled kernel must equal the k-ascending reference bit for bit on every
// combination of row tails (1/3/5/65 against 4-row tiles), column tails
// (1/15/17 against 8-column strips, 2048 across 512-column blocks) and
// k-panel edges (127/129/561 against 256-deep panels).
TEST(MatmulTest, TiledKernelEqualsKAscendingReferenceBitForBit) {
  for (const std::size_t rows : {1U, 3U, 5U, 65U}) {
    for (const std::size_t cols : {1U, 15U, 17U, 2048U}) {
      for (const std::size_t k : {1U, 27U, 127U, 129U, 561U}) {
        if (rows * cols * k > 20'000'000U) {
          continue;  // the naive reference would dominate the suite
        }
        const MatrixF a = sparse_activations(rows, k, rows * 1000 + k);
        const MatrixF b = random_matrix(k, cols, cols * 7 + k);
        const MatrixF expected = k_ascending_matmul(a, b);
        ASSERT_EQ(matmul(a, b), expected) << rows << "x" << k << " @ " << k << "x" << cols;
        MatrixF expected_tanh = expected;
        tanh_inplace(expected_tanh.storage());
        ASSERT_EQ(matmul_tanh(a, b), expected_tanh)
            << rows << "x" << k << " @ " << k << "x" << cols;
      }
    }
  }
}

TEST(MatmulTest, TiledKernelCoversLargeShapeBitForBit) {
  // One chunk-sized encode shape (65 rows, 561 features, 2048 wide) with
  // masked features, checked on a strided subset of output columns.
  const MatrixF a = sparse_activations(65, 561, 91);
  const MatrixF b = random_matrix(561, 2048, 92);
  const MatrixF c = matmul(a, b);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); j += 37) {
      float acc = 0.0F;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += a(i, k) * b(k, j);
      }
      ASSERT_EQ(c(i, j), acc) << "row " << i << " col " << j;
    }
  }
}

TEST(MatmulTest, RowsEqualVecmatBitForBit) {
  const MatrixF a = sparse_activations(6, 129, 93);
  const MatrixF b = random_matrix(129, 40, 94);
  const MatrixF c = matmul(a, b);
  std::vector<float> y(b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    vecmat(a.row(i), b, y);
    EXPECT_TRUE(std::equal(y.begin(), y.end(), c.row(i).begin())) << "row " << i;
  }
}

TEST(MatmulI8Test, SmallKnownProduct) {
  MatrixI8 a(1, 2);
  a(0, 0) = 3;
  a(0, 1) = -2;
  MatrixI8 b(2, 2);
  b(0, 0) = 10;
  b(0, 1) = -1;
  b(1, 0) = 5;
  b(1, 1) = 4;
  const MatrixI32 c = matmul_i8(a, b);
  EXPECT_EQ(c(0, 0), 20);
  EXPECT_EQ(c(0, 1), -11);
}

TEST(MatmulI8Test, ExtremeValuesDoNotOverflowInt32) {
  // 128 * 127 * 127 fits comfortably in int32; verify no UB at extremes.
  MatrixI8 a(1, 128);
  MatrixI8 b(128, 1);
  for (auto& v : a.storage()) {
    v = -128;
  }
  for (auto& v : b.storage()) {
    v = 127;
  }
  const MatrixI32 c = matmul_i8(a, b);
  EXPECT_EQ(c(0, 0), -128 * 127 * 128);
}

// --------------------------------------------------------------- vector ----

TEST(VecmatTest, MatchesMatmulRow) {
  const MatrixF a = random_matrix(9, 13, 3);
  const MatrixF x = random_matrix(1, 9, 4);
  std::vector<float> y(13);
  vecmat(x.row(0), a, y);
  const MatrixF full = matmul(x, a);
  for (std::size_t j = 0; j < 13; ++j) {
    EXPECT_NEAR(y[j], full(0, j), 1e-4F);
  }
}

TEST(VecmatTest, LengthMismatchThrows) {
  MatrixF a(3, 2);
  std::vector<float> x(4);
  std::vector<float> y(2);
  EXPECT_THROW(vecmat(x, a, y), Error);
}

TEST(AxpyTest, AccumulatesScaled) {
  std::vector<float> x{1, 2, 3};
  std::vector<float> y{10, 10, 10};
  axpy(2.0F, x, y);
  EXPECT_EQ(y, (std::vector<float>{12, 14, 16}));
}

TEST(AxpyTest, MismatchedLengthsThrow) {
  std::vector<float> x{1};
  std::vector<float> y{1, 2};
  EXPECT_THROW(axpy(1.0F, x, y), Error);
}

TEST(DotTest, KnownValue) {
  std::vector<float> a{1, 2, 3};
  std::vector<float> b{4, -5, 6};
  EXPECT_FLOAT_EQ(dot(a, b), 12.0F);
}

TEST(DotTest, StableForWideVectors) {
  // 10k-wide all-ones dot must be exact with double accumulation.
  std::vector<float> a(10000, 1.0F);
  EXPECT_FLOAT_EQ(dot(a, a), 10000.0F);
}

TEST(NormTest, L2KnownValue) {
  std::vector<float> v{3, 4};
  EXPECT_FLOAT_EQ(l2_norm(v), 5.0F);
}

TEST(CosineTest, ParallelVectorsAreOne) {
  std::vector<float> a{1, 2, 3};
  std::vector<float> b{2, 4, 6};
  EXPECT_NEAR(cosine(a, b), 1.0F, 1e-6F);
}

TEST(CosineTest, OrthogonalVectorsAreZero) {
  std::vector<float> a{1, 0};
  std::vector<float> b{0, 5};
  EXPECT_NEAR(cosine(a, b), 0.0F, 1e-6F);
}

TEST(CosineTest, ZeroVectorYieldsZero) {
  std::vector<float> a{0, 0};
  std::vector<float> b{1, 1};
  EXPECT_EQ(cosine(a, b), 0.0F);
}

TEST(ArgmaxTest, FirstOfTiesWins) {
  std::vector<float> v{1, 3, 3, 2};
  EXPECT_EQ(argmax(v), 1U);
}

TEST(ArgmaxTest, EmptyThrows) {
  std::vector<float> v;
  EXPECT_THROW(argmax(v), Error);
}

TEST(ArgmaxI32Test, NegativeValues) {
  std::vector<std::int32_t> v{-5, -1, -9};
  EXPECT_EQ(argmax_i32(v), 1U);
}

TEST(TanhTest, BoundedAndOdd) {
  std::vector<float> v{-100.0F, -1.0F, 0.0F, 1.0F, 100.0F};
  tanh_inplace(v);
  EXPECT_NEAR(v[0], -1.0F, 1e-5F);
  EXPECT_NEAR(v[4], 1.0F, 1e-5F);
  EXPECT_EQ(v[2], 0.0F);
  EXPECT_NEAR(v[1], -v[3], 1e-6F);
}

// The scalar port is checked against the C library only where that library
// is the one it ports: glibc 2.36 on x86-64 ships the fdlibm tanhf/expm1f.
// Later glibc releases replaced tanhf, so elsewhere the comparison skips.
#if defined(__GLIBC__) && defined(__x86_64__) && __GLIBC__ == 2 && __GLIBC_MINOR__ <= 36
constexpr bool kLibmTanhIsFdlibm = true;
#else
constexpr bool kLibmTanhIsFdlibm = false;
#endif

// tanh_inplace runs blocks of this length: not a multiple of 4, so every
// block ends in the scalar tail and the 4-lane groups start at every offset
// of a contiguous pattern range over consecutive blocks.
constexpr std::size_t kOddBlock = 1023;

bool same_tanh(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

struct TanhMismatches {
  std::uint64_t vector = 0;  ///< tanh_inplace differs from tanh(float)
  std::uint64_t libm = 0;    ///< tanh(float) differs from std::tanh
  std::uint32_t first_vector = 0;
  std::uint32_t first_libm = 0;

  void add(const TanhMismatches& other) {
    if (vector == 0 && other.vector != 0) {
      first_vector = other.first_vector;
    }
    if (libm == 0 && other.libm != 0) {
      first_libm = other.first_libm;
    }
    vector += other.vector;
    libm += other.libm;
  }
};

// Runs the float bit patterns in `patterns` through `vector_tanh` (the
// public tanh_inplace unless a test names one instantiation) in kOddBlock
// blocks and compares each result with the scalar port, and the scalar port
// with std::tanh when `with_libm`.
TanhMismatches check_tanh(std::span<const std::uint32_t> patterns, bool with_libm,
                          void (*vector_tanh)(std::span<float>) = tanh_inplace) {
  TanhMismatches out;
  std::vector<float> block(kOddBlock);
  for (std::size_t begin = 0; begin < patterns.size(); begin += kOddBlock) {
    const std::size_t n = std::min(kOddBlock, patterns.size() - begin);
    for (std::size_t i = 0; i < n; ++i) {
      block[i] = std::bit_cast<float>(patterns[begin + i]);
    }
    vector_tanh({block.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t bits = patterns[begin + i];
      const float x = std::bit_cast<float>(bits);
      const float scalar = tanh(x);
      if (!same_tanh(block[i], scalar) && out.vector++ == 0) {
        out.first_vector = bits;
      }
      if (with_libm && !same_tanh(scalar, std::tanh(x)) && out.libm++ == 0) {
        out.first_libm = bits;
      }
    }
  }
  return out;
}

// Every branch threshold of the fdlibm pair, as |x| bit patterns: tanhf's
// 2^-55, 1 and 22; expm1f's 2^-25, 0.5 ln2 and 1.5 ln2 on u = -2|x|; the
// expm1f exponent cases k = 23 and k = 57 on u = 2|x| (u = 22.5 ln2 and
// 56.5 ln2); and inf, whose window runs into the NaNs.
std::vector<std::uint32_t> tanh_branch_windows() {
  const float ln2 = std::numbers::ln2_v<float>;
  const std::uint32_t thresholds[] = {
      0x24000000, 0x32800000, std::bit_cast<std::uint32_t>(0.25F * ln2),
      std::bit_cast<std::uint32_t>(0.75F * ln2), 0x3f800000,
      std::bit_cast<std::uint32_t>(11.25F * ln2), std::bit_cast<std::uint32_t>(28.25F * ln2),
      0x41b00000, 0x7f800000};
  constexpr std::uint32_t kHalfWidth = 1U << 14;
  std::vector<std::uint32_t> patterns;
  for (const std::uint32_t sign : {0U, 0x80000000U}) {
    for (const std::uint32_t t : thresholds) {
      for (std::uint32_t b = t - kHalfWidth; b != t + kHalfWidth; ++b) {
        patterns.push_back(sign | b);
      }
    }
  }
  return patterns;
}

TEST(TanhTest, VectorEqualsScalarPortAroundEveryBranch) {
  std::vector<std::uint32_t> patterns = tanh_branch_windows();
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 4099) {
    patterns.push_back(static_cast<std::uint32_t>(b));  // plus a strided sweep
  }
  patterns.insert(patterns.end(), {0x00000000U, 0x80000000U, 0x00000001U, 0x7f7fffffU,
                                   0x7f800000U, 0xff800000U, 0x7fc00000U, 0xffc00001U});
  const TanhMismatches m = check_tanh(patterns, kLibmTanhIsFdlibm);
  EXPECT_EQ(m.vector, 0U) << "first at bits 0x" << std::hex << m.first_vector;
  EXPECT_EQ(m.libm, 0U) << "first at bits 0x" << std::hex << m.first_libm;
}

TEST(TanhTest, ScalarPortIsOddSaturatesAndKeepsSpecials) {
  EXPECT_EQ(std::bit_cast<std::uint32_t>(tanh(-0.0F)), 0x80000000U);
  EXPECT_EQ(tanh(0.0F), 0.0F);
  EXPECT_EQ(tanh(1e-30F), 1e-30F);
  EXPECT_EQ(tanh(22.0F), 1.0F);
  EXPECT_EQ(tanh(-std::numeric_limits<float>::infinity()), -1.0F);
  EXPECT_TRUE(std::isnan(tanh(std::numeric_limits<float>::quiet_NaN())));
  for (const float x : {0.1F, 0.5F, 0.9F, 1.0F, 3.0F, 9.0F}) {
    EXPECT_EQ(tanh(-x), -tanh(x));
    EXPECT_NEAR(tanh(x), std::tanh(static_cast<double>(x)), 1e-7);
  }
}

// Every float bit pattern through one instantiation of the vector tanh
// (tier2: about 15 s on 4 threads per instantiation). Ranges of patterns run
// on the worker pool; each checks in kOddBlock blocks.
TanhMismatches check_every_float(void (*vector_tanh)(std::span<float>), bool with_libm) {
  constexpr std::uint64_t kSlice = std::uint64_t{1} << 20;
  constexpr std::size_t kSlices = (std::uint64_t{1} << 32) / kSlice;
  std::vector<TanhMismatches> per_slice(kSlices);
  parallel::parallel_for(0, kSlices, [&](std::size_t lo, std::size_t hi) {
    std::vector<std::uint32_t> patterns(kSlice);
    for (std::size_t s = lo; s < hi; ++s) {
      for (std::uint64_t i = 0; i < kSlice; ++i) {
        patterns[i] = static_cast<std::uint32_t>(s * kSlice + i);
      }
      per_slice[s] = check_tanh(patterns, with_libm, vector_tanh);
    }
  });
  TanhMismatches total;
  for (const TanhMismatches& m : per_slice) {
    total.add(m);
  }
  return total;
}

// The portable instantiation, and the scalar port against the C library.
TEST(TanhExhaustiveTest, EveryFloatMatchesScalarPortAndLibm) {
  const TanhMismatches total =
      check_every_float(kernels::portable().tanh_inplace, kLibmTanhIsFdlibm);
  EXPECT_EQ(total.vector, 0U) << "first at bits 0x" << std::hex << total.first_vector;
  EXPECT_EQ(total.libm, 0U) << "first at bits 0x" << std::hex << total.first_libm;
}

TEST(TanhExhaustiveTest, Avx2EveryFloatMatchesScalarPort) {
  const kernels::KernelSet* avx2 = kernels::avx2();
  if (avx2 == nullptr) {
    GTEST_SKIP() << "no AVX2 on this CPU or build: only the portable tanh runs here";
  }
  const TanhMismatches total = check_every_float(avx2->tanh_inplace, false);
  EXPECT_EQ(total.vector, 0U) << "first at bits 0x" << std::hex << total.first_vector;
}

// ------------------------------------------------------- kernel widths ----

// Both compilations of the host kernels against the same references, so the
// AVX2 instantiation equals the portable one bit for bit wherever both equal
// the reference (fixture: kernel_width.hpp).

// The shape set of TiledKernelEqualsKAscendingReferenceBitForBit, through
// one instantiation's column kernel called on two ranges split at a 16-column
// boundary (as the worker pool splits them), then its tanh row by row.
TEST_P(KernelWidthTest, GemmAndTanhEqualKAscendingReferenceBitForBit) {
  const kernels::KernelSet& k = kernel_set();
  for (const std::size_t rows : {1U, 3U, 5U, 65U}) {
    for (const std::size_t cols : {1U, 15U, 17U, 2048U}) {
      for (const std::size_t depth : {1U, 27U, 127U, 129U, 561U}) {
        if (rows * cols * depth > 20'000'000U) {
          continue;  // the naive reference would dominate the suite
        }
        const MatrixF a = sparse_activations(rows, depth, rows * 1000 + depth);
        const MatrixF b = random_matrix(depth, cols, cols * 7 + depth);
        const MatrixF expected = k_ascending_matmul(a, b);
        MatrixF c(rows, cols, 0.0F);
        const std::size_t split = std::min<std::size_t>(16, cols);
        k.matmul_cols(a, b, c, 0, split);
        k.matmul_cols(a, b, c, split, cols);
        ASSERT_EQ(c, expected) << rows << "x" << depth << " @ " << depth << "x" << cols;
        for (std::size_t i = 0; i < rows; ++i) {
          k.tanh_inplace(c.row(i));
          for (std::size_t j = 0; j < cols; ++j) {
            ASSERT_TRUE(same_tanh(c(i, j), tanh(expected(i, j))))
                << rows << "x" << depth << " @ " << depth << "x" << cols << " (" << i << ", "
                << j << ")";
          }
        }
      }
    }
  }
}

TEST_P(KernelWidthTest, TanhEqualsScalarPortAroundEveryBranch) {
  std::vector<std::uint32_t> patterns = tanh_branch_windows();
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 4099) {
    patterns.push_back(static_cast<std::uint32_t>(b));
  }
  const TanhMismatches m = check_tanh(patterns, false, kernel_set().tanh_inplace);
  EXPECT_EQ(m.vector, 0U) << "first at bits 0x" << std::hex << m.first_vector;
}

HDC_INSTANTIATE_KERNEL_WIDTHS(KernelWidthTest);

TEST(KernelDispatchTest, ActiveIsAvx2ExactlyWhenAvailable) {
  const kernels::KernelSet* avx2 = kernels::avx2();
  EXPECT_EQ(&kernels::active(), avx2 != nullptr ? avx2 : &kernels::portable());
}

// ------------------------------------------------------------- reshape ----

TEST(TransposeTest, RoundTrip) {
  const MatrixF a = random_matrix(5, 8, 6);
  const MatrixF t = transpose(a);
  EXPECT_EQ(t.rows(), 8U);
  EXPECT_EQ(t.cols(), 5U);
  EXPECT_EQ(transpose(t), a);
}

TEST(HstackTest, ConcatenatesColumns) {
  MatrixF a{{1, 2}, {3, 4}};
  MatrixF b{{5}, {6}};
  std::vector<MatrixF> blocks{a, b};
  const MatrixF c = hstack(blocks);
  EXPECT_EQ(c, (MatrixF{{1, 2, 5}, {3, 4, 6}}));
}

TEST(HstackTest, RowMismatchThrows) {
  std::vector<MatrixF> blocks{MatrixF(2, 2), MatrixF(3, 2)};
  EXPECT_THROW(hstack(blocks), Error);
}

TEST(VstackTest, ConcatenatesRows) {
  MatrixF a{{1, 2}};
  MatrixF b{{3, 4}, {5, 6}};
  std::vector<MatrixF> blocks{a, b};
  const MatrixF c = vstack(blocks);
  EXPECT_EQ(c, (MatrixF{{1, 2}, {3, 4}, {5, 6}}));
}

TEST(VstackTest, ColumnMismatchThrows) {
  std::vector<MatrixF> blocks{MatrixF(2, 2), MatrixF(2, 3)};
  EXPECT_THROW(vstack(blocks), Error);
}

TEST(MinMaxTest, FindsExtremes) {
  MatrixF m{{3, -7}, {11, 0}};
  const auto [lo, hi] = min_max(m);
  EXPECT_EQ(lo, -7.0F);
  EXPECT_EQ(hi, 11.0F);
}

TEST(MinMaxTest, EmptyThrows) { EXPECT_THROW(min_max(MatrixF()), Error); }

// Property: hstack then slicing back the blocks via matmul is consistent
// with per-block products (the stacking identity behind the bagged model).
TEST(StackPropertyTest, MatmulDistributesOverHstack) {
  const MatrixF x = random_matrix(4, 6, 10);
  const MatrixF b1 = random_matrix(6, 5, 11);
  const MatrixF b2 = random_matrix(6, 3, 12);
  std::vector<MatrixF> blocks{b1, b2};
  const MatrixF stacked = matmul(x, hstack(blocks));
  const MatrixF p1 = matmul(x, b1);
  const MatrixF p2 = matmul(x, b2);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(stacked(i, j), p1(i, j), 1e-4F);
    }
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(stacked(i, 5 + j), p2(i, j), 1e-4F);
    }
  }
}

}  // namespace
}  // namespace hdc::tensor

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
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

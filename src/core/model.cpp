#include "core/model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "tensor/ops.hpp"

namespace hdc::core {

HdModel::HdModel(std::uint32_t num_classes, std::uint32_t dim) : class_hvs_(num_classes, dim) {
  HDC_CHECK(num_classes >= 2, "a classifier needs at least two classes");
  HDC_CHECK(dim > 0, "hypervector width must be positive");
}

HdModel::HdModel(tensor::MatrixF class_hypervectors) : class_hvs_(std::move(class_hypervectors)) {
  HDC_CHECK(class_hvs_.rows() >= 2 && class_hvs_.cols() > 0,
            "class hypervector matrix must be k x d with k >= 2");
}

namespace {

// Classes scored per pass over d: a pass keeps 2 * kClassBlock + 1 double
// accumulators, which fit the 16 vector registers of SSE2 or NEON in pairs.
constexpr std::size_t kClassBlock = 8;

// Scores the N class rows at `rows` (d floats apart) against `e` in one
// pass over d. The query's squared norm, each class's dot product and each
// class's squared norm sum in doubles of their own, in ascending index from
// +0, exactly as tensor::l2_norm and tensor::dot sum them, so every score is
// bit-identical to tensor::cosine (or tensor::dot) of that class.
template <std::size_t N, bool kCosine>
void score_block(const float* e, const float* rows, std::size_t d, float* out) {
  double dot[N] = {};
  double norm[N] = {};
  double query = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    const double x = e[i];
    if constexpr (kCosine) {
      query += x * x;
    }
    for (std::size_t j = 0; j < N; ++j) {
      const double y = rows[j * d + i];
      dot[j] += x * y;
      if constexpr (kCosine) {
        norm[j] += y * y;
      }
    }
  }
  const auto query_norm = static_cast<float>(std::sqrt(query));
  for (std::size_t j = 0; j < N; ++j) {
    if constexpr (kCosine) {
      const auto class_norm = static_cast<float>(std::sqrt(norm[j]));
      out[j] = query_norm == 0.0F || class_norm == 0.0F
                   ? 0.0F
                   : static_cast<float>(dot[j]) / (query_norm * class_norm);
    } else {
      out[j] = static_cast<float>(dot[j]);
    }
  }
}

using ScoreBlockFn = void (*)(const float*, const float*, std::size_t, float*);

// score_block<1..kClassBlock, kCosine>, indexed by block size - 1.
template <bool kCosine, std::size_t... I>
constexpr std::array<ScoreBlockFn, sizeof...(I)> score_blocks(std::index_sequence<I...>) {
  return {&score_block<I + 1, kCosine>...};
}
constexpr auto kCosineBlocks = score_blocks<true>(std::make_index_sequence<kClassBlock>{});
constexpr auto kDotBlocks = score_blocks<false>(std::make_index_sequence<kClassBlock>{});

}  // namespace

std::vector<float> HdModel::scores(std::span<const float> encoded, Similarity metric) const {
  HDC_CHECK(encoded.size() == class_hvs_.cols(), "encoded width disagrees with model dim");
  const std::size_t k = class_hvs_.rows();
  const std::size_t d = class_hvs_.cols();
  const auto& blocks = metric == Similarity::kCosine ? kCosineBlocks : kDotBlocks;
  std::vector<float> out(k);
  for (std::size_t c = 0; c < k; c += kClassBlock) {
    const std::size_t n = std::min(kClassBlock, k - c);
    blocks[n - 1](encoded.data(), class_hvs_.data() + c * d, d, out.data() + c);
  }
  return out;
}

std::uint32_t HdModel::predict(std::span<const float> encoded, Similarity metric) const {
  const auto s = scores(encoded, metric);
  return static_cast<std::uint32_t>(tensor::argmax(s));
}

std::vector<std::uint32_t> HdModel::predict_batch(const tensor::MatrixF& encoded,
                                                  Similarity metric) const {
  std::vector<std::uint32_t> out(encoded.rows());
  // Sample-parallel scoring: each row's prediction is independent and lands
  // in its own slot, so any thread count yields identical output.
  parallel::parallel_for(0, encoded.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      out[i] = predict(encoded.row(i), metric);
    }
  });
  return out;
}

void HdModel::bundle(std::uint32_t class_index, std::span<const float> encoded, float lambda) {
  HDC_CHECK(class_index < class_hvs_.rows(), "bundle class index out of range");
  tensor::axpy(lambda, encoded, class_hvs_.row(class_index));
}

void HdModel::detach(std::uint32_t class_index, std::span<const float> encoded, float lambda) {
  HDC_CHECK(class_index < class_hvs_.rows(), "detach class index out of range");
  tensor::axpy(-lambda, encoded, class_hvs_.row(class_index));
}

}  // namespace hdc::core

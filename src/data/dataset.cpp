#include "data/dataset.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace hdc::data {

void Dataset::validate() const {
  HDC_CHECK(features.rows() == labels.size(), "feature rows and label count disagree");
  HDC_CHECK(num_classes > 0, "dataset declares zero classes");
  for (const std::uint32_t label : labels) {
    HDC_CHECK(label < num_classes, "label out of range for declared class count");
  }
}

Dataset Dataset::select(const std::vector<std::uint32_t>& sample_indices) const {
  Dataset out;
  out.name = name;
  out.num_classes = num_classes;
  out.features = tensor::MatrixF(sample_indices.size(), num_features());
  out.labels.resize(sample_indices.size());
  for (std::size_t i = 0; i < sample_indices.size(); ++i) {
    const std::uint32_t src = sample_indices[i];
    HDC_CHECK(src < num_samples(), "select index out of range");
    std::copy_n(features.data() + static_cast<std::size_t>(src) * num_features(),
                num_features(), out.features.data() + i * num_features());
    out.labels[i] = labels[src];
  }
  return out;
}

void shuffle_dataset(Dataset& dataset, Rng& rng) {
  const std::size_t n = dataset.num_samples();
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    if (j == i - 1) {
      continue;
    }
    std::swap(dataset.labels[i - 1], dataset.labels[j]);
    auto row_a = dataset.features.row(i - 1);
    auto row_b = dataset.features.row(j);
    std::swap_ranges(row_a.begin(), row_a.end(), row_b.begin());
  }
}

TrainTestSplit split_dataset(const Dataset& dataset, double test_fraction, std::uint64_t seed) {
  HDC_CHECK(test_fraction > 0.0 && test_fraction < 1.0, "test fraction must lie in (0,1)");
  Dataset shuffled = dataset;
  Rng rng(seed);
  shuffle_dataset(shuffled, rng);

  const auto n = static_cast<std::uint32_t>(shuffled.num_samples());
  const auto n_test = std::max<std::uint32_t>(1, static_cast<std::uint32_t>(n * test_fraction));
  HDC_CHECK(n_test < n, "split leaves no training samples");

  std::vector<std::uint32_t> test_idx(n_test);
  std::iota(test_idx.begin(), test_idx.end(), 0);
  std::vector<std::uint32_t> train_idx(n - n_test);
  std::iota(train_idx.begin(), train_idx.end(), n_test);

  return {shuffled.select(train_idx), shuffled.select(test_idx)};
}

void MinMaxNormalizer::fit(const Dataset& dataset) {
  HDC_CHECK(dataset.num_samples() > 0, "cannot fit normalizer on empty dataset");
  const std::size_t n = dataset.num_features();
  mins_.assign(n, std::numeric_limits<float>::max());
  maxs_.assign(n, std::numeric_limits<float>::lowest());
  for (std::size_t i = 0; i < dataset.num_samples(); ++i) {
    const auto row = dataset.features.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      mins_[j] = std::min(mins_[j], row[j]);
      maxs_[j] = std::max(maxs_[j], row[j]);
    }
  }
}

void MinMaxNormalizer::apply(Dataset& dataset) const {
  HDC_CHECK(fitted(), "normalizer used before fit");
  HDC_CHECK(dataset.num_features() == mins_.size(), "normalizer feature count mismatch");
  for (std::size_t i = 0; i < dataset.num_samples(); ++i) {
    auto row = dataset.features.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) {
      const float range = maxs_[j] - mins_[j];
      // Constant features map to 0 instead of dividing by zero; out-of-range
      // test values are clamped so encoding inputs stay in [0, 1].
      row[j] = range > 0.0F ? std::clamp((row[j] - mins_[j]) / range, 0.0F, 1.0F) : 0.0F;
    }
  }
}

double accuracy(const std::vector<std::uint32_t>& predictions,
                const std::vector<std::uint32_t>& labels) {
  HDC_CHECK(predictions.size() == labels.size(), "prediction/label count mismatch");
  HDC_CHECK(!labels.empty(), "accuracy over empty set");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    correct += predictions[i] == labels[i] ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

}  // namespace hdc::data

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/matrix.hpp"

namespace hdc::data {

/// In-memory labeled dataset: one sample per row, dense float features.
struct Dataset {
  std::string name;
  tensor::MatrixF features;          ///< num_samples x num_features
  std::vector<std::uint32_t> labels; ///< one label in [0, num_classes) per row
  std::uint32_t num_classes = 0;

  std::size_t num_samples() const noexcept { return features.rows(); }
  std::size_t num_features() const noexcept { return features.cols(); }

  /// Throws hdc::Error if rows/labels disagree or any label is out of range.
  void validate() const;

  /// Row-gather: new dataset with the given sample rows (duplicates allowed,
  /// which is exactly what bootstrap resampling needs).
  Dataset select(const std::vector<std::uint32_t>& sample_indices) const;
};

struct TrainTestSplit {
  Dataset train;
  Dataset test;
};

/// Shuffles deterministically with `seed`, then splits off `test_fraction`.
TrainTestSplit split_dataset(const Dataset& dataset, double test_fraction, std::uint64_t seed);

/// In-place deterministic row shuffle (features and labels together).
void shuffle_dataset(Dataset& dataset, Rng& rng);

/// Per-feature min-max scaler fit on train data, applied to train and test.
/// HDC encoding quality (and int8 calibration) depends on bounded inputs.
class MinMaxNormalizer {
 public:
  void fit(const Dataset& dataset);
  void apply(Dataset& dataset) const;
  bool fitted() const noexcept { return !mins_.empty(); }

  const std::vector<float>& mins() const noexcept { return mins_; }
  const std::vector<float>& maxs() const noexcept { return maxs_; }

 private:
  std::vector<float> mins_;
  std::vector<float> maxs_;
};

/// Fraction of `predictions` matching `labels` (sizes must agree).
double accuracy(const std::vector<std::uint32_t>& predictions,
                const std::vector<std::uint32_t>& labels);

}  // namespace hdc::data

#include "core/encoder.hpp"

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace hdc::core {

Encoder::Encoder(std::uint32_t num_features, std::uint32_t dim, std::uint64_t seed)
    : base_(num_features, dim) {
  HDC_CHECK(num_features > 0, "encoder requires at least one feature");
  HDC_CHECK(dim > 0, "encoder requires a positive hypervector width");
  Rng rng(seed);
  rng.fill_gaussian(base_.data(), base_.size());
}

Encoder::Encoder(tensor::MatrixF base) : base_(std::move(base)) {
  HDC_CHECK(base_.rows() > 0 && base_.cols() > 0, "encoder base matrix must be non-empty");
}

void Encoder::apply_feature_mask(std::span<const std::uint8_t> mask) {
  HDC_CHECK(mask.size() == base_.rows(), "feature mask length mismatch");
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] == 0) {
      auto row = base_.row(i);
      std::fill(row.begin(), row.end(), 0.0F);
    }
  }
}

std::vector<float> Encoder::encode(std::span<const float> sample) const {
  HDC_CHECK(sample.size() == base_.rows(), "sample feature count mismatch");
  std::vector<float> encoded(base_.cols());
  tensor::vecmat(sample, base_, encoded);
  tensor::tanh_inplace(encoded);
  return encoded;
}

tensor::MatrixF Encoder::encode_batch(const tensor::MatrixF& samples) const {
  HDC_CHECK(samples.cols() == base_.rows(), "batch feature count mismatch");
  // Column-parallel with tanh fused per range; each row is bit-identical to
  // `encode` of that sample, for any thread count.
  return tensor::matmul_tanh(samples, base_);
}

}  // namespace hdc::core

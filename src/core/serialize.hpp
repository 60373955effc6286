#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/byte_io.hpp"
#include "common/error.hpp"
#include "core/encoder.hpp"
#include "core/model.hpp"
#include "tensor/matrix.hpp"

namespace hdc::core {

/// The one matrix layout: rows and cols (u64), then the row-major payload
/// (u64 length + floats). Loading rejects an empty dimension and more than
/// 2^31 cells, bounding `cols` by `cap / rows` so the product cannot wrap.
template <typename Matrix, typename Io>
void matrix_fields(Matrix& m, Io& io) {
  std::uint64_t rows = m.rows();
  std::uint64_t cols = m.cols();
  io.pod(rows);
  io.pod(cols);
  if constexpr (Io::kLoading) {
    HDC_CHECK(rows > 0 && cols > 0, "serialized matrix has an empty dimension");
    HDC_CHECK(cols <= (1ULL << 31) / rows, "serialized matrix exceeds sanity bound");
    m = tensor::MatrixF(io.fits(rows, cols * sizeof(float)), cols);
  }
  io.fixed(m.storage());
}

/// Encoder base, then class hypervectors: the HDCM payload, and the core of
/// an online learner's checkpoint. Saving and loading both check the widths.
template <typename Matrix, typename Io>
void classifier_fields(Matrix& base, Matrix& class_hypervectors, Io& io) {
  matrix_fields(base, io);
  matrix_fields(class_hypervectors, io);
  HDC_CHECK(base.cols() == class_hypervectors.cols(), "encoder and model widths disagree");
}

/// A trained classifier bundle: the encoder (base hypervectors) plus the
/// class hypervectors. This is everything needed to rebuild the wide-NN
/// inference model, so it is the unit of persistence.
struct TrainedClassifier {
  Encoder encoder;
  HdModel model;

  std::uint32_t num_features() const { return encoder.num_features(); }
  std::uint32_t dim() const { return encoder.dim(); }
  std::uint32_t num_classes() const { return model.num_classes(); }
};

/// Binary serialization ("HDCM" magic, version, CRC32 trailer). Round-trips
/// bit-exactly; loads reject wrong magic, unsupported versions, truncated
/// buffers and checksum mismatches with hdc::Error.
std::vector<std::uint8_t> serialize_classifier(const TrainedClassifier& classifier);
TrainedClassifier deserialize_classifier(std::span<const std::uint8_t> bytes);

void save_classifier(const TrainedClassifier& classifier, const std::string& path);
TrainedClassifier load_classifier(const std::string& path);

}  // namespace hdc::core

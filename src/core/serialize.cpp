#include "core/serialize.hpp"

#include "common/byte_io.hpp"

namespace hdc::core {
namespace {

constexpr std::uint32_t kMagic = 0x4D434448;  // "HDCM" little-endian
constexpr std::uint32_t kVersion = 1;

}  // namespace

std::vector<std::uint8_t> serialize_classifier(const TrainedClassifier& classifier) {
  return seal(kMagic, kVersion, [&](ByteWriter& writer) {
    classifier_fields(classifier.encoder.base(), classifier.model.class_hypervectors(), writer);
  });
}

TrainedClassifier deserialize_classifier(std::span<const std::uint8_t> bytes) {
  tensor::MatrixF base;
  tensor::MatrixF class_hvs;
  open_sealed(bytes, kMagic, kVersion, "classifier buffer",
              [&](ByteReader& reader) { classifier_fields(base, class_hvs, reader); });
  return TrainedClassifier{Encoder(std::move(base)), HdModel(std::move(class_hvs))};
}

void save_classifier(const TrainedClassifier& classifier, const std::string& path) {
  const auto bytes = serialize_classifier(classifier);
  write_file(path, bytes);
}

TrainedClassifier load_classifier(const std::string& path) {
  const auto bytes = read_file(path);
  return deserialize_classifier(bytes);
}

}  // namespace hdc::core

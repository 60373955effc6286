#include "lite/serialize.hpp"

#include "common/byte_io.hpp"

namespace hdc::lite {
namespace {

constexpr std::uint32_t kMagic = 0x544C4448;  // "HDLT" little-endian
constexpr std::uint32_t kVersion = 1;

// Smallest tensor and op on the wire: empty name and vectors.
constexpr std::uint64_t kMinTensorBytes = 4 + 1 + 8 + 4 + 4 + 8 + 8;
constexpr std::uint64_t kMinOpBytes = 1 + 8 + 8;

template <typename Model, typename Io>
void model_fields(Model& model, Io& io) {
  io.str(model.name);
  io.pod(model.input);
  io.pod(model.output);
  io.seq(model.tensors, std::uint32_t{4096}, kMinTensorBytes, [&](auto& t) {
    io.str(t.name);
    io.enumeration(t.dtype, DType::kInt32);
    io.vec(t.shape, 16);
    io.pod(t.quant.scale);
    io.pod(t.quant.zero_point);
    io.vec(t.channel_scales, 1ULL << 24);
    io.vec(t.data, 1ULL << 31);
  });
  io.seq(model.ops, std::uint32_t{4096}, kMinOpBytes, [&](auto& op) {
    io.enumeration(op.code, OpCode::kArgMax);
    io.vec(op.inputs, 16);
    io.vec(op.outputs, 16);
  });
}

}  // namespace

std::vector<std::uint8_t> serialize_model(const LiteModel& model) {
  model.validate();
  return seal(kMagic, kVersion, [&](ByteWriter& writer) { model_fields(model, writer); });
}

LiteModel deserialize_model(std::span<const std::uint8_t> bytes) {
  LiteModel model;
  open_sealed(bytes, kMagic, kVersion, "model buffer",
              [&](ByteReader& reader) { model_fields(model, reader); });
  model.validate();
  return model;
}

void save_model(const LiteModel& model, const std::string& path) {
  const auto bytes = serialize_model(model);
  write_file(path, bytes);
}

LiteModel load_model(const std::string& path) {
  const auto bytes = read_file(path);
  return deserialize_model(bytes);
}

}  // namespace hdc::lite

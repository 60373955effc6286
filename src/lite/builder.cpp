#include "lite/builder.hpp"

#include <cstring>

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace hdc::lite {

LiteModelBuilder::LiteModelBuilder(std::string name) { model_.name = std::move(name); }

std::uint32_t LiteModelBuilder::add_activation(const std::string& name, DType dtype,
                                               std::uint32_t width, Quantization quant) {
  HDC_CHECK(width > 0, "activation width must be positive");
  LiteTensor t;
  t.name = name;
  t.dtype = dtype;
  t.shape = {width};
  t.quant = quant;
  model_.tensors.push_back(std::move(t));
  return static_cast<std::uint32_t>(model_.tensors.size() - 1);
}

std::uint32_t LiteModelBuilder::add_weights(const std::string& name,
                                            const tensor::MatrixF& weights) {
  LiteTensor t;
  t.name = name;
  t.dtype = DType::kFloat32;
  t.shape = {static_cast<std::uint32_t>(weights.rows()),
             static_cast<std::uint32_t>(weights.cols())};
  t.data.resize(weights.size() * sizeof(float));
  std::memcpy(t.data.data(), weights.data(), t.data.size());
  model_.tensors.push_back(std::move(t));
  return static_cast<std::uint32_t>(model_.tensors.size() - 1);
}

std::uint32_t LiteModelBuilder::add_weights_i8(const std::string& name,
                                               const tensor::MatrixI8& weights,
                                               Quantization quant) {
  HDC_CHECK(quant.enabled(), "int8 weights need quantization parameters");
  LiteTensor t;
  t.name = name;
  t.dtype = DType::kInt8;
  t.shape = {static_cast<std::uint32_t>(weights.rows()),
             static_cast<std::uint32_t>(weights.cols())};
  t.quant = quant;
  t.data.resize(weights.size());
  std::memcpy(t.data.data(), weights.data(), t.data.size());
  model_.tensors.push_back(std::move(t));
  return static_cast<std::uint32_t>(model_.tensors.size() - 1);
}

std::uint32_t LiteModelBuilder::add_weights_i8_per_channel(
    const std::string& name, const tensor::MatrixI8& weights,
    std::vector<float> channel_scales) {
  HDC_CHECK(channel_scales.size() == weights.cols(),
            "per-channel scale count must match output channels");
  LiteTensor t;
  t.name = name;
  t.dtype = DType::kInt8;
  t.shape = {static_cast<std::uint32_t>(weights.rows()),
             static_cast<std::uint32_t>(weights.cols())};
  t.channel_scales = std::move(channel_scales);
  t.data.resize(weights.size());
  std::memcpy(t.data.data(), weights.data(), t.data.size());
  model_.tensors.push_back(std::move(t));
  return static_cast<std::uint32_t>(model_.tensors.size() - 1);
}

void LiteModelBuilder::add_op(OpCode code, std::vector<std::uint32_t> inputs,
                              std::vector<std::uint32_t> outputs) {
  model_.ops.push_back(LiteOp{code, std::move(inputs), std::move(outputs)});
}

void LiteModelBuilder::set_input(std::uint32_t tensor_index) { model_.input = tensor_index; }
void LiteModelBuilder::set_output(std::uint32_t tensor_index) { model_.output = tensor_index; }

LiteModel LiteModelBuilder::finish() {
  model_.validate();
  return std::move(model_);
}

LiteModelBuilder::LiteModelBuilder(std::string name, std::uint32_t input_width)
    : LiteModelBuilder(std::move(name)) {
  const std::uint32_t input = add_activation("input", DType::kFloat32, input_width);
  set_input(input);
  set_output(input);
}

std::uint32_t LiteModelBuilder::chain_end() const {
  HDC_CHECK(!model_.tensors.empty(), "a chain starts at an input width");
  HDC_CHECK(model_.ops.empty() || model_.ops.back().code != OpCode::kArgMax,
            "no layer may follow ArgMax");
  return model_.output;
}

LiteModelBuilder& LiteModelBuilder::chain(OpCode code, std::vector<std::uint32_t> inputs,
                                          const std::string& out, DType dtype,
                                          std::uint32_t width) {
  const std::uint32_t result = add_activation(out, dtype, width);
  add_op(code, std::move(inputs), {result});
  set_output(result);
  return *this;
}

LiteModelBuilder& LiteModelBuilder::dense(const tensor::MatrixF& weights) {
  const std::uint32_t input = chain_end();
  HDC_CHECK(weights.rows() == model_.tensor(input).shape[0], "dense layer input width mismatch");
  HDC_CHECK(weights.cols() > 0, "dense layer needs at least one output");
  const std::string prefix = "dense" + std::to_string(dense_layers_++);
  const std::uint32_t constant = add_weights(prefix + "/weights", weights);
  return chain(OpCode::kFullyConnected, {input, constant}, prefix + "/out", DType::kFloat32,
               static_cast<std::uint32_t>(weights.cols()));
}

LiteModelBuilder& LiteModelBuilder::tanh() {
  const std::uint32_t input = chain_end();
  return chain(OpCode::kTanh, {input}, "tanh" + std::to_string(dense_layers_) + "/out",
               DType::kFloat32, model_.tensor(input).shape[0]);
}

LiteModelBuilder& LiteModelBuilder::argmax() {
  return chain(OpCode::kArgMax, {chain_end()}, "class", DType::kInt32, 1);
}

LiteModel build_encode_model(const core::Encoder& encoder, const std::string& name) {
  return LiteModelBuilder(name, encoder.num_features()).dense(encoder.base()).tanh().finish();
}

LiteModel build_inference_model(const core::TrainedClassifier& classifier,
                                const std::string& name) {
  HDC_CHECK(classifier.encoder.dim() == classifier.model.dim(),
            "encoder and model widths disagree");
  tensor::MatrixF class_hvs = classifier.model.class_hypervectors();
  for (std::size_t c = 0; c < class_hvs.rows(); ++c) {
    auto row = class_hvs.row(c);
    const float norm = tensor::l2_norm(row);
    if (norm > 0.0F) {
      for (float& w : row) {
        w /= norm;
      }
    }
  }
  return LiteModelBuilder(name, classifier.encoder.num_features())
      .dense(classifier.encoder.base())
      .tanh()
      .dense(tensor::transpose(class_hvs))
      .argmax()
      .finish();
}

}  // namespace hdc::lite

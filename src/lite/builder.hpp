#pragma once

#include "core/serialize.hpp"
#include "lite/model.hpp"

namespace hdc::lite {

/// Builders implementing the paper's central trick (Fig. 2): HDC as a
/// three-layer hyper-wide network, lowered straight into a float HDLite model
/// (the analog of exporting a Keras model to a .tflite flatbuffer before
/// quantization). Each weight matrix is written into the model once.

/// FULLY_CONNECTED(n->d) + TANH: encoding only. The encode half accelerates
/// training-set encoding on the TPU.
LiteModel build_encode_model(const core::Encoder& encoder,
                             const std::string& name = "hdc_encode");

/// FULLY_CONNECTED(n->d) + TANH + FULLY_CONNECTED(d->k) + ARG_MAX: the
/// deployable inference model. The second layer carries the transposed
/// class-hypervector matrix, each class scaled to unit norm: the dot-product
/// layer then ranks classes exactly like the cosine similarity used during
/// training (the query norm is common to all classes and cannot change the
/// argmax). This is how the paper's dot-product "approximation" of cosine
/// stays lossless.
LiteModel build_inference_model(const core::TrainedClassifier& classifier,
                                const std::string& name = "hdc_inference");

/// Builder for hand-assembled models (the wide-NN builders above, tests,
/// custom pipelines).
class LiteModelBuilder {
 public:
  explicit LiteModelBuilder(std::string name);

  /// Starts a float chain at an `input_width`-wide tensor named `input`, which
  /// becomes the model input and output. The chain steps below each append
  /// one op to the end of the chain and make its result the model output.
  LiteModelBuilder(std::string name, std::uint32_t input_width);

  /// FULLY_CONNECTED with `weights` (chain width x out), as `denseN/weights`
  /// and `denseN/out`, N counting dense layers from 0.
  LiteModelBuilder& dense(const tensor::MatrixF& weights);
  /// TANH, as `tanhN/out`, N the number of dense layers before it.
  LiteModelBuilder& tanh();
  /// ARG_MAX into the int32 `class` tensor; it ends the chain.
  LiteModelBuilder& argmax();

  /// Adds an activation tensor and returns its index.
  std::uint32_t add_activation(const std::string& name, DType dtype, std::uint32_t width,
                               Quantization quant = {});

  /// Adds a constant weight tensor (row-major in x out floats).
  std::uint32_t add_weights(const std::string& name, const tensor::MatrixF& weights);

  /// Adds a constant int8 weight tensor with its quantization.
  std::uint32_t add_weights_i8(const std::string& name, const tensor::MatrixI8& weights,
                               Quantization quant);

  /// Adds a constant int8 weight tensor with per-output-channel scales.
  std::uint32_t add_weights_i8_per_channel(const std::string& name,
                                           const tensor::MatrixI8& weights,
                                           std::vector<float> channel_scales);

  void add_op(OpCode code, std::vector<std::uint32_t> inputs,
              std::vector<std::uint32_t> outputs);

  void set_input(std::uint32_t tensor_index);
  void set_output(std::uint32_t tensor_index);

  /// Validates and returns the finished model.
  LiteModel finish();

 private:
  /// The tensor at the chain's end; throws once ARG_MAX has ended the chain.
  std::uint32_t chain_end() const;
  /// Appends `code` over `inputs`, writing a new `width`-wide tensor `out`
  /// that becomes the chain's end.
  LiteModelBuilder& chain(OpCode code, std::vector<std::uint32_t> inputs,
                          const std::string& out, DType dtype, std::uint32_t width);

  LiteModel model_;
  std::uint32_t dense_layers_ = 0;
};

}  // namespace hdc::lite

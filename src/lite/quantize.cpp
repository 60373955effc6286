#include "lite/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "lite/builder.hpp"

namespace hdc::lite {

Quantization choose_activation_quant(float min, float max) {
  HDC_CHECK(min <= max, "calibration range reversed");
  // Widen to include zero so zero is exactly representable (TFLite rule).
  min = std::min(min, 0.0F);
  max = std::max(max, 0.0F);
  if (min == max) {
    // Degenerate all-zero tensor: any positive scale works.
    return Quantization{1.0F / 128.0F, 0};
  }
  const float scale = (max - min) / 255.0F;
  const float zp_real = -128.0F - min / scale;
  const auto zero_point =
      static_cast<std::int32_t>(std::clamp(std::round(zp_real), -128.0F, 127.0F));
  return Quantization{scale, zero_point};
}

QuantizedWeights quantize_weights_symmetric(const tensor::MatrixF& weights) {
  HDC_CHECK(!weights.empty(), "cannot quantize empty weights");
  float max_abs = 0.0F;
  for (const float w : weights.storage()) {
    max_abs = std::max(max_abs, std::fabs(w));
  }
  const float scale = max_abs > 0.0F ? max_abs / 127.0F : 1.0F / 127.0F;

  QuantizedWeights out;
  out.quant = Quantization{scale, 0};
  out.values = tensor::MatrixI8(weights.rows(), weights.cols());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const float q = std::round(weights.storage()[i] / scale);
    out.values.storage()[i] = static_cast<std::int8_t>(std::clamp(q, -127.0F, 127.0F));
  }
  return out;
}

QuantizedWeightsPerChannel quantize_weights_per_channel(const tensor::MatrixF& weights) {
  HDC_CHECK(!weights.empty(), "cannot quantize empty weights");
  QuantizedWeightsPerChannel out;
  out.values = tensor::MatrixI8(weights.rows(), weights.cols());
  out.channel_scales.resize(weights.cols());

  for (std::size_t j = 0; j < weights.cols(); ++j) {
    float max_abs = 0.0F;
    for (std::size_t i = 0; i < weights.rows(); ++i) {
      max_abs = std::max(max_abs, std::fabs(weights(i, j)));
    }
    const float scale = max_abs > 0.0F ? max_abs / 127.0F : 1.0F / 127.0F;
    out.channel_scales[j] = scale;
    for (std::size_t i = 0; i < weights.rows(); ++i) {
      const float q = std::round(weights(i, j) / scale);
      out.values(i, j) = static_cast<std::int8_t>(std::clamp(q, -127.0F, 127.0F));
    }
  }
  return out;
}

Quantization tanh_output_quant() { return Quantization{1.0F / 128.0F, 0}; }

LiteModel quantize_model(const LiteModel& float_model,
                         const tensor::MatrixF& representative_inputs,
                         const QuantizeOptions& options) {
  float_model.validate();
  HDC_CHECK(!float_model.is_quantized(), "model is already quantized");
  HDC_CHECK(representative_inputs.rows() > 0, "representative dataset is empty");

  // The calibrator holds a copy of the float weights; it goes out of scope
  // before the weights are quantized below.
  const std::vector<TensorRange> ranges =
      LiteInterpreter(float_model).calibrate(representative_inputs);

  auto activation_quant = [&](std::uint32_t tensor_index) {
    const TensorRange& r = ranges[tensor_index];
    HDC_CHECK(r.seen, "tensor '" + float_model.tensor(tensor_index).name +
                          "' never calibrated — representative data too small?");
    return choose_activation_quant(r.min, r.max);
  };

  LiteModelBuilder builder(float_model.name + "_int8");

  // Float input followed by an explicit QUANTIZE, like a converted TFLite
  // model with float32 inference input type.
  const std::uint32_t float_input = builder.add_activation(
      "input", DType::kFloat32, float_model.tensor(float_model.input).shape[0]);
  builder.set_input(float_input);

  const Quantization input_quant = activation_quant(float_model.input);
  std::uint32_t current = builder.add_activation(
      "input_q", DType::kInt8, float_model.tensor(float_model.input).shape[0], input_quant);
  builder.add_op(OpCode::kQuantize, {float_input}, {current});

  // Map of float-model tensor index -> quantized activation index, built as
  // the single-chain op list is walked.
  std::uint32_t dense_count = 0;
  for (const auto& op : float_model.ops) {
    switch (op.code) {
      case OpCode::kFullyConnected: {
        const auto& weights_tensor = float_model.tensor(op.inputs[1]);
        tensor::MatrixF w(weights_tensor.shape[0], weights_tensor.shape[1]);
        std::memcpy(w.data(), weights_tensor.typed_data<float>(),
                    w.size() * sizeof(float));

        const std::string suffix = std::to_string(dense_count++);
        std::uint32_t weights = 0;
        if (options.per_channel_weights) {
          QuantizedWeightsPerChannel qw = quantize_weights_per_channel(w);
          weights = builder.add_weights_i8_per_channel(
              "dense" + suffix + "/weights_q", qw.values, std::move(qw.channel_scales));
        } else {
          const QuantizedWeights qw = quantize_weights_symmetric(w);
          weights =
              builder.add_weights_i8("dense" + suffix + "/weights_q", qw.values, qw.quant);
        }

        // Is the float output consumed by a TANH next? Then quantize it with
        // the calibrated pre-activation range; tanh output gets 1/128.
        const Quantization out_quant = activation_quant(op.outputs[0]);
        const std::uint32_t out =
            builder.add_activation("dense" + suffix + "/out_q", DType::kInt8,
                                   weights_tensor.shape[1], out_quant);
        builder.add_op(OpCode::kFullyConnected, {current, weights}, {out});
        current = out;
        break;
      }
      case OpCode::kTanh: {
        const auto width = float_model.tensor(op.outputs[0]).shape[0];
        const std::uint32_t out = builder.add_activation(
            "tanh" + std::to_string(dense_count) + "/out_q", DType::kInt8, width,
            tanh_output_quant());
        builder.add_op(OpCode::kTanh, {current}, {out});
        current = out;
        break;
      }
      case OpCode::kArgMax: {
        const std::uint32_t out = builder.add_activation("class", DType::kInt32, 1);
        builder.add_op(OpCode::kArgMax, {current}, {out});
        current = out;
        break;
      }
      case OpCode::kQuantize:
      case OpCode::kDequantize:
        throw Error("float model must not contain quantization ops");
    }
  }

  const bool ends_argmax =
      !float_model.ops.empty() && float_model.ops.back().code == OpCode::kArgMax;
  if (options.dequantize_output && !ends_argmax) {
    const auto& quantized_out_shape = float_model.tensor(float_model.output).shape;
    const std::uint32_t out =
        builder.add_activation("output_f", DType::kFloat32, quantized_out_shape[0]);
    builder.add_op(OpCode::kDequantize, {current}, {out});
    current = out;
  }

  builder.set_output(current);
  return builder.finish();
}

}  // namespace hdc::lite

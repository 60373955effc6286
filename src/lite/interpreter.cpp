#include "lite/interpreter.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace hdc::lite {

void TensorRange::update(float value) {
  if (!seen) {
    min = max = value;
    seen = true;
    return;
  }
  min = std::min(min, value);
  max = std::max(max, value);
}

namespace {

// Rows per block. A block pushes its rows through each op together, so one
// pass over a weight matrix serves all of them. run() holds a block of
// activations per worker lane, which keeps its blocks small; calibrate()
// runs serially and takes larger ones, which amortize the float kernel's
// per-call packing of the weights.
constexpr std::size_t kRunRows = 16;
constexpr std::size_t kCalibrateRows = 64;

std::array<std::int8_t, 256> build_tanh_lut(const Quantization& in, const Quantization& out) {
  std::array<std::int8_t, 256> lut{};
  for (int q = -128; q <= 127; ++q) {
    const float real = in.dequantize(q);
    const float t = tensor::tanh(real);
    lut[static_cast<std::size_t>(q + 128)] = out.quantize(t);
  }
  return lut;
}

}  // namespace

/// Per-block activation storage, one slot per tensor index (rows x width).
struct LiteInterpreter::Activations {
  std::vector<tensor::MatrixF> f32;
  std::vector<tensor::MatrixI8> i8;
  std::vector<std::vector<std::int32_t>> classes;  ///< ARG_MAX output per row

  explicit Activations(std::size_t tensor_count)
      : f32(tensor_count), i8(tensor_count), classes(tensor_count) {}
};

LiteInterpreter::LiteInterpreter(const LiteModel& model) {
  model.validate();
  num_tensors_ = model.tensors.size();
  input_ = model.input;
  output_ = model.output;
  const LiteTensor& input_tensor = model.tensor(model.input);
  input_width_ = input_tensor.num_elements();
  input_dtype_ = input_tensor.dtype;
  ends_argmax_ = !model.ops.empty() && model.ops.back().code == OpCode::kArgMax;
  // An ARG_MAX-terminated model returns the row ARG_MAX read (the class
  // scores) beside the class it picked.
  values_ = ends_argmax_ ? model.ops.back().inputs[0] : model.output;
  const LiteTensor& values_tensor = model.tensor(values_);
  values_dtype_ = values_tensor.dtype;
  values_quant_ = values_tensor.quant;
  values_width_ = values_tensor.num_elements();
  quantized_ = model.is_quantized();

  steps_.reserve(model.ops.size());
  for (const LiteOp& op : model.ops) {
    const LiteTensor& in = model.tensor(op.inputs[0]);
    const LiteTensor& out = model.tensor(op.outputs[0]);
    Step step;
    step.code = op.code;
    step.input = op.inputs[0];
    step.output = op.outputs[0];
    step.in_dtype = in.dtype;
    step.in_quant = in.quant;
    step.out_quant = out.quant;
    step.width = out.num_elements();
    if (op.code == OpCode::kFullyConnected) {
      const LiteTensor& weights = model.tensor(op.inputs[1]);
      const std::size_t in_width = weights.shape[0];
      const std::size_t out_width = weights.shape[1];
      if (in.dtype == DType::kFloat32) {
        const float* w = weights.typed_data<float>();
        step.weights_f32 =
            tensor::MatrixF(in_width, out_width, std::vector<float>(w, w + in_width * out_width));
      } else {
        HDC_CHECK(in.quant.zero_point >= -128 && in.quant.zero_point <= 127,
                  "int8 FULLY_CONNECTED input zero point out of range");
        HDC_CHECK(out.quant.zero_point >= -128 && out.quant.zero_point <= 127,
                  "int8 FULLY_CONNECTED output zero point out of range");
        const std::int8_t* w = weights.typed_data<std::int8_t>();
        step.weights_i8 = tensor::pack_weights_i8({w, in_width * out_width}, in_width, out_width);
        // Per-channel weights carry one scale per output column; per-tensor
        // weights share quant.scale across all of them.
        step.weight_scales.resize(out_width);
        for (std::size_t j = 0; j < out_width; ++j) {
          step.weight_scales[j] = weights.per_channel()
                                      ? static_cast<double>(weights.channel_scales[j])
                                      : static_cast<double>(weights.quant.scale);
        }
      }
    } else if (op.code == OpCode::kTanh && in.dtype == DType::kInt8) {
      step.lut = build_tanh_lut(in.quant, out.quant);
    }
    steps_.push_back(std::move(step));
  }
}

void LiteInterpreter::run_block(const tensor::MatrixF& inputs, std::size_t begin,
                                std::size_t end, Activations& act,
                                std::vector<TensorRange>* ranges) const {
  const std::size_t rows = end - begin;
  tensor::MatrixF& input = act.f32[input_];
  input = tensor::MatrixF(rows, input_width_);
  std::copy_n(inputs.data() + begin * input_width_, rows * input_width_, input.data());

  // Range updates run tensor by tensor in row-major order, the order a
  // row-by-row pass would visit each tensor's values in.
  auto record = [&](std::uint32_t tensor_index) {
    if (ranges == nullptr) {
      return;
    }
    for (const float v : act.f32[tensor_index].storage()) {
      (*ranges)[tensor_index].update(v);
    }
  };
  record(input_);

  for (const Step& step : steps_) {
    switch (step.code) {
      case OpCode::kFullyConnected: {
        if (step.in_dtype == DType::kFloat32) {
          act.f32[step.output] = tensor::matmul(act.f32[step.input], step.weights_f32);
          record(step.output);
        } else {
          // int8 path: exact int32 accumulation over zero-point-corrected
          // inputs, then requantization to the output tensor's scale.
          const tensor::MatrixI32 acc = tensor::matmul_i8_packed(
              act.i8[step.input], step.in_quant.zero_point, step.weights_i8);
          tensor::MatrixI8& y = act.i8[step.output];
          y = tensor::MatrixI8(rows, step.width);
          const double in_over_out = static_cast<double>(step.in_quant.scale) /
                                     static_cast<double>(step.out_quant.scale);
          tensor::requantize_i8(acc, in_over_out, step.weight_scales,
                                step.out_quant.zero_point, y);
        }
        break;
      }
      case OpCode::kTanh: {
        if (step.in_dtype == DType::kFloat32) {
          tensor::MatrixF& y = act.f32[step.output];
          y = act.f32[step.input];
          tensor::tanh_inplace(y.storage());
          record(step.output);
        } else {
          const tensor::MatrixI8& x = act.i8[step.input];
          tensor::MatrixI8& y = act.i8[step.output];
          y = tensor::MatrixI8(x.rows(), x.cols());
          for (std::size_t i = 0; i < x.size(); ++i) {
            y.data()[i] = step.lut[static_cast<std::size_t>(static_cast<int>(x.data()[i]) + 128)];
          }
        }
        break;
      }
      case OpCode::kQuantize: {
        const tensor::MatrixF& x = act.f32[step.input];
        tensor::MatrixI8& y = act.i8[step.output];
        y = tensor::MatrixI8(x.rows(), x.cols());
        for (std::size_t i = 0; i < x.size(); ++i) {
          y.data()[i] = step.out_quant.quantize(x.data()[i]);
        }
        break;
      }
      case OpCode::kDequantize: {
        const tensor::MatrixI8& x = act.i8[step.input];
        tensor::MatrixF& y = act.f32[step.output];
        y = tensor::MatrixF(x.rows(), x.cols());
        for (std::size_t i = 0; i < x.size(); ++i) {
          y.data()[i] = step.in_quant.dequantize(x.data()[i]);
        }
        record(step.output);
        break;
      }
      case OpCode::kArgMax: {
        std::vector<std::int32_t>& classes = act.classes[step.output];
        classes.resize(rows);
        for (std::size_t r = 0; r < rows; ++r) {
          std::size_t best = 0;
          if (step.in_dtype == DType::kFloat32) {
            best = tensor::argmax(act.f32[step.input].row(r));
          } else {
            // argmax over raw int8 values equals argmax over real values
            // since the whole tensor shares one (scale, zero_point).
            const auto x = act.i8[step.input].row(r);
            best = static_cast<std::size_t>(std::max_element(x.begin(), x.end()) - x.begin());
          }
          classes[r] = static_cast<std::int32_t>(best);
        }
        break;
      }
    }
  }
}

InferenceResult LiteInterpreter::run(const tensor::MatrixF& inputs,
                                     obs::TraceContext* trace) const {
  if (trace != nullptr) {
    // Every op executes once per row; counting outside the op loop keeps
    // the kernels untouched.
    trace->instant(obs::Track::kHost, "lite.run",
                   {{"samples", static_cast<std::int64_t>(inputs.rows())},
                    {"ops", static_cast<std::int64_t>(steps_.size())}});
    if (obs::MetricsRegistry* metrics = trace->metrics()) {
      metrics->counter("lite.runs").add(1);
      metrics->counter("lite.samples").add(inputs.rows());
      for (const Step& step : steps_) {
        metrics->counter(std::string("lite.op.") + opcode_name(step.code))
            .add(inputs.rows());
      }
    }
  }
  if (inputs.rows() > 0) {
    HDC_CHECK(inputs.cols() == input_width_, "input width mismatch");
    HDC_CHECK(input_dtype_ == DType::kFloat32, "model input must be float32");
  }

  InferenceResult result;
  result.has_classes = ends_argmax_;
  result.values = tensor::MatrixF(inputs.rows(), values_width_);
  if (ends_argmax_) {
    result.classes.resize(inputs.rows());
  }

  // Row-parallel execution: rows are independent, each chunk owns its
  // activation blocks, and every output row is written by exactly one
  // chunk — results match the serial loop bit for bit.
  parallel::parallel_for(0, inputs.rows(), [&](std::size_t lo, std::size_t hi) {
    Activations act(num_tensors_);
    for (std::size_t begin = lo; begin < hi; begin += kRunRows) {
      const std::size_t end = std::min(begin + kRunRows, hi);
      run_block(inputs, begin, end, act, nullptr);
      for (std::size_t r = 0; r < end - begin; ++r) {
        if (ends_argmax_) {
          result.classes[begin + r] = act.classes[output_][r];
        }
        auto out_row = result.values.row(begin + r);
        if (values_dtype_ == DType::kFloat32) {
          const auto y = act.f32[values_].row(r);
          std::copy(y.begin(), y.end(), out_row.begin());
        } else {
          const auto y = act.i8[values_].row(r);
          for (std::size_t j = 0; j < y.size(); ++j) {
            out_row[j] = values_quant_.dequantize(y[j]);
          }
        }
      }
    }
  });
  return result;
}

std::vector<TensorRange> LiteInterpreter::calibrate(const tensor::MatrixF& inputs) const {
  HDC_CHECK(!quantized_, "calibration runs on the float model");
  if (inputs.rows() > 0) {
    HDC_CHECK(inputs.cols() == input_width_, "input width mismatch");
    HDC_CHECK(input_dtype_ == DType::kFloat32, "model input must be float32");
  }
  std::vector<TensorRange> ranges(num_tensors_);
  Activations act(num_tensors_);
  // Blocks run in row order, so each tensor's range sees its values in the
  // order a row-by-row pass would; the float kernels are exact per row, so
  // the recorded ranges equal the per-row ones.
  for (std::size_t begin = 0; begin < inputs.rows(); begin += kCalibrateRows) {
    run_block(inputs, begin, std::min(begin + kCalibrateRows, inputs.rows()), act, &ranges);
  }
  return ranges;
}

}  // namespace hdc::lite

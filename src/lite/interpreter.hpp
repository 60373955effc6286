#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "lite/model.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"

namespace hdc::obs {
class TraceContext;
}  // namespace hdc::obs

namespace hdc::lite {

/// Observed value range of one tensor during calibration.
struct TensorRange {
  float min = 0.0F;
  float max = 0.0F;
  bool seen = false;

  void update(float value);
};

/// Result of running a model over a batch. `values` holds the final tensor
/// per row (dequantized to float when it is int8). A model that ends in
/// ARG_MAX fills `classes` with the picked class per row, and `values` with
/// the k-wide row ARG_MAX read: the class scores, dequantized with that
/// tensor's quantization for int8. `classes[r]` is the first maximum of
/// `values.row(r)`.
struct InferenceResult {
  tensor::MatrixF values;
  std::vector<std::int32_t> classes;
  bool has_classes = false;
};

/// Reference interpreter for HDLite models — the stand-in for the TFLite
/// runtime on the host CPU. Executes float and int8 kernels with
/// TFLite-compatible semantics (int32 accumulation, re-quantization through
/// a real-valued multiplier, 256-entry tanh LUT for int8).
///
/// Construction prepares the model once: it validates it, packs the int8
/// FULLY_CONNECTED weights into the kernel layout (still int8) and builds
/// the tanh LUTs. The interpreter keeps no copy of the model, so one
/// prepared instance can be shared by every run of a compiled model. Runs
/// push a block of rows through each op at a time, so each pass over a
/// weight matrix serves several rows; the results equal a row-by-row
/// execution bit for bit.
class LiteInterpreter {
 public:
  explicit LiteInterpreter(const LiteModel& model);

  /// When `trace` is non-null, the op loop publishes per-opcode execution
  /// counters (`lite.op.<OPCODE>`) and records one `lite.run` instant at the
  /// trace cursor. The math is unaffected; a null trace is a no-op.
  InferenceResult run(const tensor::MatrixF& inputs,
                      obs::TraceContext* trace = nullptr) const;

  /// Runs a float model over representative inputs and records per-tensor
  /// value ranges; the quantizer consumes these. Throws if the model is
  /// already quantized.
  std::vector<TensorRange> calibrate(const tensor::MatrixF& inputs) const;

 private:
  /// One op with everything its kernel needs, resolved at preparation.
  struct Step {
    OpCode code = OpCode::kFullyConnected;
    std::uint32_t input = 0;   ///< activation tensor index
    std::uint32_t output = 0;  ///< activation tensor index
    DType in_dtype = DType::kFloat32;
    Quantization in_quant;
    Quantization out_quant;
    std::size_t width = 0;  ///< output elements per row
    tensor::MatrixF weights_f32;         ///< float FULLY_CONNECTED
    tensor::PackedWeightsI8 weights_i8;  ///< int8 FULLY_CONNECTED
    std::vector<double> weight_scales;   ///< int8 FULLY_CONNECTED, per column
    std::array<std::int8_t, 256> lut{};  ///< int8 TANH
  };
  struct Activations;

  /// Executes rows [begin, end) of `inputs` through every op.
  void run_block(const tensor::MatrixF& inputs, std::size_t begin, std::size_t end,
                 Activations& act, std::vector<TensorRange>* ranges) const;

  std::vector<Step> steps_;
  std::size_t num_tensors_ = 0;
  std::uint32_t input_ = 0;
  std::uint32_t output_ = 0;
  std::size_t input_width_ = 0;
  DType input_dtype_ = DType::kFloat32;
  std::uint32_t values_ = 0;  ///< tensor `values` returns: the output, or ARG_MAX's input
  DType values_dtype_ = DType::kFloat32;
  Quantization values_quant_;
  std::size_t values_width_ = 0;
  bool ends_argmax_ = false;
  bool quantized_ = false;
};

}  // namespace hdc::lite

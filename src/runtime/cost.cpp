#include "runtime/cost.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "lite/builder.hpp"
#include "lite/quantize.hpp"
#include "tpu/compiler.hpp"

namespace hdc::runtime {

void WorkloadShape::validate() const {
  HDC_CHECK(train_samples > 0, "workload needs training samples");
  HDC_CHECK(features > 0 && classes >= 2 && dim > 0, "workload shape incomplete");
  HDC_CHECK(epochs > 0, "workload needs at least one iteration");
  HDC_CHECK(update_fraction >= 0.0 && update_fraction <= 1.0,
            "update fraction must lie in [0,1]");
}

void BaggingShape::validate() const {
  HDC_CHECK(num_models > 0 && sub_dim > 0 && epochs > 0, "bagging shape incomplete");
  HDC_CHECK(alpha > 0.0 && alpha <= 1.0, "alpha must lie in (0,1]");
  HDC_CHECK(beta > 0.0 && beta <= 1.0, "beta must lie in (0,1]");
}

lite::LiteModel make_int8_chain_model(const std::string& name, std::uint32_t features,
                                      std::uint32_t dim,
                                      std::optional<std::uint32_t> classes) {
  HDC_CHECK(features > 0 && dim > 0, "chain model shape incomplete");
  const lite::Quantization nominal{1.0F / 128.0F, 0};

  lite::LiteModelBuilder builder(name);
  const std::uint32_t input = builder.add_activation("input", lite::DType::kFloat32, features);
  builder.set_input(input);

  const std::uint32_t input_q =
      builder.add_activation("input_q", lite::DType::kInt8, features, nominal);
  builder.add_op(lite::OpCode::kQuantize, {input}, {input_q});

  const std::uint32_t base_w = builder.add_weights_i8(
      "base/weights_q", tensor::MatrixI8(features, dim), nominal);
  const std::uint32_t hidden =
      builder.add_activation("hidden_q", lite::DType::kInt8, dim, nominal);
  builder.add_op(lite::OpCode::kFullyConnected, {input_q, base_w}, {hidden});

  std::uint32_t encoded =
      builder.add_activation("encoded_q", lite::DType::kInt8, dim, nominal);
  builder.add_op(lite::OpCode::kTanh, {hidden}, {encoded});

  if (classes.has_value()) {
    const std::uint32_t class_w = builder.add_weights_i8(
        "class/weights_q", tensor::MatrixI8(dim, *classes), nominal);
    const std::uint32_t logits =
        builder.add_activation("logits_q", lite::DType::kInt8, *classes, nominal);
    builder.add_op(lite::OpCode::kFullyConnected, {encoded, class_w}, {logits});
    const std::uint32_t cls = builder.add_activation("class", lite::DType::kInt32, 1);
    builder.add_op(lite::OpCode::kArgMax, {logits}, {cls});
    encoded = cls;
  }
  builder.set_output(encoded);
  return builder.finish();
}

CostModel::CostModel(platform::PlatformProfile host, tpu::SystolicConfig systolic,
                     tpu::UsbLinkConfig link, std::uint64_t sram_bytes)
    : host_(std::move(host)), systolic_(systolic), link_(link), sram_bytes_(sram_bytes) {
  host_.validate();
  systolic_.validate();
  link_.validate();
}

SimDuration CostModel::encode_cpu(std::uint64_t samples, std::uint32_t features,
                                  std::uint32_t dim,
                                  const platform::PlatformProfile& cpu) const {
  const double per_sample = static_cast<double>(features) * dim / cpu.mac_rate +
                            static_cast<double>(dim) / cpu.element_rate;  // tanh
  return SimDuration::seconds(per_sample * static_cast<double>(samples));
}

SimDuration CostModel::encode_tpu(std::uint64_t samples, std::uint32_t features,
                                  std::uint32_t dim) const {
  tpu::EdgeTpuDevice device(systolic_, link_, sram_bytes_);
  const tpu::EdgeTpuCompiler compiler(systolic_, sram_bytes_);
  const auto compiled =
      compiler.compile(make_int8_chain_model("encode_cost", features, dim));
  tpu::InvokeOptions options;
  options.mode = tpu::ExecutionMode::kTimingOnly;
  options.interactive = false;  // training encodes stream, pipelined
  auto stats = device.invoke_timing(compiled, samples, options, host_.host_cost_model());
  // The host dequantizes the int8 hypervectors it receives before the class
  // update (the update loop works on real values).
  const SimDuration dequant = SimDuration::seconds(
      static_cast<double>(samples) * dim / host_.element_rate);
  return stats.total() + dequant;
}

SimDuration CostModel::update_phase(std::uint64_t samples, std::uint32_t dim,
                                    std::uint32_t classes, std::uint32_t epochs,
                                    double update_fraction,
                                    const platform::PlatformProfile& cpu) const {
  // Per iteration: an associative search over every sample (N * d * k MACs,
  // the encoded-hypervector norm and the per-class cosine division),
  // refreshed class norms, and a bundling + detaching pass over the
  // mispredicted fraction.
  const double n = static_cast<double>(samples);
  const double similarity_macs = n * static_cast<double>(dim) * classes;
  const double encoded_norm_ops = n * static_cast<double>(dim);
  const double cosine_ops = n * static_cast<double>(classes);
  const double class_norm_ops = static_cast<double>(dim) * classes;
  const double update_ops = update_fraction * n * 2.0 * static_cast<double>(dim);
  const double per_epoch =
      similarity_macs / cpu.mac_rate +
      (encoded_norm_ops + cosine_ops + class_norm_ops + update_ops) / cpu.element_rate;
  return SimDuration::seconds(per_epoch * epochs);
}

TrainTimings CostModel::train_cpu(const WorkloadShape& shape,
                                  const platform::PlatformProfile& cpu) const {
  shape.validate();
  TrainTimings t;
  t.encode = encode_cpu(shape.train_samples, shape.features, shape.dim, cpu);
  t.update = update_phase(shape.train_samples, shape.dim, shape.classes, shape.epochs,
                          shape.update_fraction, cpu);
  // No accelerator models to generate on the pure-CPU path.
  return t;
}

InferTimings CostModel::infer_cpu(const WorkloadShape& shape,
                                  const platform::PlatformProfile& cpu) const {
  shape.validate();
  const double macs = static_cast<double>(shape.features) * shape.dim +
                      static_cast<double>(shape.dim) * shape.classes;
  const double elements = static_cast<double>(shape.dim) + shape.classes;  // tanh + argmax
  InferTimings t;
  t.per_sample = SimDuration::seconds(macs / cpu.mac_rate + elements / cpu.element_rate);
  t.total = t.per_sample * static_cast<double>(shape.test_samples);
  return t;
}

TrainTimings CostModel::train_tpu(const WorkloadShape& shape) const {
  shape.validate();
  TrainTimings t;
  t.encode = encode_tpu(shape.train_samples, shape.features, shape.dim);
  t.update = update_phase(shape.train_samples, shape.dim, shape.classes, shape.epochs,
                          shape.update_fraction, host_);

  const tpu::EdgeTpuCompiler compiler(systolic_, sram_bytes_);
  const auto encode_model =
      compiler.compile(make_int8_chain_model("encode_gen", shape.features, shape.dim));
  const auto infer_model = compiler.compile(
      make_int8_chain_model("infer_gen", shape.features, shape.dim, shape.classes));
  t.model_gen =
      encode_model.report.host_compile_time + infer_model.report.host_compile_time;
  return t;
}

InferTimings CostModel::infer_tpu(const WorkloadShape& shape) const {
  shape.validate();
  tpu::EdgeTpuDevice device(systolic_, link_, sram_bytes_);
  const tpu::EdgeTpuCompiler compiler(systolic_, sram_bytes_);
  const auto compiled = compiler.compile(
      make_int8_chain_model("infer_cost", shape.features, shape.dim, shape.classes));
  tpu::InvokeOptions options;
  options.mode = tpu::ExecutionMode::kTimingOnly;
  options.interactive = true;  // real-time, sample-at-a-time inference
  const auto per_sample = device.per_sample_cost(compiled, options, host_.host_cost_model());
  InferTimings t;
  t.per_sample = per_sample.total();
  t.total = t.per_sample * static_cast<double>(shape.test_samples);
  return t;
}

TrainTimings CostModel::train_tpu_bagging(const WorkloadShape& shape,
                                          const BaggingShape& bag) const {
  shape.validate();
  bag.validate();
  const auto subset = static_cast<std::uint64_t>(
      std::max<double>(1.0, bag.alpha * static_cast<double>(shape.train_samples)));

  TrainTimings t;
  const tpu::EdgeTpuCompiler compiler(systolic_, sram_bytes_);
  for (std::uint32_t m = 0; m < bag.num_models; ++m) {
    // Each sub-model has its own (narrow) encode model; feature sampling
    // zeroes base rows but the accelerator still computes dense tiles, so
    // beta does not shrink encode time (the paper's Fig.-8 observation).
    t.encode += encode_tpu(subset, shape.features, bag.sub_dim);
    t.update += update_phase(subset, bag.sub_dim, shape.classes, bag.epochs,
                             shape.update_fraction, host_);
    const auto encode_model = compiler.compile(make_int8_chain_model(
        "encode_gen_m" + std::to_string(m), shape.features, bag.sub_dim));
    t.model_gen += encode_model.report.host_compile_time;
  }

  // One stacked full-width inference model (paper Section III-B).
  const std::uint32_t full_dim = bag.sub_dim * bag.num_models;
  const auto stacked = compiler.compile(
      make_int8_chain_model("infer_stacked_gen", shape.features, full_dim, shape.classes));
  t.model_gen += stacked.report.host_compile_time;
  return t;
}

InferTimings CostModel::infer_tpu_stacked(const WorkloadShape& shape,
                                          const BaggingShape& bag) const {
  bag.validate();
  WorkloadShape stacked = shape;
  stacked.dim = bag.sub_dim * bag.num_models;
  return infer_tpu(stacked);
}

InferTimings CostModel::infer_tpu_serial(const WorkloadShape& shape,
                                         const BaggingShape& bag) const {
  shape.validate();
  bag.validate();
  tpu::EdgeTpuDevice device(systolic_, link_, sram_bytes_);
  const tpu::EdgeTpuCompiler compiler(systolic_, sram_bytes_);
  const auto compiled = compiler.compile(make_int8_chain_model(
      "infer_serial_cost", shape.features, bag.sub_dim, shape.classes));
  tpu::InvokeOptions options;
  options.mode = tpu::ExecutionMode::kTimingOnly;
  options.interactive = true;

  const auto per_invoke = device.per_sample_cost(compiled, options, host_.host_cost_model());
  // Real-time sample-at-a-time consensus: every sample runs M sub-models and
  // pays a model swap (weight re-upload) per sub-model, plus the host-side
  // score aggregation.
  const SimDuration swap = device.link().transfer_time(compiled.report.weight_bytes);
  const SimDuration aggregate = SimDuration::seconds(
      static_cast<double>(bag.num_models) * shape.classes / host_.element_rate);

  InferTimings t;
  t.per_sample =
      (per_invoke.total() + swap) * static_cast<double>(bag.num_models) + aggregate;
  t.total = t.per_sample * static_cast<double>(shape.test_samples);
  return t;
}

}  // namespace hdc::runtime

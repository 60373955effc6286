#include "tpu/compiler.hpp"

#include <atomic>
#include <sstream>

#include "common/error.hpp"

namespace hdc::tpu {
namespace {

std::string next_model_id(const std::string& name) {
  static std::atomic<std::uint64_t> counter{0};
  return name + "#" + std::to_string(counter.fetch_add(1));
}

}  // namespace

bool CompiledModel::has_device_segment() const {
  for (const auto& op_plan : plan) {
    if (op_plan.placement == Placement::kDevice) {
      return true;
    }
  }
  return false;
}

std::string CompileReport::to_string() const {
  std::ostringstream os;
  os << "EdgeTPU compile report for '" << model_name << "'\n"
     << "  ops mapped to device : " << device_ops << "\n"
     << "  ops running on host  : " << host_ops << "\n"
     << "  parameter payload    : " << weight_bytes << " bytes"
     << (fits_in_sram ? " (fits on-chip)" : " (exceeds on-chip SRAM, streamed)") << "\n"
     << "  host compile time    : " << host_compile_time.to_string() << "\n";
  for (const auto& message : messages) {
    os << "  - " << message << "\n";
  }
  return os.str();
}

EdgeTpuCompiler::EdgeTpuCompiler(SystolicConfig systolic, std::uint64_t sram_capacity_bytes)
    : systolic_(systolic), sram_capacity_bytes_(sram_capacity_bytes) {
  systolic_.validate();
  HDC_CHECK(sram_capacity_bytes_ > 0, "SRAM capacity must be positive");
}

CompiledModel EdgeTpuCompiler::compile(lite::LiteModel model) const {
  model.validate();

  CompiledModel compiled;
  compiled.report.model_name = model.name;
  compiled.id = next_model_id(model.name);
  compiled.plan.reserve(model.ops.size());

  for (std::size_t i = 0; i < model.ops.size(); ++i) {
    const auto& op = model.ops[i];
    OpPlan plan;
    const std::string op_label =
        "op " + std::to_string(i) + " " + lite::opcode_name(op.code);

    switch (op.code) {
      case lite::OpCode::kFullyConnected: {
        const auto& act = model.tensor(op.inputs[0]);
        const auto& weights = model.tensor(op.inputs[1]);
        plan.macs_per_sample =
            static_cast<std::uint64_t>(weights.shape[0]) * weights.shape[1];
        plan.elements = weights.shape[1];
        if (act.dtype == lite::DType::kInt8) {
          plan.placement = Placement::kDevice;
        } else {
          plan.placement = Placement::kHost;
          plan.fallback_reason = "float FULLY_CONNECTED is not supported on the device";
          compiled.report.messages.push_back(op_label + ": " + plan.fallback_reason);
        }
        break;
      }
      case lite::OpCode::kTanh: {
        const auto& act = model.tensor(op.inputs[0]);
        plan.elements = model.tensor(op.outputs[0]).num_elements();
        if (act.dtype == lite::DType::kInt8) {
          plan.placement = Placement::kDevice;  // activation-unit LUT
        } else {
          plan.placement = Placement::kHost;
          plan.fallback_reason = "float TANH is not supported on the device";
          compiled.report.messages.push_back(op_label + ": " + plan.fallback_reason);
        }
        break;
      }
      case lite::OpCode::kQuantize:
        plan.placement = Placement::kHost;
        plan.elements = model.tensor(op.outputs[0]).num_elements();
        plan.fallback_reason = "input quantization executes on the host (TFLite contract)";
        compiled.report.messages.push_back(op_label + ": " + plan.fallback_reason);
        break;
      case lite::OpCode::kDequantize:
        plan.placement = Placement::kHost;
        plan.elements = model.tensor(op.outputs[0]).num_elements();
        plan.fallback_reason = "output dequantization executes on the host";
        compiled.report.messages.push_back(op_label + ": " + plan.fallback_reason);
        break;
      case lite::OpCode::kArgMax:
        plan.placement = Placement::kHost;
        plan.elements = model.tensor(op.inputs[0]).num_elements();
        plan.fallback_reason = "ARG_MAX is not supported by the Edge TPU, mapped to host";
        compiled.report.messages.push_back(op_label + ": " + plan.fallback_reason);
        break;
    }

    if (plan.placement == Placement::kDevice) {
      ++compiled.report.device_ops;
    } else {
      ++compiled.report.host_ops;
    }
    compiled.plan.push_back(std::move(plan));
  }

  // The device segment must be contiguous (one subgraph per accelerator
  // delegate); our lowering always produces host-prefix / device-body /
  // host-suffix chains, which this check enforces.
  int segment_state = 0;  // 0 = before, 1 = inside, 2 = after
  for (const auto& op_plan : compiled.plan) {
    if (op_plan.placement == Placement::kDevice) {
      HDC_CHECK(segment_state != 2, "device ops must form one contiguous segment");
      segment_state = 1;
    } else if (segment_state == 1) {
      segment_state = 2;
    }
  }

  // Boundary tensors of the device segment (what crosses the USB link per
  // sample).
  for (std::size_t i = 0; i < model.ops.size(); ++i) {
    if (compiled.plan[i].placement != Placement::kDevice) {
      continue;
    }
    const auto& op = model.ops[i];
    if (compiled.device_input_bytes == 0) {
      compiled.device_input_bytes = model.tensor(op.inputs[0]).byte_size();
    }
    compiled.device_output_bytes = model.tensor(op.outputs[0]).byte_size();
  }

  compiled.report.weight_bytes = model.weight_bytes();
  compiled.report.fits_in_sram = compiled.report.weight_bytes <= sram_capacity_bytes_;

  // One-time host-side model-generation cost (TFLite export + edgetpu
  // compilation): a fixed setup term plus throughput-bound parameter
  // processing. This is the "model generation" slice in the paper's Fig. 5;
  // the real edgetpu_compiler takes seconds on multi-megabyte models.
  compiled.report.host_compile_time =
      SimDuration::millis(800) +
      SimDuration::seconds(static_cast<double>(compiled.report.weight_bytes) / 4e6);

  compiled.interpreter = std::make_shared<const lite::LiteInterpreter>(model);
  compiled.model = std::move(model);
  return compiled;
}

}  // namespace hdc::tpu

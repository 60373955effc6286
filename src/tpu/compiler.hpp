#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "lite/interpreter.hpp"
#include "lite/model.hpp"
#include "tpu/systolic.hpp"

namespace hdc::tpu {

/// Where one op executes after partitioning.
enum class Placement : std::uint8_t { kDevice, kHost };

struct OpPlan {
  Placement placement = Placement::kHost;
  std::string fallback_reason;  ///< empty when mapped to the device
  std::uint64_t macs_per_sample = 0;
  std::uint64_t elements = 0;  ///< output elements (for elementwise pricing)
};

/// Human-readable summary, analogous to the edgetpu_compiler log.
struct CompileReport {
  std::string model_name;
  std::uint32_t device_ops = 0;
  std::uint32_t host_ops = 0;
  std::vector<std::string> messages;
  std::uint64_t weight_bytes = 0;
  bool fits_in_sram = true;
  SimDuration host_compile_time;  ///< one-time model-generation cost

  std::string to_string() const;
};

struct CompiledModel {
  lite::LiteModel model;
  /// The functional executor of `model`, prepared once by the compiler
  /// (packed int8 weights, tanh LUTs) and shared by every copy of this
  /// compiled model, so invocations never re-prepare or copy the model.
  std::shared_ptr<const lite::LiteInterpreter> interpreter;
  std::vector<OpPlan> plan;  ///< one entry per model op
  CompileReport report;
  std::string id;  ///< unique identity for on-chip caching

  /// Byte width of the activation entering / leaving the device segment.
  std::uint64_t device_input_bytes = 0;
  std::uint64_t device_output_bytes = 0;
  bool has_device_segment() const;
};

/// The edgetpu_compiler analog: maps int8 FULLY_CONNECTED / TANH onto the
/// MXU and falls everything else back to the host (QUANTIZE and ARG_MAX run
/// host-side exactly as in the real TFLite/EdgeTPU partitioning; float ops
/// are unsupported on the device).
class EdgeTpuCompiler {
 public:
  EdgeTpuCompiler(SystolicConfig systolic, std::uint64_t sram_capacity_bytes);

  CompiledModel compile(lite::LiteModel model) const;

 private:
  SystolicConfig systolic_;
  std::uint64_t sram_capacity_bytes_;
};

}  // namespace hdc::tpu

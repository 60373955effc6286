#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "lite/model.hpp"
#include "platform/profiles.hpp"
#include "runtime/report.hpp"
#include "tpu/device.hpp"

namespace hdc::runtime {

/// Shape of a learning workload — everything the analytic timing model needs
/// to price paper-scale experiments without materializing the math.
struct WorkloadShape {
  std::string name;
  std::uint64_t train_samples = 0;
  std::uint64_t test_samples = 0;
  std::uint32_t features = 0;
  std::uint32_t classes = 0;
  std::uint32_t dim = 10000;
  std::uint32_t epochs = 20;
  /// Average fraction of training samples that trigger a class-hypervector
  /// update per iteration. Measured functional runs report theirs; 0.25 is a
  /// representative default for analytic full-scale pricing.
  double update_fraction = 0.25;

  void validate() const;
};

/// Bagging operating point (paper defaults: M=4, d'=2500, I'=6, alpha=0.6,
/// beta disabled).
struct BaggingShape {
  std::uint32_t num_models = 4;
  std::uint32_t sub_dim = 2500;
  std::uint32_t epochs = 6;
  double alpha = 0.6;
  double beta = 1.0;

  void validate() const;
};

/// Builds a weight-shape-faithful int8 HDLite model (zero-filled parameters,
/// nominal quantization) for cost evaluation and compiler tests:
/// input(float n) -> QUANTIZE -> FC(n x d) -> TANH [-> FC(d x k) -> ARG_MAX].
lite::LiteModel make_int8_chain_model(const std::string& name, std::uint32_t features,
                                      std::uint32_t dim,
                                      std::optional<std::uint32_t> classes = std::nullopt);

/// Analytic pricing of the three framework settings on arbitrary platforms.
/// All TPU paths share the EdgeTpuDevice cost machinery with the functional
/// simulator, so analytic and measured timings cannot diverge.
class CostModel {
 public:
  explicit CostModel(platform::PlatformProfile host = platform::host_cpu_profile(),
                     tpu::SystolicConfig systolic = {}, tpu::UsbLinkConfig link = {},
                     std::uint64_t sram_bytes = 8ULL * 1024 * 1024);

  const platform::PlatformProfile& host() const noexcept { return host_; }

  // ---- CPU-only baseline (paper setting "CPU") on a given CPU profile ----
  TrainTimings train_cpu(const WorkloadShape& shape,
                         const platform::PlatformProfile& cpu) const;
  InferTimings infer_cpu(const WorkloadShape& shape,
                         const platform::PlatformProfile& cpu) const;

  // ---- Co-design without bagging (paper setting "TPU") ----
  TrainTimings train_tpu(const WorkloadShape& shape) const;
  InferTimings infer_tpu(const WorkloadShape& shape) const;

  // ---- Co-design with bagging (paper setting "TPU_B") ----
  TrainTimings train_tpu_bagging(const WorkloadShape& shape, const BaggingShape& bag) const;
  /// Stacked single inference model — identical steady-state shape/cost to
  /// infer_tpu (the paper's "free of extra overhead" claim).
  InferTimings infer_tpu_stacked(const WorkloadShape& shape, const BaggingShape& bag) const;
  /// Ablation: running the M sub-models serially per sample, paying a model
  /// swap (weight re-upload) for each — the overhead the stacking avoids.
  InferTimings infer_tpu_serial(const WorkloadShape& shape, const BaggingShape& bag) const;

  // ---- Encoding phase only (Fig. 10 feature sweep) ----
  SimDuration encode_cpu(std::uint64_t samples, std::uint32_t features, std::uint32_t dim,
                         const platform::PlatformProfile& cpu) const;
  SimDuration encode_tpu(std::uint64_t samples, std::uint32_t features,
                         std::uint32_t dim) const;

  /// CPU-side class-hypervector update cost for one training run.
  SimDuration update_phase(std::uint64_t samples, std::uint32_t dim, std::uint32_t classes,
                           std::uint32_t epochs, double update_fraction,
                           const platform::PlatformProfile& cpu) const;

 private:
  platform::PlatformProfile host_;
  tpu::SystolicConfig systolic_;
  tpu::UsbLinkConfig link_;
  std::uint64_t sram_bytes_;
};

}  // namespace hdc::runtime

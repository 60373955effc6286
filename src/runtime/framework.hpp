#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/bagging.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "platform/cpu_executor.hpp"
#include "platform/profiles.hpp"
#include "lite/quantize.hpp"
#include "runtime/cost.hpp"
#include "runtime/health.hpp"
#include "runtime/report.hpp"
#include "runtime/resilient.hpp"
#include "tpu/compiler.hpp"
#include "tpu/device.hpp"
#include "tpu/faults.hpp"

namespace hdc::obs {
class TraceContext;
struct RequestTrace;
}  // namespace hdc::obs

namespace hdc::runtime {

/// Full system configuration: which host CPU drives the accelerator and how
/// the accelerator is built. Defaults model the paper's setup (i5-5250U-class
/// host + USB Edge TPU).
struct SystemConfig {
  platform::PlatformProfile host = platform::host_cpu_profile();
  tpu::SystolicConfig systolic;
  tpu::UsbLinkConfig link;
  std::uint64_t sram_bytes = 8ULL * 1024 * 1024;
  /// Training samples used as the representative dataset for post-training
  /// quantization calibration.
  std::uint32_t calibration_samples = 128;
  /// Post-training quantization options for every model the framework lowers
  /// (e.g. per-channel weights).
  lite::QuantizeOptions quantize;
};

/// The paper's framework (Fig. 1 / Fig. 3): HDC interpreted as a hyper-wide
/// NN, encoding and inference accelerated on the (simulated) Edge TPU,
/// class-hypervector updates on the host CPU, optionally with bagging.
///
/// All methods run *functionally* (real math, real accuracy, including int8
/// quantization effects on the accelerated paths) and report *simulated*
/// runtimes from the same cost machinery the analytic CostModel uses.
class CoDesignFramework {
 public:
  explicit CoDesignFramework(SystemConfig config = {});

  const SystemConfig& config() const noexcept { return config_; }
  const CostModel& cost_model() const noexcept { return cost_; }

  /// Attaches a span/metrics recorder to every subsequent train/infer call:
  /// the paper's Fig.-5/6 phases (`train.encode` / `train.update` /
  /// `train.model_gen`, transfer / device / host inference phases) land as
  /// spans keyed to simulated time, and summary gauges/counters land in the
  /// attached metrics registry. Null (the default) disables instrumentation;
  /// results and timings are bit-identical either way.
  void set_trace(obs::TraceContext* trace) noexcept { trace_ = trace; }
  obs::TraceContext* trace_context() const noexcept { return trace_; }

  struct TrainOutcome {
    core::TrainedClassifier classifier;  ///< float classifier (stacked when bagged)
    TrainTimings timings;
    std::vector<core::EpochStats> history;  ///< per-iteration accuracy (first member when bagged)
    double measured_update_fraction = 0.0;  ///< feeds full-scale analytic pricing
  };

  /// Baseline: everything (float) on the host CPU.
  TrainOutcome train_cpu(const data::Dataset& train, const core::HdConfig& cfg,
                         const data::Dataset* validation = nullptr) const;

  /// Co-design without bagging: training set encoded through the quantized
  /// encode model on the TPU, class update on the host.
  TrainOutcome train_tpu(const data::Dataset& train, const core::HdConfig& cfg,
                         const data::Dataset* validation = nullptr) const;

  /// Co-design with bagging (paper TPU_B): M narrow sub-models trained on
  /// bootstrap subsets, then stacked into one full-width classifier.
  TrainOutcome train_tpu_bagging(const data::Dataset& train,
                                 const core::BaggingConfig& cfg) const;

  struct InferOutcome {
    std::vector<std::uint32_t> predictions;
    double accuracy = 0.0;
    InferTimings timings;
    tpu::CompileReport compile_report;  ///< empty for the CPU path
  };

  /// Float inference on the host CPU.
  InferOutcome infer_cpu(const core::TrainedClassifier& classifier,
                         const data::Dataset& test) const;

  /// int8 inference through the full wide-NN model on the TPU (quantized
  /// against `representative` — typically the training set), served through
  /// a one-shot `ServingEndpoint`, the serving loops' device path
  /// (`ResilientExecutor`: bounded retry, exponential backoff, CPU fallback).
  /// The one-time weight upload is excluded from `timings`; a model larger
  /// than the parameter SRAM streams its weights on every invoke, and that
  /// is charged. The device draws faults from `faults` (none by default);
  /// `timings.total` then includes retry, backoff, re-upload and fallback
  /// time, and `report` (optional) receives the fault/fallback breakdown.
  InferOutcome infer_tpu(const core::TrainedClassifier& classifier,
                         const data::Dataset& test,
                         const data::Dataset& representative,
                         const tpu::FaultProfile& faults = {},
                         const RetryPolicy& policy = {},
                         ResilienceReport* report = nullptr) const;

  /// A classifier lowered through the deployment pipeline: the float wide-NN
  /// model (the exact CPU-fallback model) plus its quantized, compiled
  /// accelerator image. The one lowering sequence: `infer_tpu` compiles
  /// through it, and a long-lived serving endpoint lowers once and
  /// re-deploys across model refreshes.
  struct LoweredModel {
    lite::LiteModel float_model;
    tpu::CompiledModel compiled;

    /// Width d of the hidden layer: the first dense layer's output.
    std::uint32_t hidden_dim() const {
      return float_model.tensor(float_model.ops.front().outputs[0]).shape[0];
    }
  };

  /// Lowers `classifier` for deployment: wide-NN float model -> int8
  /// quantization against `representative` -> accelerator compile.
  LoweredModel lower_classifier(const core::TrainedClassifier& classifier,
                                const data::Dataset& representative,
                                const std::string& name = "hdc_inference") const;

 private:
  tensor::MatrixF encode_on_tpu(const core::Encoder& encoder,
                                const tensor::MatrixF& samples,
                                const tensor::MatrixF& representative,
                                SimDuration* encode_time,
                                SimDuration* model_gen_time) const;
  tensor::MatrixF representative_rows(const data::Dataset& dataset) const;
  void publish_train_metrics(const TrainTimings& timings) const;
  void publish_infer_metrics(const InferTimings& timings, double accuracy,
                             std::size_t samples) const;

  SystemConfig config_;
  CostModel cost_;
  obs::TraceContext* trace_ = nullptr;
};

/// One simulated accelerator behind a serving loop, and the one device path
/// both loops serve through: `serve` drives one endpoint, `serve_fleet` one
/// per device (and `infer_tpu` a one-shot one).
///
/// Keeping the device alive across batches is what makes device health
/// meaningful: detach schedules, SRAM state and the fault injector's RNG
/// stream persist, so a quarantined device really is the *same* device the
/// probe later re-tries.
///
/// Inside the endpoint the loops differ only in how a model becomes
/// resident, and on purpose:
/// - `serve` keeps a tiered model ladder (`deploy`, `activate`):
///     kFull     full-dimension model on the accelerator
///     kReduced  reduced-dimension (LDC-style) model on the accelerator
///     kHost     reduced float model on the host CPU (device not touched)
///   Its deploys and tier switches ride the one-time-upload convention of
///   `infer_tpu` and are never charged: a tier switch changes *which* model
///   runs, not the cost of loading it.
/// - `serve_fleet` swaps tenant models with `swap`, a *charged* upload the
///   router counts: multi-tenancy pays for cache misses, which is what
///   cache-aware placement amortizes.
class ServingEndpoint {
 public:
  using Model = CoDesignFramework::LoweredModel;

  ServingEndpoint(const CoDesignFramework& framework, const tpu::FaultProfile& faults,
                  RetryPolicy policy);

  /// Lowers and installs the model for `tier` (kHost shares kReduced's
  /// lowered model and needs no deploy). Upload is uncharged by convention.
  void deploy(ServeTier tier, const core::TrainedClassifier& classifier,
              const data::Dataset& representative);

  /// The model deployed for `tier` (kHost: kReduced's).
  const Model& model(ServeTier tier) const;

  /// Makes `tier`'s model resident for the next `infer`, uncharged (a no-op
  /// for kHost, which never touches the device).
  void activate(ServeTier tier);

  /// Makes `model` resident as a charged upload at `at`: the device clock
  /// syncs forward to `at`, then pays the upload. Returns the upload time,
  /// zero when the weights were already resident.
  SimDuration swap(const Model& model, SimDuration at);

  struct BatchOutcome {
    std::vector<std::uint32_t> predictions;
    /// The k class scores each prediction was taken from, one row per
    /// sample: the served model's ARG_MAX input (dequantized on the device
    /// tiers), the bytes the link already charges as the device output.
    tensor::MatrixF scores;
    SimDuration total;  ///< simulated service time for the batch
    ResilienceReport report;
  };

  /// Serves `inputs` with `model` on `tier`, starting at simulated time
  /// `start`. The host tier runs the float model on the CPU; the device
  /// tiers sync the device clock forward to `start` and run the resident
  /// compiled model under a `ResilientExecutor` with `options`.
  /// `sample_deadline` bounds each sample's retry loop (zero = unbounded).
  /// When `request` is non-null the stage spans are appended to its causal
  /// chain per sample and attempt — purely observational, never feeds back
  /// into timings.
  BatchOutcome infer(const Model& model, ServeTier tier, const tpu::InvokeOptions& options,
                     const tensor::MatrixF& inputs, SimDuration start,
                     SimDuration sample_deadline, obs::RequestTrace* request = nullptr);

  /// Nominal fault-free per-sample service time of `model` on `tier`, with
  /// the interactive invoke (admission deadline checks and the open-loop
  /// arrival rate price work with it).
  SimDuration nominal_per_sample(const Model& model, ServeTier tier) const;

  tpu::EdgeTpuDevice& device() noexcept { return device_; }
  const tpu::EdgeTpuDevice& device() const noexcept { return device_; }

 private:
  /// Moves the device clock forward to `at`: idle gaps between batches are
  /// real simulated time the detach/reattach schedule sees.
  void sync_clock(SimDuration at);

  const CoDesignFramework& framework_;
  RetryPolicy policy_;
  tpu::EdgeTpuDevice device_;
  platform::CpuExecutor cpu_;
  /// Lowered models for the device tiers (kHost reuses kReduced's float
  /// model on the CPU).
  std::array<std::optional<Model>, 2> tiers_;
};

}  // namespace hdc::runtime

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "lite/interpreter.hpp"
#include "tpu/compiler.hpp"
#include "tpu/faults.hpp"
#include "tpu/memory.hpp"
#include "tpu/program.hpp"
#include "tpu/stats.hpp"
#include "tpu/systolic.hpp"
#include "tpu/usb.hpp"

namespace hdc::obs {
class TraceContext;
}  // namespace hdc::obs

namespace hdc::tpu {

/// How a batch is pushed through the accelerator. Compiled models are fixed
/// at batch 1 (the TFLite/EdgeTPU deployment the paper uses), so a batch of
/// N costs N invocations either way; streaming pipelines transfers with
/// compute, interactive waits for each result (real-time inference).
struct InvokeOptions {
  ExecutionMode mode = ExecutionMode::kFunctional;
  bool interactive = false;
  /// Double-buffered streaming: overlap host work, link transfers and device
  /// compute across consecutive samples (steady-state cost = the slowest
  /// stage instead of the stage sum). The deployed TFLite runtime the paper
  /// uses invokes synchronously, so this is OFF by default; the
  /// ablation_pipelining bench quantifies what a pipelined runtime would buy.
  bool pipelined = false;
};

/// The simulated accelerator: systolic MXU + activation unit + on-chip
/// parameter SRAM behind a USB link. Functional results are computed with
/// the bit-exact int8 reference kernels (the systolic tile engine is proven
/// equivalent by property tests); timing comes from the cycle/byte models.
class EdgeTpuDevice {
 public:
  EdgeTpuDevice(SystolicConfig systolic = {}, UsbLinkConfig link = {},
                std::uint64_t sram_capacity_bytes = 8ULL * 1024 * 1024);

  const SystolicArray& mxu() const noexcept { return mxu_; }
  const UsbLink& link() const noexcept { return link_; }
  const OnChipMemory& memory() const noexcept { return memory_; }

  /// Attaches a fault injector; every subsequent `invoke` draws transfer,
  /// SRAM and detach faults from it (an injector with a fault-free profile
  /// leaves behaviour bit-identical to having none). With faults active,
  /// `invoke` throws typed `DeviceFault`s (TransferCorrupt / DeviceLost /
  /// SramCorrupt) carrying the stats charged by the failed attempt — drive
  /// it through `runtime::ResilientExecutor` to retry and fall back.
  void set_fault_injector(FaultInjector injector);
  void clear_fault_injector() { faults_.reset(); }
  FaultInjector* fault_injector() noexcept { return faults_ ? &*faults_ : nullptr; }

  /// Attaches a span/metrics recorder (null disables, the default). Every
  /// invocation then emits `usb.*` / `mxu.*` / `host.*` spans keyed to
  /// simulated time and publishes device metrics; the recorder is shared
  /// with the MXU cycle model and any attached fault injector.
  /// Instrumentation only *reads* the charged costs — timing and functional
  /// results are bit-identical with tracing on, off, or null.
  void set_trace(obs::TraceContext* trace) noexcept;
  obs::TraceContext* trace_context() const noexcept { return trace_; }

  /// Simulated device-local clock: advances with every invocation's charged
  /// time and positions scheduled detach events. Executors also advance it
  /// for time they spend between invocations (retry backoff).
  SimDuration clock() const noexcept { return clock_; }
  void advance_clock(SimDuration elapsed) { clock_ += elapsed; }

  /// Uploads the model's parameters (no-op if already resident). Returns the
  /// time spent on the link. Models larger than SRAM are never resident and
  /// re-stream their weights on every invocation.
  ExecutionStats load(const CompiledModel& model);

  /// Co-compilation path: pins all models' parameters simultaneously when
  /// they fit together in SRAM (the edgetpu co-compilation feature). Returns
  /// upload stats; `all_resident` reports whether pinning succeeded — when
  /// false the cache is left in single-model mode and callers pay swaps.
  ExecutionStats load_coresident(const std::vector<const CompiledModel*>& models,
                                 bool* all_resident);

  /// Runs `inputs` (one sample per row) through the compiled model.
  /// Functional mode returns real outputs; timing-only returns an empty
  /// result. Host fallback ops are priced with `host`.
  std::pair<lite::InferenceResult, ExecutionStats> invoke(const CompiledModel& model,
                                                          const tensor::MatrixF& inputs,
                                                          const InvokeOptions& options,
                                                          const HostCostModel& host);

  /// Functional outputs of `inputs` (one sample per row) through the
  /// compiled model's prepared interpreter, recorded on this device's trace.
  /// Charges no simulated time; `invoke` and `invoke_sample` do that.
  lite::InferenceResult compute_outputs(const CompiledModel& model,
                                        const tensor::MatrixF& inputs) const;

  /// One sample of a fault-injected invocation: the bus-presence check, the
  /// CRC-framed parameter upload when the weights are not resident, the SRAM
  /// scrub, the input transfer, the compute charge and the output transfer,
  /// each drawing from the attached injector (which must be enabled).
  /// `input` and `output` are the sample's real payloads, its row of the
  /// batch and of `compute_outputs` (both empty in timing-only mode), so the
  /// frame checksums cover them; `sample` labels its trace spans. The
  /// sample's charges are added to `stats`, which may already hold earlier
  /// samples of the same invocation, and the device clock advances by what
  /// they add to `stats.total()`. A fault throws a DeviceFault carrying
  /// `stats` as charged up to it.
  void invoke_sample(const CompiledModel& model, std::span<const float> input,
                     std::span<const float> output, std::uint64_t sample,
                     const InvokeOptions& options, const HostCostModel& host,
                     ExecutionStats& stats);

  /// Timing-only fast path for paper-scale sample counts.
  ExecutionStats invoke_timing(const CompiledModel& model, std::uint64_t num_samples,
                               const InvokeOptions& options, const HostCostModel& host);

  /// Per-sample cost breakdown (excludes weight upload).
  ExecutionStats per_sample_cost(const CompiledModel& model, const InvokeOptions& options,
                                 const HostCostModel& host) const;

  /// Instruction-level trace of the per-sample device program (weight-
  /// stationary schedule). Its compute-cycle total equals the cost model's
  /// device time exactly.
  TpuProgram trace(const CompiledModel& model) const;

 private:
  /// Compute-only per-sample cost (device cycles + host fallback ops); link
  /// charges are layered on top by per_sample_cost / the faulty invoke path.
  ExecutionStats sample_compute_cost(const CompiledModel& model,
                                     const HostCostModel& host) const;

  /// Fault-aware execution: one `compute_outputs` pass over the batch, then
  /// `invoke_sample` per row. Throws DeviceFault.
  std::pair<lite::InferenceResult, ExecutionStats> invoke_with_faults(
      const CompiledModel& model, const tensor::MatrixF& inputs,
      const InvokeOptions& options, const HostCostModel& host);

  SystolicArray mxu_;
  UsbLink link_;
  OnChipMemory memory_;
  std::optional<FaultInjector> faults_;
  SimDuration clock_;
  obs::TraceContext* trace_ = nullptr;
};

}  // namespace hdc::tpu

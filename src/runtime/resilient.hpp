#pragma once

#include <cstdint>

#include "lite/interpreter.hpp"
#include "platform/cpu_executor.hpp"
#include "tpu/compiler.hpp"
#include "tpu/device.hpp"

namespace hdc::obs {
class TraceContext;
struct RequestTrace;
}  // namespace hdc::obs

namespace hdc::runtime {

/// How the resilient executor reacts to device faults. Backoff is charged in
/// *simulated* time (it advances the device clock, so detach/reattach
/// windows are honoured) and grows geometrically per retry of one sample.
struct RetryPolicy {
  /// Device attempts per sample before that sample falls back to the CPU.
  std::uint32_t max_attempts = 3;
  SimDuration initial_backoff = SimDuration::micros(200);
  double backoff_multiplier = 2.0;
  /// Ceiling on a single backoff sleep. Without it, high `max_attempts`
  /// with multiplier > 1 charges geometrically absurd simulated waits.
  SimDuration max_backoff = SimDuration::millis(50);
  /// Consecutive failed device attempts (across samples) after which the
  /// circuit opens and every remaining sample routes to the CPU in bulk.
  std::uint32_t circuit_breaker_threshold = 5;
  /// Per-sample simulated-time budget for the retry loop. Before charging a
  /// backoff sleep, the executor checks whether the sample's spent time plus
  /// that sleep would exhaust the budget; if so the watchdog abandons the
  /// device (no further backoff is charged) and the sample completes on the
  /// CPU immediately. Zero = unbounded (the legacy behaviour). Only the
  /// faulty path consults it — the fault-free batch fast path is untouched.
  SimDuration sample_deadline;

  void validate() const;
};

/// What one resilient batch cost and where its samples actually ran. The
/// serving layers count shed, expired and degraded requests themselves, in
/// each shard's `ShardCounters`; `expired_samples` here counts only the
/// samples whose retry sequence the per-sample watchdog abandoned.
struct ResilienceReport {
  tpu::ExecutionStats device_stats;  ///< all device-side work incl. failed attempts
  SimDuration cpu_fallback_time;     ///< host time for samples the CPU completed
  std::uint64_t tpu_samples = 0;
  std::uint64_t cpu_samples = 0;
  std::uint64_t expired_samples = 0;  ///< abandoned by the per-sample watchdog
  bool circuit_opened = false;

  SimDuration total() const { return device_stats.total() + cpu_fallback_time; }
};

/// Appends one service's stage spans to a request's causal chain: the device
/// work in `stats` (backoff, transfer, MXU, in-pipeline host ops), then
/// `host` as CPU time. Zero stages are skipped, so the appended durations
/// sum exactly to `stats.total() + host`. A pipelined invoke reports its
/// makespan as device time and only the serial weight upload as transfer,
/// because its per-stage fields double-count overlapped work. The one
/// appender of every serving path: the executor calls it per sample and
/// attempt, the fleet once per batch with the batch's summed stats. Only
/// summed stats carry `retry_backoff` (the retry loop appends each sleep of
/// a single sample itself); a pipelined batch lists it after the makespan.
void append_stage_spans(obs::RequestTrace& request, const tpu::ExecutionStats& stats,
                        SimDuration host = {}, std::uint32_t sample = 0,
                        std::uint32_t attempt = 0);

/// Fault-tolerant invoke path: computes the batch's device outputs once
/// (`EdgeTpuDevice::compute_outputs`), then drives the (fault-injectable)
/// Edge TPU device sample by sample (`EdgeTpuDevice::invoke_sample`) with
/// bounded retry and exponential backoff, re-uploads
/// parameters after SRAM corruption (the device evicts them; the next
/// attempt's upload is charged automatically), and degrades to the host
/// `CpuExecutor` — per sample after exhausted retries, or wholesale once the
/// circuit breaker trips. Completed TPU results are always kept, so every
/// batch finishes with a full-length, correct prediction vector.
///
/// With no injector attached (or a fault-free profile) the executor takes
/// the unmodified batch path: stats and outputs are bit-identical to calling
/// `EdgeTpuDevice::invoke` directly.
class ResilientExecutor {
 public:
  ResilientExecutor(tpu::EdgeTpuDevice* device, platform::CpuExecutor cpu,
                    RetryPolicy policy = {});

  const RetryPolicy& policy() const noexcept { return policy_; }

  /// Attaches a span/metrics recorder shared with the device: retries,
  /// backoff sleeps, fallback batches and circuit-breaker trips appear as
  /// `resilient.*` spans/instants on the executor track. Null disables.
  void set_trace(obs::TraceContext* trace) noexcept { trace_ = trace; }

  struct Outcome {
    lite::InferenceResult result;  ///< full batch (TPU rows + CPU fallback rows)
    ResilienceReport report;
  };

  /// Runs `inputs` through `compiled` on the device; samples the device
  /// cannot complete run through `cpu_fallback` (the float model the all-CPU
  /// path executes, so fallback predictions match that path exactly).
  ///
  /// When `request` is non-null, every stage the batch passes through —
  /// transfer, MXU compute, per-attempt retry backoff, CPU fallback — is
  /// appended to the request's causal chain (purely observational: the chain
  /// copies durations the cost models already charged, so attaching it never
  /// changes results or timings).
  Outcome run(const tpu::CompiledModel& compiled, const lite::LiteModel& cpu_fallback,
              const tensor::MatrixF& inputs, const tpu::InvokeOptions& options,
              obs::RequestTrace* request = nullptr);

 private:
  tpu::EdgeTpuDevice* device_;
  platform::CpuExecutor cpu_;
  RetryPolicy policy_;
  obs::TraceContext* trace_ = nullptr;
};

}  // namespace hdc::runtime

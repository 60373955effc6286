#include "runtime/resilient.hpp"

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "tpu/faults.hpp"

namespace hdc::runtime {

void append_stage_spans(obs::RequestTrace& request, const tpu::ExecutionStats& stats,
                        SimDuration host, std::uint32_t sample, std::uint32_t attempt) {
  using obs::Stage;
  if (!stats.pipelined_makespan.is_zero()) {
    // Overlapped streaming: the per-stage fields double-count overlapped
    // work, so attribute the makespan (compute-bound by construction) to the
    // device stage and only the serial weight upload to transfer.
    if (!stats.weight_upload.is_zero()) {
      request.append(Stage::kTransfer, stats.weight_upload, sample, attempt);
    }
    request.append(Stage::kDevice, stats.pipelined_makespan, sample, attempt);
    if (!stats.retry_backoff.is_zero()) {
      request.append(Stage::kBackoff, stats.retry_backoff, sample, attempt);
    }
  } else {
    if (!stats.retry_backoff.is_zero()) {
      request.append(Stage::kBackoff, stats.retry_backoff, sample, attempt);
    }
    if (!stats.transfer.is_zero()) {
      request.append(Stage::kTransfer, stats.transfer, sample, attempt);
    }
    if (!stats.weight_upload.is_zero()) {
      request.append(Stage::kTransfer, stats.weight_upload, sample, attempt);
    }
    if (!stats.device_compute.is_zero()) {
      request.append(Stage::kDevice, stats.device_compute, sample, attempt);
    }
    if (!stats.host_compute.is_zero()) {
      request.append(Stage::kDeviceHost, stats.host_compute, sample, attempt);
    }
  }
  if (!host.is_zero()) {
    request.append(Stage::kHost, host, sample, attempt);
  }
}

void RetryPolicy::validate() const {
  HDC_CHECK(max_attempts >= 1, "at least one device attempt per sample is required");
  HDC_CHECK(initial_backoff >= SimDuration(), "backoff must be non-negative");
  HDC_CHECK(backoff_multiplier >= 1.0, "backoff must not shrink across retries");
  HDC_CHECK(max_backoff >= initial_backoff,
            "backoff ceiling must be at least the initial backoff");
  HDC_CHECK(circuit_breaker_threshold >= 1, "circuit breaker threshold must be positive");
  HDC_CHECK(sample_deadline >= SimDuration(),
            "per-sample deadline must be non-negative (0 disables the watchdog)");
}

ResilientExecutor::ResilientExecutor(tpu::EdgeTpuDevice* device, platform::CpuExecutor cpu,
                                     RetryPolicy policy)
    : device_(device), cpu_(std::move(cpu)), policy_(policy) {
  HDC_CHECK(device_ != nullptr, "resilient executor needs a device");
  policy_.validate();
}

ResilientExecutor::Outcome ResilientExecutor::run(const tpu::CompiledModel& compiled,
                                                  const lite::LiteModel& cpu_fallback,
                                                  const tensor::MatrixF& inputs,
                                                  const tpu::InvokeOptions& options,
                                                  obs::RequestTrace* request) {
  const std::size_t num_samples = inputs.rows();
  HDC_CHECK(num_samples > 0, "resilient run over zero samples");
  const tpu::HostCostModel host = cpu_.profile().host_cost_model();

  Outcome outcome;

  tpu::FaultInjector* faults = device_->fault_injector();
  if (faults == nullptr || !faults->enabled()) {
    // Fault-free fast path: the unmodified batch invoke, bit-identical to
    // calling the device directly (the tested "fault-free profile ⇒ clean
    // path" invariant).
    auto [result, stats] = device_->invoke(compiled, inputs, options, host);
    outcome.result = std::move(result);
    outcome.report.device_stats = stats;
    outcome.report.tpu_samples = num_samples;
    if (request != nullptr) {
      append_stage_spans(*request, stats);
    }
    return outcome;
  }

  // The device's outputs for the whole batch, computed once up front; each
  // sample's simulated invocation (and every retry of it) then frames its
  // row of them, and the rows the device completes are kept.
  const bool functional = options.mode == tpu::ExecutionMode::kFunctional;
  lite::InferenceResult device_outputs;
  if (functional) {
    device_outputs = device_->compute_outputs(compiled, inputs);
  }
  std::vector<float> values;
  std::vector<std::int32_t> classes;
  std::size_t out_width = 0;
  bool has_classes = false;
  bool width_known = false;

  // Appends rows [begin, begin + count) of `part` to the batch result.
  const auto append_rows = [&](const lite::InferenceResult& part, std::size_t begin,
                               std::size_t count) {
    if (!functional) {
      return;
    }
    if (!width_known) {
      out_width = part.values.cols();
      has_classes = part.has_classes;
      width_known = true;
    }
    HDC_CHECK(part.values.cols() == out_width && part.has_classes == has_classes,
              "device model and CPU fallback model disagree on output shape");
    const auto first = part.values.storage().begin() +
                       static_cast<std::ptrdiff_t>(begin * out_width);
    values.insert(values.end(), first, first + static_cast<std::ptrdiff_t>(count * out_width));
    if (has_classes) {
      const auto first_class = part.classes.begin() + static_cast<std::ptrdiff_t>(begin);
      classes.insert(classes.end(), first_class,
                     first_class + static_cast<std::ptrdiff_t>(count));
    }
  };

  const auto run_on_cpu = [&](std::size_t begin, std::size_t count) {
    tensor::MatrixF rows(count, inputs.cols());
    std::copy_n(inputs.row(begin).data(), count * inputs.cols(), rows.data());
    auto [result, time] = cpu_.run(cpu_fallback, rows, options.mode, trace_);
    append_rows(result, 0, count);
    if (request != nullptr) {
      append_stage_spans(*request, {}, time, static_cast<std::uint32_t>(begin));
    }
    outcome.report.cpu_fallback_time += time;
    outcome.report.cpu_samples += count;
    outcome.report.device_stats.fallback_samples += count;
    if (trace_ != nullptr) {
      trace_->instant(obs::Track::kExecutor, "resilient.cpu_fallback",
                      {{"first_sample", begin}, {"samples", count}});
      if (obs::MetricsRegistry* metrics = trace_->metrics()) {
        metrics->counter("resilient.fallback_samples").add(count);
      }
    }
  };

  std::uint32_t consecutive_failures = 0;
  std::size_t row = 0;
  for (; row < num_samples; ++row) {
    bool done = false;
    SimDuration sample_spent;  // device time + backoff this sample consumed
    SimDuration backoff = policy_.initial_backoff;
    for (std::uint32_t attempt = 0; attempt < policy_.max_attempts && !done; ++attempt) {
      if (attempt > 0) {
        if (!policy_.sample_deadline.is_zero() &&
            sample_spent + backoff > policy_.sample_deadline) {
          // Deadline watchdog: the remaining budget cannot cover another
          // backoff sleep, so the sample abandons the device mid-retry
          // without charging the sleep and completes on the CPU instead.
          outcome.report.device_stats.deadline_abandons += 1;
          outcome.report.expired_samples += 1;
          if (trace_ != nullptr) {
            trace_->instant(obs::Track::kExecutor, "resilient.deadline_abandon",
                            {{"sample", row}, {"attempt", attempt}});
            if (obs::MetricsRegistry* metrics = trace_->metrics()) {
              metrics->counter("resilient.deadline_abandons").add(1);
            }
          }
          break;
        }
        // Exponential backoff between attempts, charged in simulated time so
        // a reattaching device can actually come back within the window.
        outcome.report.device_stats.invoke_retries += 1;
        outcome.report.device_stats.retry_backoff += backoff;
        device_->advance_clock(backoff);
        if (request != nullptr) {
          request->append(obs::Stage::kBackoff, backoff,
                          static_cast<std::uint32_t>(row), attempt);
        }
        if (trace_ != nullptr) {
          trace_->instant(obs::Track::kExecutor, "resilient.retry",
                          {{"sample", row}, {"attempt", attempt}});
          trace_->span(obs::Track::kExecutor, "resilient.backoff", backoff,
                       {{"sample", row}, {"attempt", attempt}});
          if (obs::MetricsRegistry* metrics = trace_->metrics()) {
            metrics->counter("resilient.invoke_retries").add(1);
            metrics->histogram("resilient.backoff").observe(backoff);
          }
        }
        sample_spent += backoff;
        backoff = std::min(backoff * policy_.backoff_multiplier, policy_.max_backoff);
      }
      try {
        tpu::ExecutionStats stats;
        device_->invoke_sample(
            compiled, functional ? inputs.row(row) : std::span<const float>{},
            functional ? device_outputs.values.row(row) : std::span<const float>{}, row, options,
            host, stats);
        outcome.report.device_stats += stats;
        if (request != nullptr) {
          append_stage_spans(*request, stats, {}, static_cast<std::uint32_t>(row), attempt);
        }
        append_rows(device_outputs, row, 1);
        outcome.report.tpu_samples += 1;
        consecutive_failures = 0;
        done = true;
      } catch (const tpu::DeviceFault& fault) {
        outcome.report.device_stats += fault.charged_stats();
        if (request != nullptr) {
          append_stage_spans(*request, fault.charged_stats(), {},
                             static_cast<std::uint32_t>(row), attempt);
        }
        sample_spent += fault.charged_stats().total();
        ++consecutive_failures;
        if (trace_ != nullptr) {
          trace_->instant(obs::Track::kExecutor, "resilient.device_fault",
                          {{"sample", row},
                           {"kind", tpu::fault_kind_name(fault.kind())},
                           {"consecutive_failures", consecutive_failures}});
          if (obs::MetricsRegistry* metrics = trace_->metrics()) {
            metrics->counter("resilient.device_faults").add(1);
          }
        }
        if (consecutive_failures >= policy_.circuit_breaker_threshold) {
          break;
        }
      }
    }
    if (done) {
      continue;
    }
    if (consecutive_failures >= policy_.circuit_breaker_threshold) {
      outcome.report.circuit_opened = true;
      if (trace_ != nullptr) {
        trace_->instant(obs::Track::kExecutor, "resilient.circuit_open",
                        {{"sample", row},
                         {"threshold", policy_.circuit_breaker_threshold}});
        if (obs::MetricsRegistry* metrics = trace_->metrics()) {
          metrics->counter("resilient.circuit_opened").add(1);
        }
      }
      break;
    }
    // This sample exhausted its device attempts; run it alone on the CPU and
    // keep trying the device for the rest of the batch.
    run_on_cpu(row, 1);
  }

  if (outcome.report.circuit_opened && row < num_samples) {
    // Circuit open: the device is considered gone — the remaining samples
    // (including the one that tripped it) finish on the host in one batch.
    run_on_cpu(row, num_samples - row);
  }

  if (functional) {
    outcome.result.values = tensor::MatrixF(num_samples, out_width, std::move(values));
    outcome.result.classes = std::move(classes);
    outcome.result.has_classes = has_classes;
  }
  return outcome;
}

}  // namespace hdc::runtime

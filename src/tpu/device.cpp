#include "tpu/device.hpp"

#include "tpu/event_sim.hpp"

#include <algorithm>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hdc::tpu {

namespace {

const lite::LiteInterpreter& prepared_interpreter(const CompiledModel& model) {
  HDC_CHECK(model.interpreter != nullptr,
            "compiled model has no prepared interpreter (build it with EdgeTpuCompiler)");
  return *model.interpreter;
}

}  // namespace

ExecutionStats& ExecutionStats::operator+=(const ExecutionStats& other) {
  device_compute += other.device_compute;
  host_compute += other.host_compute;
  transfer += other.transfer;
  weight_upload += other.weight_upload;
  // Sequential composition: back-to-back pipelined batches append makespans.
  pipelined_makespan += other.pipelined_makespan;
  retry_backoff += other.retry_backoff;
  invocations += other.invocations;
  device_macs += other.device_macs;
  host_element_ops += other.host_element_ops;
  transfer_retries += other.transfer_retries;
  nak_stalls += other.nak_stalls;
  sram_scrubs += other.sram_scrubs;
  device_detaches += other.device_detaches;
  invoke_retries += other.invoke_retries;
  fallback_samples += other.fallback_samples;
  deadline_abandons += other.deadline_abandons;
  return *this;
}

EdgeTpuDevice::EdgeTpuDevice(SystolicConfig systolic, UsbLinkConfig link,
                             std::uint64_t sram_capacity_bytes)
    : mxu_(systolic), link_(link), memory_(sram_capacity_bytes) {}

void EdgeTpuDevice::set_trace(obs::TraceContext* trace) noexcept {
  trace_ = trace;
  mxu_.set_trace(trace);
  memory_.set_trace(trace);
  if (faults_) {
    faults_->set_trace(trace);
  }
  if (trace_ == nullptr) {
    return;
  }
  if (obs::MetricsRegistry* metrics = trace_->metrics()) {
    // Configured capability envelope, published once so derived reports
    // (obs::ProfileReport) can compare achieved rates against peak without
    // reaching back into the device configuration.
    const SystolicConfig& mxu = mxu_.config();
    metrics->gauge("mxu.peak_macs_per_s")
        .set(static_cast<double>(mxu.rows) * static_cast<double>(mxu.cols) *
             mxu.frequency_hz);
    metrics->gauge("usb.bandwidth_bytes_per_s").set(link_.config().bandwidth_bytes_per_s);
    metrics->gauge("sram.capacity_bytes").set(static_cast<double>(memory_.capacity()));
  }
}

void EdgeTpuDevice::set_fault_injector(FaultInjector injector) {
  faults_ = std::move(injector);
  faults_->set_trace(trace_);
}

ExecutionStats EdgeTpuDevice::load(const CompiledModel& model) {
  ExecutionStats stats;
  if (!model.has_device_segment() || memory_.lookup(model.id)) {
    return stats;
  }
  if (!memory_.fits(model.report.weight_bytes)) {
    // Cannot be cached on-chip: parameters stay host-side and stream on
    // every invocation (priced in per_sample_cost), so there is no one-time
    // upload to charge here.
    return stats;
  }
  stats.weight_upload = link_.transfer_time(model.report.weight_bytes);
  memory_.make_resident(model.id, model.report.weight_bytes);
  if (trace_ != nullptr) {
    trace_->span(obs::Track::kLink, "usb.weight_upload", stats.weight_upload,
                 {{"bytes", model.report.weight_bytes}, {"model", model.id}});
    if (obs::MetricsRegistry* metrics = trace_->metrics()) {
      metrics->counter("tpu.weight_uploads").add(1);
      metrics->counter("tpu.weight_upload_bytes").add(model.report.weight_bytes);
      metrics->counter("usb.transfers").add(1);
      metrics->counter("usb.bytes").add(model.report.weight_bytes);
    }
  }
  return stats;
}

ExecutionStats EdgeTpuDevice::load_coresident(
    const std::vector<const CompiledModel*>& models, bool* all_resident) {
  HDC_CHECK(!models.empty(), "no models to load");
  std::uint64_t total_bytes = 0;
  for (const CompiledModel* model : models) {
    HDC_CHECK(model != nullptr, "null model in co-residency group");
    if (model->has_device_segment()) {
      total_bytes += model->report.weight_bytes;
    }
  }

  ExecutionStats stats;
  if (!memory_.fits(total_bytes) || total_bytes > memory_.capacity()) {
    if (all_resident != nullptr) {
      *all_resident = false;
    }
    return stats;
  }

  memory_.evict();
  bool ok = true;
  for (const CompiledModel* model : models) {
    if (!model->has_device_segment()) {
      continue;
    }
    ok = memory_.add_resident(model->id, model->report.weight_bytes) && ok;
  }
  stats.weight_upload = link_.transfer_time(total_bytes);
  if (all_resident != nullptr) {
    *all_resident = ok;
  }
  return stats;
}

ExecutionStats EdgeTpuDevice::sample_compute_cost(const CompiledModel& model,
                                                  const HostCostModel& host) const {
  HDC_CHECK(host.mac_rate > 0.0 && host.element_rate > 0.0,
            "host cost model rates must be positive");
  ExecutionStats stats;
  stats.invocations = 1;

  std::uint64_t device_cycles = 0;
  for (std::size_t i = 0; i < model.model.ops.size(); ++i) {
    const auto& op = model.model.ops[i];
    const auto& plan = model.plan[i];
    if (plan.placement == Placement::kDevice) {
      if (op.code == lite::OpCode::kFullyConnected) {
        const auto& weights = model.model.tensor(op.inputs[1]);
        device_cycles += mxu_.matmul_cycles(1, weights.shape[0], weights.shape[1]);
        stats.device_macs += plan.macs_per_sample;
      } else {
        device_cycles += mxu_.elementwise_cycles(plan.elements);
      }
    } else {
      // Host fallback: QUANTIZE / DEQUANTIZE / ARG_MAX are elementwise
      // passes; a float FULLY_CONNECTED (non-quantized model) prices as
      // dense MACs.
      if (op.code == lite::OpCode::kFullyConnected) {
        stats.host_compute +=
            SimDuration::seconds(static_cast<double>(plan.macs_per_sample) / host.mac_rate);
      } else {
        stats.host_compute +=
            SimDuration::seconds(static_cast<double>(plan.elements) / host.element_rate);
        stats.host_element_ops += plan.elements;
      }
    }
  }
  stats.device_compute =
      SimDuration::cycles(device_cycles, mxu_.config().frequency_hz);
  return stats;
}

ExecutionStats EdgeTpuDevice::per_sample_cost(const CompiledModel& model,
                                              const InvokeOptions& options,
                                              const HostCostModel& host) const {
  ExecutionStats stats = sample_compute_cost(model, host);

  if (model.has_device_segment()) {
    stats.transfer += link_.config().invoke_overhead;
    stats.transfer += link_.transfer_time(model.device_input_bytes);
    stats.transfer += link_.transfer_time(model.device_output_bytes);
    if (options.interactive) {
      stats.transfer += link_.config().interactive_round_trip;
    }
    if (!memory_.fits(model.report.weight_bytes)) {
      // Oversized models stream parameters from host memory every run.
      stats.weight_upload += link_.transfer_time(model.report.weight_bytes);
    }
  }
  return stats;
}

ExecutionStats EdgeTpuDevice::invoke_timing(const CompiledModel& model,
                                            std::uint64_t num_samples,
                                            const InvokeOptions& options,
                                            const HostCostModel& host) {
  HDC_CHECK(num_samples > 0, "invoke over zero samples");
  ExecutionStats per_sample = per_sample_cost(model, options, host);

  ExecutionStats stats = load(model);
  const auto n = static_cast<double>(num_samples);
  stats.device_compute += per_sample.device_compute * n;
  stats.host_compute += per_sample.host_compute * n;
  stats.transfer += per_sample.transfer * n;
  stats.weight_upload += per_sample.weight_upload * n;
  stats.invocations += num_samples;
  stats.device_macs += per_sample.device_macs * num_samples;
  stats.host_element_ops += per_sample.host_element_ops * num_samples;

  if (options.pipelined && !options.interactive && model.has_device_segment()) {
    // Double-buffered streaming: replay the per-sample stages through the
    // discrete-event pipeline simulator (host core, half-duplex link,
    // accelerator as contended FIFO resources).
    StageTimes stages;
    stages.host = per_sample.host_compute;
    stages.link_in = link_.config().invoke_overhead +
                     link_.transfer_time(model.device_input_bytes) +
                     per_sample.weight_upload;  // oversized models re-stream
    stages.device = per_sample.device_compute;
    stages.link_out = link_.transfer_time(model.device_output_bytes);
    stats.pipelined_makespan =
        simulate_stream(stages, num_samples, /*double_buffered=*/true).makespan;
  }

  if (trace_ != nullptr) {
    const std::vector<obs::TraceArg> samples_arg = {{"samples", num_samples}};
    if (!stats.pipelined_makespan.is_zero()) {
      // Overlapped streaming: the per-stage spans share a start (the
      // un-overlapped work on each component's track) under one makespan
      // span, which is what actually advances the timeline.
      const SimDuration start = trace_->now();
      trace_->span_at(obs::Track::kLink, "usb.transfer", start, per_sample.transfer * n,
                      samples_arg);
      trace_->span_at(obs::Track::kDevice, "mxu.invoke", start,
                      per_sample.device_compute * n,
                      {{"samples", num_samples}, {"macs", stats.device_macs}});
      if (!per_sample.host_compute.is_zero()) {
        trace_->span_at(obs::Track::kHost, "host.compute", start,
                        per_sample.host_compute * n, samples_arg);
      }
      trace_->span(obs::Track::kExecutor, "pipeline.makespan", stats.pipelined_makespan,
                   samples_arg);
    } else {
      // Serial composition: phase spans laid back to back, so their sum (plus
      // any weight upload) equals ExecutionStats::total() exactly.
      trace_->span(obs::Track::kLink, "usb.transfer", per_sample.transfer * n,
                   {{"samples", num_samples},
                    {"input_bytes", model.device_input_bytes},
                    {"output_bytes", model.device_output_bytes}});
      if (!per_sample.weight_upload.is_zero()) {
        trace_->span(obs::Track::kLink, "usb.weight_stream", per_sample.weight_upload * n,
                     {{"samples", num_samples}, {"bytes", model.report.weight_bytes}});
      }
      trace_->span(obs::Track::kDevice, "mxu.invoke", per_sample.device_compute * n,
                   {{"samples", num_samples}, {"macs", stats.device_macs}});
      if (!per_sample.host_compute.is_zero()) {
        trace_->span(obs::Track::kHost, "host.compute", per_sample.host_compute * n,
                     {{"samples", num_samples}, {"element_ops", stats.host_element_ops}});
      }
    }
    if (obs::MetricsRegistry* metrics = trace_->metrics()) {
      metrics->counter("tpu.invocations").add(num_samples);
      metrics->counter("tpu.device_macs").add(stats.device_macs);
      metrics->counter("tpu.host_element_ops").add(stats.host_element_ops);
      metrics->histogram("tpu.sample_latency")
          .observe(per_sample.total(), num_samples);
      if (model.has_device_segment()) {
        // The analytic path prices transfers in bulk instead of calling
        // checked_transfer per sample; publish the equivalent link counters
        // so effective-bandwidth derivations see the same traffic either way.
        metrics->counter("usb.transfers").add(2 * num_samples);
        metrics->counter("usb.bytes")
            .add((model.device_input_bytes + model.device_output_bytes) * num_samples);
        if (!memory_.fits(model.report.weight_bytes)) {
          metrics->counter("usb.transfers").add(num_samples);
          metrics->counter("usb.bytes").add(model.report.weight_bytes * num_samples);
        }
      }
    }
  }
  return stats;
}

TpuProgram EdgeTpuDevice::trace(const CompiledModel& model) const {
  const ProgramAssembler assembler(mxu_.config());
  return assembler.assemble(model);
}

lite::InferenceResult EdgeTpuDevice::compute_outputs(const CompiledModel& model,
                                                     const tensor::MatrixF& inputs) const {
  // Bit-exact int8 semantics; equivalence of the MXU tile engine with
  // these reference kernels is established by the systolic property tests.
  return prepared_interpreter(model).run(inputs, trace_);
}

std::pair<lite::InferenceResult, ExecutionStats> EdgeTpuDevice::invoke(
    const CompiledModel& model, const tensor::MatrixF& inputs, const InvokeOptions& options,
    const HostCostModel& host) {
  if (faults_ && faults_->enabled()) {
    return invoke_with_faults(model, inputs, options, host);
  }
  ExecutionStats stats =
      invoke_timing(model, static_cast<std::uint64_t>(inputs.rows()), options, host);

  lite::InferenceResult result;
  if (options.mode == ExecutionMode::kFunctional) {
    result = compute_outputs(model, inputs);
  }
  clock_ += stats.total();
  return {std::move(result), stats};
}

std::pair<lite::InferenceResult, ExecutionStats> EdgeTpuDevice::invoke_with_faults(
    const CompiledModel& model, const tensor::MatrixF& inputs, const InvokeOptions& options,
    const HostCostModel& host) {
  const auto num_samples = static_cast<std::uint64_t>(inputs.rows());
  HDC_CHECK(num_samples > 0, "invoke over zero samples");
  const bool functional = options.mode == ExecutionMode::kFunctional;
  lite::InferenceResult result;
  if (functional) {
    result = compute_outputs(model, inputs);
  }
  ExecutionStats stats;
  for (std::size_t row = 0; row < num_samples; ++row) {
    invoke_sample(model, functional ? inputs.row(row) : std::span<const float>{},
                  functional ? result.values.row(row) : std::span<const float>{}, row, options,
                  host, stats);
  }
  return {std::move(result), stats};
}

void EdgeTpuDevice::invoke_sample(const CompiledModel& model, std::span<const float> input,
                                  std::span<const float> output, std::uint64_t sample,
                                  const InvokeOptions& options, const HostCostModel& host,
                                  ExecutionStats& stats) {
  HDC_CHECK(faults_ && faults_->enabled(), "invoke_sample needs an enabled fault injector");
  FaultInjector* faults = &*faults_;

  // Frame checksum of a parameter upload: CRC32 chained over every constant
  // tensor.
  const auto parameter_crc = [&] {
    std::uint32_t crc = 0;
    for (const auto& tensor : model.model.tensors) {
      if (tensor.is_constant()) {
        crc = crc32(tensor.data.data(), tensor.data.size(), crc);
      }
    }
    return crc;
  };

  // Portion of stats.total() already folded into the device clock; faults
  // must still charge the simulated time their failed attempt consumed.
  const SimDuration accounted = stats.total();
  const auto sync_clock = [&] { clock_ += stats.total() - accounted; };
  const auto charge_link = [&stats](const TransferReport& report, SimDuration& bucket) {
    bucket += report.time;
    stats.transfer_retries += report.crc_retries;
    stats.nak_stalls += report.nak_stalls;
  };

  // Bus presence: a detach drops the device and its SRAM contents.
  if (faults->detached(clock_)) {
    memory_.evict();
    ExecutionStats partial = stats;
    partial.device_detaches += 1;
    sync_clock();
    throw DeviceLost("device detached from the bus", partial);
  }

  if (model.has_device_segment()) {
    // Parameter (re-)upload over the CRC-framed link when not resident.
    if (!memory_.lookup(model.id) && memory_.fits(model.report.weight_bytes)) {
      const TransferReport upload = link_.checked_transfer(model.report.weight_bytes,
                                                           parameter_crc(), faults, trace_);
      charge_link(upload, stats.weight_upload);
      if (!upload.delivered) {
        sync_clock();
        throw TransferCorrupt("parameter upload failed CRC verification", stats);
      }
      memory_.make_resident(model.id, model.report.weight_bytes);
    }

    // SRAM scrub at the invocation boundary: bit flips in resident
    // parameters are detected before they can silently corrupt outputs.
    if (memory_.is_resident(model.id) && faults->sram_bitflips(model.report.weight_bytes) > 0) {
      memory_.evict(model.id);
      ExecutionStats partial = stats;
      partial.sram_scrubs += 1;
      sync_clock();
      throw SramCorrupt("parameter SRAM failed scrubbing; weights evicted", partial);
    }

    stats.transfer += link_.config().invoke_overhead;
    if (trace_ != nullptr) {
      trace_->span(obs::Track::kLink, "usb.invoke_overhead", link_.config().invoke_overhead);
    }
    const TransferReport in = link_.checked_transfer(
        model.device_input_bytes, crc32(input.data(), input.size_bytes()), faults, trace_);
    charge_link(in, stats.transfer);
    if (!in.delivered) {
      sync_clock();
      throw TransferCorrupt("input activation transfer failed CRC verification", stats);
    }
    if (!memory_.fits(model.report.weight_bytes)) {
      // Oversized models re-stream parameters from host memory every run.
      const TransferReport stream = link_.checked_transfer(model.report.weight_bytes,
                                                           parameter_crc(), faults, trace_);
      charge_link(stream, stats.weight_upload);
      if (!stream.delivered) {
        sync_clock();
        throw TransferCorrupt("streamed parameter transfer failed CRC verification", stats);
      }
    }
  }

  const ExecutionStats compute = sample_compute_cost(model, host);
  stats += compute;
  if (trace_ != nullptr) {
    trace_->span(obs::Track::kDevice, "mxu.invoke", compute.device_compute,
                 {{"sample", sample}, {"macs", compute.device_macs}});
    if (!compute.host_compute.is_zero()) {
      trace_->span(obs::Track::kHost, "host.compute", compute.host_compute,
                   {{"sample", sample}});
    }
    if (obs::MetricsRegistry* metrics = trace_->metrics()) {
      metrics->counter("tpu.invocations").add(1);
      metrics->counter("tpu.device_macs").add(compute.device_macs);
      metrics->histogram("tpu.sample_latency")
          .observe(compute.device_compute + compute.host_compute);
    }
  }

  if (model.has_device_segment()) {
    const TransferReport out = link_.checked_transfer(
        model.device_output_bytes, crc32(output.data(), output.size_bytes()), faults, trace_);
    charge_link(out, stats.transfer);
    if (!out.delivered) {
      sync_clock();
      throw TransferCorrupt("output transfer failed CRC verification", stats);
    }
    if (options.interactive) {
      stats.transfer += link_.config().interactive_round_trip;
      if (trace_ != nullptr) {
        trace_->span(obs::Track::kLink, "usb.round_trip", link_.config().interactive_round_trip);
      }
    }
  }
  sync_clock();
}

}  // namespace hdc::tpu

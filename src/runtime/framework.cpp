#include "runtime/framework.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "lite/builder.hpp"
#include "lite/quantize.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"

namespace hdc::runtime {
namespace {

double measured_update_fraction(const std::vector<core::EpochStats>& history,
                                std::uint64_t samples) {
  if (history.empty() || samples == 0) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& epoch : history) {
    total += static_cast<double>(epoch.updates) / static_cast<double>(samples);
  }
  return total / static_cast<double>(history.size());
}

}  // namespace

CoDesignFramework::CoDesignFramework(SystemConfig config)
    : config_(std::move(config)),
      cost_(config_.host, config_.systolic, config_.link, config_.sram_bytes) {
  config_.host.validate();
  HDC_CHECK(config_.calibration_samples > 0, "calibration needs at least one sample");
}

void CoDesignFramework::publish_train_metrics(const TrainTimings& timings) const {
  if (trace_ == nullptr) {
    return;
  }
  if (obs::MetricsRegistry* metrics = trace_->metrics()) {
    metrics->gauge("train.encode_s").set(timings.encode.to_seconds());
    metrics->gauge("train.update_s").set(timings.update.to_seconds());
    metrics->gauge("train.model_gen_s").set(timings.model_gen.to_seconds());
    metrics->gauge("train.total_s").set(timings.total().to_seconds());
  }
}

void CoDesignFramework::publish_infer_metrics(const InferTimings& timings,
                                              double accuracy,
                                              std::size_t samples) const {
  if (trace_ == nullptr) {
    return;
  }
  if (obs::MetricsRegistry* metrics = trace_->metrics()) {
    metrics->counter("infer.samples").add(samples);
    metrics->gauge("infer.total_s").set(timings.total.to_seconds());
    metrics->gauge("infer.per_sample_s").set(timings.per_sample.to_seconds());
    metrics->gauge("infer.accuracy").set(accuracy);
  }
}

tensor::MatrixF CoDesignFramework::representative_rows(const data::Dataset& dataset) const {
  const std::size_t n =
      std::min<std::size_t>(config_.calibration_samples, dataset.num_samples());
  tensor::MatrixF rows(n, dataset.num_features());
  std::copy_n(dataset.features.data(), n * dataset.num_features(), rows.data());
  return rows;
}

tensor::MatrixF CoDesignFramework::encode_on_tpu(const core::Encoder& encoder,
                                                 const tensor::MatrixF& samples,
                                                 const tensor::MatrixF& representative,
                                                 SimDuration* encode_time,
                                                 SimDuration* model_gen_time) const {
  // Lower the encode half of the wide NN, quantize it against representative
  // inputs, compile for the accelerator, and stream the samples through.
  const lite::LiteModel float_model = lite::build_encode_model(encoder);
  const lite::LiteModel quantized =
      lite::quantize_model(float_model, representative, config_.quantize);

  const tpu::EdgeTpuCompiler compiler(config_.systolic, config_.sram_bytes);
  const tpu::CompiledModel compiled = compiler.compile(quantized);

  tpu::EdgeTpuDevice device(config_.systolic, config_.link, config_.sram_bytes);
  device.set_trace(trace_);
  tpu::InvokeOptions options;
  options.mode = tpu::ExecutionMode::kFunctional;
  options.interactive = false;  // training encodes are streamed
  const SimDuration encode_start = trace_ != nullptr ? trace_->now() : SimDuration();
  auto [result, stats] =
      device.invoke(compiled, samples, options, config_.host.host_cost_model());

  if (encode_time != nullptr) {
    // Host-side dequantization of the received int8 hypervectors.
    const SimDuration dequant = SimDuration::seconds(
        static_cast<double>(samples.rows()) * encoder.dim() / config_.host.element_rate);
    *encode_time += stats.total() + dequant;
    if (trace_ != nullptr) {
      trace_->span(obs::Track::kHost, "host.dequantize", dequant,
                   {{"samples", samples.rows()}, {"dim", encoder.dim()}});
      // Envelope over the device/link/host spans the invoke emitted.
      trace_->span_at(obs::Track::kTrainer, "train.encode", encode_start,
                      trace_->now() - encode_start, {{"samples", samples.rows()}});
    }
  }
  if (model_gen_time != nullptr) {
    *model_gen_time += compiled.report.host_compile_time;
    if (trace_ != nullptr) {
      trace_->span(obs::Track::kTrainer, "train.model_gen",
                   compiled.report.host_compile_time, {{"model", "encode"}});
    }
  }
  return std::move(result.values);
}

CoDesignFramework::TrainOutcome CoDesignFramework::train_cpu(
    const data::Dataset& train, const core::HdConfig& cfg,
    const data::Dataset* validation) const {
  train.validate();
  cfg.validate();

  core::Encoder encoder(static_cast<std::uint32_t>(train.num_features()), cfg.dim, cfg.seed);
  const core::Trainer trainer(cfg);
  core::TrainResult result = trainer.fit(encoder, train, validation);

  TrainOutcome outcome{core::TrainedClassifier{std::move(encoder), std::move(result.model)},
                       {}, std::move(result.history), 0.0};
  outcome.measured_update_fraction =
      measured_update_fraction(outcome.history, train.num_samples());

  outcome.timings.encode = cost_.encode_cpu(train.num_samples(),
                                            static_cast<std::uint32_t>(train.num_features()),
                                            cfg.dim, config_.host);
  outcome.timings.update =
      cost_.update_phase(train.num_samples(), cfg.dim, train.num_classes, cfg.epochs,
                         outcome.measured_update_fraction, config_.host);
  if (trace_ != nullptr) {
    trace_->span(obs::Track::kTrainer, "train.encode", outcome.timings.encode,
                 {{"samples", train.num_samples()}, {"where", "cpu"}});
    trace_->span(obs::Track::kTrainer, "train.update", outcome.timings.update,
                 {{"epochs", cfg.epochs}});
  }
  publish_train_metrics(outcome.timings);
  return outcome;
}

CoDesignFramework::TrainOutcome CoDesignFramework::train_tpu(
    const data::Dataset& train, const core::HdConfig& cfg,
    const data::Dataset* validation) const {
  train.validate();
  cfg.validate();

  core::Encoder encoder(static_cast<std::uint32_t>(train.num_features()), cfg.dim, cfg.seed);
  const tensor::MatrixF representative = representative_rows(train);

  TrainTimings timings;
  const tensor::MatrixF encoded = encode_on_tpu(encoder, train.features, representative,
                                                &timings.encode, &timings.model_gen);

  const core::Trainer trainer(cfg);
  core::TrainResult result = [&] {
    if (validation != nullptr) {
      // Validation encodes through the same quantized path (not charged to
      // training time — it is experiment instrumentation).
      const tensor::MatrixF val_encoded =
          encode_on_tpu(encoder, validation->features, representative, nullptr, nullptr);
      return trainer.fit_encoded(encoded, train.labels, train.num_classes, &val_encoded,
                                 &validation->labels);
    }
    return trainer.fit_encoded(encoded, train.labels, train.num_classes);
  }();

  TrainOutcome outcome{core::TrainedClassifier{std::move(encoder), std::move(result.model)},
                       timings, std::move(result.history), 0.0};
  outcome.measured_update_fraction =
      measured_update_fraction(outcome.history, train.num_samples());
  outcome.timings.update =
      cost_.update_phase(train.num_samples(), cfg.dim, train.num_classes, cfg.epochs,
                         outcome.measured_update_fraction, config_.host);
  if (trace_ != nullptr) {
    trace_->span(obs::Track::kTrainer, "train.update", outcome.timings.update,
                 {{"epochs", cfg.epochs},
                  {"update_fraction", outcome.measured_update_fraction}});
  }

  // The deployable inference model is generated (and compiled) once at the
  // end of training; the paper books this under training model-gen cost.
  const tpu::EdgeTpuCompiler compiler(config_.systolic, config_.sram_bytes);
  const auto infer_shape = compiler.compile(make_int8_chain_model(
      "infer_gen", static_cast<std::uint32_t>(train.num_features()), cfg.dim,
      train.num_classes));
  outcome.timings.model_gen += infer_shape.report.host_compile_time;
  if (trace_ != nullptr) {
    trace_->span(obs::Track::kTrainer, "train.model_gen",
                 infer_shape.report.host_compile_time, {{"model", "infer"}});
  }
  publish_train_metrics(outcome.timings);
  return outcome;
}

CoDesignFramework::TrainOutcome CoDesignFramework::train_tpu_bagging(
    const data::Dataset& train, const core::BaggingConfig& cfg) const {
  const tensor::MatrixF representative = representative_rows(train);
  TrainTimings timings;
  double update_fraction_sum = 0.0;

  // Each member's subset encodes through the quantized encode model on the
  // TPU; its class update runs (and is priced) on the host.
  const core::BaggedEnsemble ensemble = core::train_bagged(
      train, cfg,
      [&](std::uint32_t m, const core::Trainer& trainer, const core::Encoder& encoder,
          const data::Dataset& subset) {
        const tensor::MatrixF encoded = encode_on_tpu(encoder, subset.features, representative,
                                                      &timings.encode, &timings.model_gen);
        core::TrainResult result =
            trainer.fit_encoded(encoded, subset.labels, subset.num_classes);

        const double update_fraction =
            measured_update_fraction(result.history, subset.num_samples());
        const SimDuration member_update =
            cost_.update_phase(subset.num_samples(), encoder.dim(), subset.num_classes,
                               cfg.epochs, update_fraction, config_.host);
        timings.update += member_update;
        if (trace_ != nullptr) {
          trace_->span(obs::Track::kTrainer, "train.update", member_update,
                       {{"member", m}, {"epochs", cfg.epochs}});
        }
        update_fraction_sum += update_fraction;
        return result;
      });
  core::TrainedClassifier stacked = core::stack(ensemble);

  // One stacked full-width inference model is generated at the end.
  const tpu::EdgeTpuCompiler compiler(config_.systolic, config_.sram_bytes);
  const auto stacked_shape = compiler.compile(make_int8_chain_model(
      "infer_stacked_gen", stacked.num_features(), stacked.dim(), train.num_classes));
  timings.model_gen += stacked_shape.report.host_compile_time;
  if (trace_ != nullptr) {
    trace_->span(obs::Track::kTrainer, "train.model_gen",
                 stacked_shape.report.host_compile_time,
                 {{"model", "infer_stacked"}, {"members", cfg.num_models}});
  }

  TrainOutcome outcome{std::move(stacked), timings, ensemble.training.front().history,
                       update_fraction_sum / static_cast<double>(cfg.num_models)};
  publish_train_metrics(outcome.timings);
  return outcome;
}

CoDesignFramework::InferOutcome CoDesignFramework::infer_cpu(
    const core::TrainedClassifier& classifier, const data::Dataset& test) const {
  test.validate();
  const lite::LiteModel model = lite::build_inference_model(classifier);

  const platform::CpuExecutor executor(config_.host);
  auto [result, total] =
      executor.run(model, test.features, tpu::ExecutionMode::kFunctional, trace_);
  HDC_CHECK(result.has_classes, "inference model must end in ARG_MAX");

  InferOutcome outcome;
  outcome.predictions.assign(result.classes.begin(), result.classes.end());
  outcome.accuracy = data::accuracy(outcome.predictions, test.labels);
  outcome.timings.total = total;
  outcome.timings.per_sample = total * (1.0 / static_cast<double>(test.num_samples()));
  publish_infer_metrics(outcome.timings, outcome.accuracy, test.num_samples());
  return outcome;
}

CoDesignFramework::LoweredModel CoDesignFramework::lower_classifier(
    const core::TrainedClassifier& classifier, const data::Dataset& representative,
    const std::string& name) const {
  lite::LiteModel float_model = lite::build_inference_model(classifier, name);
  const lite::LiteModel quantized = lite::quantize_model(
      float_model, representative_rows(representative), config_.quantize);
  const tpu::EdgeTpuCompiler compiler(config_.systolic, config_.sram_bytes);
  tpu::CompiledModel compiled = compiler.compile(quantized);
  return LoweredModel{std::move(float_model), std::move(compiled)};
}

ServingEndpoint::ServingEndpoint(const CoDesignFramework& framework,
                                 const tpu::FaultProfile& faults, RetryPolicy policy)
    : framework_(framework),
      policy_(policy),
      device_(framework.config().systolic, framework.config().link,
              framework.config().sram_bytes),
      cpu_(framework.config().host) {
  faults.validate();
  policy_.validate();
  device_.set_trace(framework.trace_context());
  device_.set_fault_injector(tpu::FaultInjector(faults));
}

void ServingEndpoint::deploy(ServeTier tier, const core::TrainedClassifier& classifier,
                             const data::Dataset& representative) {
  HDC_CHECK(tier != ServeTier::kHost,
            "the host tier shares the reduced tier's model; deploy kReduced instead");
  const char* name = tier == ServeTier::kFull ? "serve_full" : "serve_reduced";
  Model lowered = framework_.lower_classifier(classifier, representative, name);
  // Upload rides the one-time-load convention (uncharged, like infer_tpu's).
  device_.load(lowered.compiled);
  tiers_[static_cast<std::size_t>(tier)] = std::move(lowered);
}

const ServingEndpoint::Model& ServingEndpoint::model(ServeTier tier) const {
  const std::optional<Model>& slot = tiers_[tier == ServeTier::kFull ? 0 : 1];
  HDC_CHECK(slot.has_value(), "serving tier has no deployed model");
  return *slot;
}

void ServingEndpoint::activate(ServeTier tier) {
  if (tier == ServeTier::kHost) {
    return;
  }
  // Residency tracks the active tier; the result of load is discarded. The
  // upload span is recorded outside the request scope with the cursor
  // pinned: an uncharged switch is endpoint state management, not part of
  // the request's causal chain, and advancing the cursor would misplace the
  // charged spans that follow (a resumed session redoes the switch a warm
  // one already did).
  const tpu::CompiledModel& compiled = model(tier).compiled;
  obs::TraceContext* trace = framework_.trace_context();
  if (trace == nullptr) {
    device_.load(compiled);
    return;
  }
  const std::int64_t active = trace->active_request();
  const SimDuration cursor = trace->now();
  trace->end_request();
  device_.load(compiled);
  trace->set_now(cursor);
  if (active >= 0) {
    trace->begin_request(static_cast<std::uint64_t>(active));
  }
}

void ServingEndpoint::sync_clock(SimDuration at) {
  if (device_.clock() < at) {
    device_.advance_clock(at - device_.clock());
  }
}

SimDuration ServingEndpoint::swap(const Model& model, SimDuration at) {
  sync_clock(at);
  const SimDuration upload = device_.load(model.compiled).weight_upload;
  device_.advance_clock(upload);
  return upload;
}

ServingEndpoint::BatchOutcome ServingEndpoint::infer(const Model& model, ServeTier tier,
                                                     const tpu::InvokeOptions& options,
                                                     const tensor::MatrixF& inputs,
                                                     SimDuration start,
                                                     SimDuration sample_deadline,
                                                     obs::RequestTrace* request) {
  if (request != nullptr) {
    // Service spans start at the admission decision, after any queue wait.
    request->cursor = start;
  }
  BatchOutcome outcome;
  lite::InferenceResult result;
  if (tier == ServeTier::kHost) {
    // The float model on the CPU. The device is not touched: its clock, SRAM
    // and detach schedule sit idle until a probe.
    SimDuration time;
    std::tie(result, time) =
        cpu_.run(model.float_model, inputs, options.mode, framework_.trace_context());
    if (request != nullptr) {
      append_stage_spans(*request, {}, time);
    }
    outcome.report.cpu_fallback_time = time;
    outcome.report.cpu_samples = inputs.rows();
  } else {
    sync_clock(start);
    RetryPolicy policy = policy_;
    policy.sample_deadline = sample_deadline;
    ResilientExecutor executor(&device_, cpu_, policy);
    executor.set_trace(framework_.trace_context());
    ResilientExecutor::Outcome run =
        executor.run(model.compiled, model.float_model, inputs, options, request);
    result = std::move(run.result);
    outcome.report = run.report;
  }
  HDC_CHECK(result.has_classes, "inference model must end in ARG_MAX");
  outcome.predictions.assign(result.classes.begin(), result.classes.end());
  outcome.scores = std::move(result.values);
  outcome.total = outcome.report.total();
  return outcome;
}

SimDuration ServingEndpoint::nominal_per_sample(const Model& model, ServeTier tier) const {
  if (tier == ServeTier::kHost) {
    return cpu_.per_sample_time(model.float_model);
  }
  return device_
      .per_sample_cost(model.compiled, tpu::InvokeOptions{.interactive = true},
                       framework_.config().host.host_cost_model())
      .total();
}

CoDesignFramework::InferOutcome CoDesignFramework::infer_tpu(
    const core::TrainedClassifier& classifier, const data::Dataset& test,
    const data::Dataset& representative, const tpu::FaultProfile& faults,
    const RetryPolicy& policy, ResilienceReport* report) const {
  test.validate();
  ServingEndpoint endpoint(*this, faults, policy);
  const LoweredModel model = lower_classifier(classifier, representative);
  endpoint.device().load(model.compiled);  // one-time clean upload, excluded from timings
  const SimDuration infer_start = trace_ != nullptr ? trace_->now() : SimDuration();
  // The CPU fallback runs the float model — the exact model `infer_cpu`
  // executes, so fallback predictions match the all-CPU path sample for
  // sample.
  ServingEndpoint::BatchOutcome outcome =
      endpoint.infer(model, ServeTier::kFull, tpu::InvokeOptions{.interactive = true},
                     test.features, SimDuration(), policy.sample_deadline);

  InferOutcome infer;
  infer.predictions = std::move(outcome.predictions);
  infer.accuracy = data::accuracy(infer.predictions, test.labels);
  // device_stats' weight_upload is what the run itself moved (fault-induced
  // re-uploads, and the per-invoke weight stream of a model larger than the
  // parameter SRAM), so it is charged.
  infer.timings.total = outcome.total;
  infer.timings.per_sample =
      infer.timings.total * (1.0 / static_cast<double>(test.num_samples()));
  infer.compile_report = model.compiled.report;
  if (trace_ != nullptr) {
    trace_->span_at(obs::Track::kExecutor, "infer.tpu", infer_start,
                    trace_->now() - infer_start,
                    {{"samples", test.num_samples()},
                     {"tpu_samples", outcome.report.tpu_samples},
                     {"cpu_samples", outcome.report.cpu_samples},
                     {"accuracy", infer.accuracy}});
  }
  publish_infer_metrics(infer.timings, infer.accuracy, test.num_samples());
  if (report != nullptr) {
    *report = outcome.report;
  }
  return infer;
}

}  // namespace hdc::runtime

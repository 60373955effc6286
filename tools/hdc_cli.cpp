// hdc — command-line front end for the co-design framework.
//
//   hdc train <train.csv> --out model.hdcm [--dim N] [--epochs N]
//             [--bagging M] [--alpha A] [--seed S] [--threads N]
//             [--trace out.trace.json] [--metrics out.metrics.json]
//             [--profile out.profile.json]
//   hdc infer <test.csv> --model model.hdcm [--tpu]
//             [--fault-profile corrupt=P,nak=P,sram=R,detach=T,reattach=T,seed=N]
//             [--trace out.trace.json] [--metrics out.metrics.json]
//             [--profile out.profile.json] [--trace-cap N]
//   hdc compile <model.hdcm> --out model.hdlt [--per-channel] [--classes-only]
//   hdc describe <model.hdlt>
//   hdc autotune <train.csv> [--dim N] [--margin F]
//   hdc datasets
//   hdc serve <dataset> [--chunks N] [--chunk-size N] [--warmup N] [--dim N]
//             [--seed S] [--online] [--refresh N]
//             [--drift-start N] [--drift-duration N]
//             [--fault-profile spec] [--window-span S] [--slo-ms MS]
//             [--alarm-drift F] [--alarm-error F] [--alarm-burn F]
//             [--snapshot-dir DIR] [--snapshot-every N] [--prom FILE]
//             [--log-json FILE] [--trace FILE] [--exemplars FILE]
//             [--requests FILE] [--devices N] [--tenants N] [--batch-max N]
//   hdc trace analyze <trace.json|exemplars.jsonl> [--top N] [--req ID]
//             [--assert-attribution]
//   hdc model inspect <snapshot.json|checkpoint> [--tenant N]
//             [--assert-conservation]
//   hdc energy inspect <snapshot.json|checkpoint> [--tenant N]
//             [--assert-conservation]
//
// `hdc serve` pumps a synthetic drift stream (one of the Table-I presets)
// through the fault-tolerant TPU inference path with prequential evaluation
// and live monitoring: sliding-window accuracy/latency percentiles, SLO burn
// rate, margin-collapse drift detection and edge-triggered alarms, exported
// as deterministic hdc-monitor-v1 JSON snapshots and Prometheus text files.
// See docs/OBSERVABILITY.md ("Live serving monitor").
//
// CSV convention: one sample per row, label in the last column (strings or
// integers; densified automatically). Features are min-max normalized with
// statistics of the file being processed.
//
// --trace writes a Chrome trace-event JSON (open in Perfetto / about:tracing)
// of the run's simulated timeline; --metrics writes the counter/gauge/
// histogram registry as JSON and prints it as a table; --profile derives
// per-component utilization (MXU occupancy, link bandwidth, cache hit rate,
// host-pool speedup) from the same recording, writes it as JSON and prints
// it as a table. See docs/OBSERVABILITY.md.
//
// --threads N sets the host worker pool size for encoding, batch scoring and
// bagged member training (default: HDC_THREADS env var, else all hardware
// threads). Models and predictions are bit-identical for any thread count.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/serialize.hpp"
#include "data/csv.hpp"
#include "data/synthetic.hpp"
#include "lite/builder.hpp"
#include "lite/printer.hpp"
#include "lite/quantize.hpp"
#include "lite/serialize.hpp"
#include "nn/wide_nn.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "obs/request_trace.hpp"
#include "runtime/autotune.hpp"
#include "runtime/framework.hpp"
#include "runtime/router.hpp"
#include "runtime/serve.hpp"
#include "tpu/compiler.hpp"
#include "inspect_lib.hpp"
#include "traceq_lib.hpp"

namespace {

using namespace hdc;

/// The value after `flag`, or `fallback` when the flag is absent. A flag with
/// nothing after it, or followed by another `--` option, has no value: that
/// is an error naming the flag, not a silent fall back to the default.
const char* arg_value(int argc, char** argv, const char* flag, const char* fallback) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      HDC_CHECK(i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0,
                std::string(flag) + " needs a value");
      return argv[i + 1];
    }
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

data::Dataset load_normalized(const std::string& path) {
  data::Dataset ds = data::load_csv(path);
  data::MinMaxNormalizer norm;
  norm.fit(ds);
  norm.apply(ds);
  return ds;
}

/// Strict unsigned-integer parse: the whole string must be a decimal
/// number. Returns false on empty input, sign characters, trailing garbage
/// ("12abc") or overflow, so no caller acts on what strtoull happened to
/// accept: `numeric_flag` turns a false into an error, `--trace-cap` into a
/// warning that keeps its default.
bool parse_u64_strict(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text == '\0') {
    return false;
  }
  std::uint64_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      return false;
    }
    const auto digit = static_cast<std::uint64_t>(*p - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return false;  // overflow
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Strict real parse, the twin of `parse_u64_strict`: strtod must consume
/// the whole string, and the value must be finite.
bool parse_double_strict(const char* text, double* out) {
  if (text == nullptr || *text == '\0' || std::isspace(static_cast<unsigned char>(*text))) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (*end != '\0' || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

/// The one reader of numeric flags: nothing when `flag` is absent, else its
/// value, which must be a whole number in T's range (any finite number for a
/// floating-point T). Anything else is an error naming the flag. A signed T
/// accepts a leading '-', so each flag's own range check explains what it
/// accepts.
template <typename T>
std::optional<T> numeric_flag(int argc, char** argv, const char* flag) {
  const char* text = arg_value(argc, argv, flag, nullptr);
  if (text == nullptr) {
    return std::nullopt;
  }
  const auto malformed = [&](const std::string& expected) {
    return std::string(flag) + " expects " + expected + ", got '" + text + "'";
  };
  if constexpr (std::is_floating_point_v<T>) {
    double value = 0.0;
    HDC_CHECK(parse_double_strict(text, &value), malformed("a number"));
    return static_cast<T>(value);
  } else {
    const bool negative = std::is_signed_v<T> && text[0] == '-';
    const auto limit = static_cast<std::uint64_t>(std::numeric_limits<T>::max()) +
                       (negative ? 1U : 0U);
    std::uint64_t magnitude = 0;
    HDC_CHECK(parse_u64_strict(text + (negative ? 1 : 0), &magnitude) && magnitude <= limit,
              malformed(std::is_signed_v<T>
                            ? std::string("a whole number")
                            : "a whole number from 0 to " + std::to_string(limit)));
    return static_cast<T>(negative ? 0 - magnitude : magnitude);
  }
}

template <typename T>
T numeric_arg(int argc, char** argv, const char* flag, T fallback) {
  return numeric_flag<T>(argc, argv, flag).value_or(fallback);
}

/// Owns the optional tracer + metrics registry behind --trace / --metrics /
/// --profile. When none of the flags is given, `trace()` is null and the
/// run is untouched.
class TraceSession {
 public:
  TraceSession(int argc, char** argv) {
    const char* trace_path = arg_value(argc, argv, "--trace", nullptr);
    const char* metrics_path = arg_value(argc, argv, "--metrics", nullptr);
    const char* profile_path = arg_value(argc, argv, "--profile", nullptr);
    if (trace_path != nullptr) {
      trace_path_ = trace_path;
    }
    if (metrics_path != nullptr) {
      metrics_path_ = metrics_path;
    }
    if (profile_path != nullptr) {
      profile_path_ = profile_path;
    }
    if (trace_path_.empty() && metrics_path_.empty() && profile_path_.empty()) {
      return;
    }
    obs::TraceConfig config;
    const char* cap = arg_value(argc, argv, "--trace-cap", nullptr);
    if (cap != nullptr) {
      std::uint64_t parsed = 0;
      if (parse_u64_strict(cap, &parsed) && parsed > 0) {
        config.max_events = static_cast<std::size_t>(parsed);
      } else {
        std::fprintf(stderr,
                     "warning: ignoring malformed --trace-cap '%s' (expected a "
                     "positive integer); keeping the default of %zu events\n",
                     cap, config.max_events);
      }
    }
    trace_ = std::make_unique<obs::TraceContext>(config);
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    trace_->set_metrics(metrics_.get());
    pool_stats_start_ = parallel::pool_stats();
  }

  obs::TraceContext* trace() const noexcept { return trace_.get(); }

  /// Writes the requested files and prints the metrics table. Returns false
  /// (after printing an error) if a file could not be written.
  bool finish() const {
    if (trace_ == nullptr) {
      return true;
    }
    if (!trace_path_.empty()) {
      if (trace_->dropped() > 0) {
        std::fprintf(stderr,
                     "warning: trace truncated — dropped %zu spans beyond the "
                     "%zu-event cap (raise with --trace-cap)\n",
                     trace_->dropped(), trace_->config().max_events);
      }
      std::ofstream out(trace_path_);
      if (!out) {
        std::fprintf(stderr, "error: cannot write trace to %s\n", trace_path_.c_str());
        return false;
      }
      trace_->write_chrome_trace(out);
      std::printf("wrote %zu trace events to %s\n", trace_->size(), trace_path_.c_str());
    }
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      if (!out) {
        std::fprintf(stderr, "error: cannot write metrics to %s\n", metrics_path_.c_str());
        return false;
      }
      out << metrics_->to_json() << '\n';
      std::printf("wrote metrics to %s\n", metrics_path_.c_str());
    }
    if (!metrics_->empty() && (!metrics_path_.empty() || !trace_path_.empty())) {
      std::printf("%s", metrics_->to_table().c_str());
    }
    if (!profile_path_.empty()) {
      // Pool accounting over exactly this session's window: snapshot delta,
      // wall-clock only, never part of any simulated result.
      const parallel::PoolStats end = parallel::pool_stats();
      parallel::PoolStats window;
      window.regions = end.regions - pool_stats_start_.regions;
      window.chunks = end.chunks - pool_stats_start_.chunks;
      window.busy_seconds = end.busy_seconds - pool_stats_start_.busy_seconds;
      window.wall_seconds = end.wall_seconds - pool_stats_start_.wall_seconds;
      const obs::ProfileReport profile =
          obs::compute_profile(*trace_, *metrics_, &window, parallel::num_threads());
      std::ofstream out(profile_path_);
      if (!out) {
        std::fprintf(stderr, "error: cannot write profile to %s\n", profile_path_.c_str());
        return false;
      }
      out << profile.to_json() << '\n';
      std::printf("wrote profile to %s\n", profile_path_.c_str());
      std::printf("%s", profile.to_table().c_str());
    }
    return true;
  }

 private:
  std::unique_ptr<obs::TraceContext> trace_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string profile_path_;
  parallel::PoolStats pool_stats_start_;
};

int cmd_train(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: hdc train <train.csv> --out model.hdcm [options]\n");
    return 2;
  }
  const data::Dataset train = load_normalized(argv[2]);
  const std::string out_path = arg_value(argc, argv, "--out", "model.hdcm");

  core::HdConfig config;
  config.dim = numeric_arg<std::uint32_t>(argc, argv, "--dim", 4096);
  config.epochs = numeric_arg<std::uint32_t>(argc, argv, "--epochs", 20);
  config.seed = numeric_arg<std::uint64_t>(argc, argv, "--seed", 42);
  config.threads = numeric_arg<std::uint32_t>(argc, argv, "--threads", 0);

  const TraceSession session(argc, argv);
  runtime::CoDesignFramework framework;
  framework.set_trace(session.trace());
  const auto bagging_models = numeric_arg<std::uint32_t>(argc, argv, "--bagging", 0);

  runtime::CoDesignFramework::TrainOutcome outcome = [&] {
    if (bagging_models > 0) {
      core::BaggingConfig bagging;
      bagging.num_models = bagging_models;
      bagging.base = config;
      bagging.epochs = std::max<std::uint32_t>(1, config.epochs * 6 / 20);
      bagging.bootstrap.dataset_ratio = numeric_arg(argc, argv, "--alpha", 0.6);
      std::printf("training bagged model (M=%u, d'=%u, I'=%u, alpha=%.2f)...\n",
                  bagging.num_models, bagging.effective_sub_dim(), bagging.epochs,
                  bagging.bootstrap.dataset_ratio);
      return framework.train_tpu_bagging(train, bagging);
    }
    std::printf("training full model (d=%u, %u iterations)...\n", config.dim,
                config.epochs);
    return framework.train_tpu(train, config);
  }();

  core::save_classifier(outcome.classifier, out_path);
  std::printf("trained on %zu samples (%zu features, %u classes)\n", train.num_samples(),
              train.num_features(), train.num_classes);
  std::printf("final train accuracy: %.2f%%\n",
              100.0 * (outcome.history.empty() ? 0.0
                                               : outcome.history.back().train_accuracy));
  std::printf("simulated training time: encode %s, update %s, model-gen %s\n",
              outcome.timings.encode.to_string().c_str(),
              outcome.timings.update.to_string().c_str(),
              outcome.timings.model_gen.to_string().c_str());
  std::printf("saved %s\n", out_path.c_str());
  return session.finish() ? 0 : 1;
}

int cmd_infer(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: hdc infer <test.csv> --model model.hdcm [--tpu]\n"
                 "           [--fault-profile corrupt=P,nak=P,sram=R,detach=T,...]\n");
    return 2;
  }
  const data::Dataset test = load_normalized(argv[2]);
  const std::string model_path = arg_value(argc, argv, "--model", "model.hdcm");
  const core::TrainedClassifier classifier = core::load_classifier(model_path);

  const TraceSession session(argc, argv);
  runtime::CoDesignFramework framework;
  framework.set_trace(session.trace());
  const char* fault_spec = arg_value(argc, argv, "--fault-profile", nullptr);
  if (fault_spec != nullptr) {
    // Fault injection implies the (simulated) TPU path — the CPU baseline
    // has no transport or device to break.
    const tpu::FaultProfile profile = tpu::parse_fault_profile(fault_spec);
    runtime::ResilienceReport report;
    const auto outcome =
        framework.infer_tpu_resilient(classifier, test, test, profile, {}, &report);
    const auto& stats = report.device_stats;
    std::printf("TPU (simulated, fault-injected) inference over %zu samples\n",
                test.num_samples());
    std::printf("accuracy: %.2f%%\n", 100.0 * outcome.accuracy);
    std::printf("simulated latency: %s/sample (%s total)\n",
                outcome.timings.per_sample.to_string().c_str(),
                outcome.timings.total.to_string().c_str());
    std::printf("faults: %llu transfer retries, %llu NAK stalls, %llu SRAM scrubs, "
                "%llu detach hits\n",
                static_cast<unsigned long long>(stats.transfer_retries),
                static_cast<unsigned long long>(stats.nak_stalls),
                static_cast<unsigned long long>(stats.sram_scrubs),
                static_cast<unsigned long long>(stats.device_detaches));
    std::printf("recovery: %llu invocation retries (%s backoff), %llu/%zu samples on "
                "CPU fallback%s\n",
                static_cast<unsigned long long>(stats.invoke_retries),
                stats.retry_backoff.to_string().c_str(),
                static_cast<unsigned long long>(report.cpu_samples), test.num_samples(),
                report.circuit_opened ? " (circuit breaker opened)" : "");
    return session.finish() ? 0 : 1;
  }

  const auto outcome = has_flag(argc, argv, "--tpu")
                           ? framework.infer_tpu(classifier, test, test)
                           : framework.infer_cpu(classifier, test);
  std::printf("%s inference over %zu samples\n",
              has_flag(argc, argv, "--tpu") ? "TPU (simulated)" : "CPU", test.num_samples());
  std::printf("accuracy: %.2f%%\n", 100.0 * outcome.accuracy);
  std::printf("simulated latency: %s/sample (%s total)\n",
              outcome.timings.per_sample.to_string().c_str(),
              outcome.timings.total.to_string().c_str());
  return session.finish() ? 0 : 1;
}

int cmd_compile(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: hdc compile <model.hdcm> --out model.hdlt [--per-channel]\n");
    return 2;
  }
  const core::TrainedClassifier classifier = core::load_classifier(argv[2]);
  const std::string out_path = arg_value(argc, argv, "--out", "model.hdlt");

  const nn::Graph graph = nn::build_inference_graph(classifier);
  const lite::LiteModel float_model = lite::build_float_model(graph);

  // Calibrate on synthetic inputs spanning [0, 1] (the normalized domain).
  tensor::MatrixF calibration(64, classifier.num_features());
  Rng rng(7);
  for (auto& v : calibration.storage()) {
    v = static_cast<float>(rng.next_double());
  }
  lite::QuantizeOptions options;
  options.per_channel_weights = has_flag(argc, argv, "--per-channel");
  const lite::LiteModel quantized =
      lite::quantize_model(float_model, calibration, options);
  lite::save_model(quantized, out_path);

  const tpu::EdgeTpuCompiler compiler(tpu::SystolicConfig{}, 8ULL << 20);
  const auto compiled = compiler.compile(quantized);
  std::printf("%s\n", compiled.report.to_string().c_str());
  std::printf("saved %s (%zu weight bytes)\n", out_path.c_str(),
              quantized.weight_bytes());
  return 0;
}

int cmd_describe(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: hdc describe <model.hdlt>\n");
    return 2;
  }
  const lite::LiteModel model = lite::load_model(argv[2]);
  std::printf("%s", lite::describe_model(model).c_str());
  return 0;
}

int cmd_autotune(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: hdc autotune <train.csv> [--dim N] [--margin F]\n");
    return 2;
  }
  data::Dataset all = load_normalized(argv[2]);
  auto split = data::split_dataset(all, 0.25, 77);

  core::HdConfig base;
  base.dim = numeric_arg<std::uint32_t>(argc, argv, "--dim", 2048);

  // Full-scale pricing uses the file's own shape at d = 10,000.
  runtime::WorkloadShape shape;
  shape.name = all.name;
  shape.train_samples = split.train.num_samples();
  shape.test_samples = split.test.num_samples();
  shape.features = static_cast<std::uint32_t>(all.num_features());
  shape.classes = all.num_classes;
  shape.dim = 10000;
  shape.epochs = 20;

  const runtime::CoDesignFramework framework;
  const runtime::BaggingAutotuner tuner(framework, shape);
  runtime::AutotuneSpace space;  // default grid: M x iters x alpha

  const double margin = numeric_arg(argc, argv, "--margin", 0.01);
  std::printf("searching %zu configurations...\n", space.size());
  const auto result = tuner.search(split.train, split.test, space, base, margin);

  for (const auto& candidate : result.all) {
    std::printf("  M=%u I'=%u alpha=%.1f  accuracy %.2f%%  projected %.2f s\n",
                candidate.config.num_models, candidate.config.epochs,
                candidate.config.bootstrap.dataset_ratio, 100.0 * candidate.accuracy,
                candidate.projected_train_time.to_seconds());
  }
  std::printf("chosen: M=%u, I'=%u, alpha=%.1f (%.2f%% at %.2f s; best seen %.2f%%)\n",
              result.best.config.num_models, result.best.config.epochs,
              result.best.config.bootstrap.dataset_ratio, 100.0 * result.best.accuracy,
              result.best.projected_train_time.to_seconds(),
              100.0 * result.best_accuracy_seen);
  return 0;
}

/// The serve report's energy summary line.
void print_energy(const obs::EnergySnapshot& energy) {
  std::printf("energy=%.6gJ joules_per_inference=%.6g watts_ewma=%.6g budget_fired=%llu\n",
              energy.total_joules(), energy.window_joules_per_inference, energy.watts_ewma,
              static_cast<unsigned long long>(energy.alarms.front().fired_total));
}

/// The serve report's per-stage latency attribution line (none when no
/// request was traced).
void print_attribution(const obs::RequestAttribution& total, std::uint64_t requests) {
  if (requests == 0) {
    return;
  }
  std::printf("latency attribution over %llu requests:",
              static_cast<unsigned long long>(requests));
  for (std::size_t s = 0; s < obs::kNumStages; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    std::printf(" %s %.1f%%", obs::stage_name(stage), 100.0 * total.fraction(stage));
  }
  std::printf("\n");
}

/// One report line per serving-monitor alarm.
void print_alarms(const obs::MonitorSnapshot& snap) {
  for (const auto& alarm : snap.alarms) {
    std::printf("alarm %-12s fired %llux%s\n", alarm.name.c_str(),
                static_cast<unsigned long long>(alarm.fired_total),
                alarm.firing ? " (still firing)" : "");
  }
}

/// Writes every offered request's causal chain to `--requests FILE`, when
/// given, as hdc-request-trace-v1 JSONL (feed it to `hdc trace analyze
/// --assert-attribution` to audit exactness).
void write_requests(int argc, char** argv, const std::vector<obs::RequestTrace>& requests) {
  const char* path = arg_value(argc, argv, "--requests", nullptr);
  if (path == nullptr) {
    return;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  HDC_CHECK(out.good(), std::string("cannot open '") + path + "'");
  for (const auto& rt : requests) {
    out << obs::request_trace_json(rt, nullptr) << '\n';
  }
  std::printf("wrote %zu request traces to %s\n", requests.size(), path);
}

int cmd_serve(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: hdc serve <dataset> [--chunks N] [--chunk-size N] [--warmup N]\n"
                 "           [--dim N] [--seed S] [--online] [--refresh N]\n"
                 "           [--drift-start N] [--drift-duration N] [--swap-classes A,B]\n"
                 "           [--fault-profile spec] [--window-span S] [--slo-ms MS]\n"
                 "           [--alarm-drift F] [--alarm-error F] [--alarm-burn F]\n"
                 "           [--alarm-class-error F] [--alarm-confusion-pair F]\n"
                 "           [--alarm-energy-jpi J]\n"
                 "           [--deadline-us US] [--queue-chunks N]\n"
                 "           [--shed-policy reject-newest|drop-oldest] [--offered-load F]\n"
                 "           [--probe-interval-us US] [--reduced-dim N]\n"
                 "           [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]\n"
                 "           [--snapshot-dir DIR] [--snapshot-every N] [--prom FILE]\n"
                 "           [--log-json FILE] [--trace FILE] [--trace-cap N]\n"
                 "           [--metrics FILE] [--profile FILE]\n"
                 "           [--exemplars FILE] [--exemplar-bytes N] [--requests FILE]\n"
                 "       fleet mode (requires --offered-load > 0; no --trace, --metrics,\n"
                 "       --profile, --checkpoint or --snapshot-every):\n"
                 "           [--devices N] [--tenants N] [--skew F]\n"
                 "           [--batch-max N] [--batch-age-us US]\n"
                 "           [--placement cache-aware|round-robin|least-loaded]\n");
    return 2;
  }

  runtime::ServeConfig config;
  config.stream.spec = data::paper_dataset(argv[2]);
  config.stream.spec.seed = numeric_arg<std::uint64_t>(argc, argv, "--seed", 42);
  // Overload-protection flags. Explicit zero/negative values are user error
  // and rejected with actionable messages (omit the flag for the default).
  if (const auto us = numeric_flag<double>(argc, argv, "--deadline-us")) {
    HDC_CHECK(*us > 0.0,
              "--deadline-us must be a positive number of microseconds (omit the "
              "flag to serve without per-request deadlines)");
    config.admission.deadline = SimDuration::micros(*us);
  }
  if (const auto chunks = numeric_flag<int>(argc, argv, "--queue-chunks")) {
    HDC_CHECK(*chunks > 0,
              "--queue-chunks must be at least 1: the admission queue needs room "
              "for the chunk being served (shedding starts when it overflows)");
    config.admission.queue_capacity = static_cast<std::uint32_t>(*chunks);
  }
  const char* shed_policy = arg_value(argc, argv, "--shed-policy", nullptr);
  if (shed_policy != nullptr) {
    config.admission.policy = runtime::parse_shed_policy(shed_policy);
  }
  if (const auto load = numeric_flag<double>(argc, argv, "--offered-load")) {
    HDC_CHECK(*load >= 0.0,
              "--offered-load must be non-negative (0 = closed loop: each chunk "
              "arrives when the previous one finished)");
    config.admission.offered_load = *load;
  }
  if (const auto us = numeric_flag<double>(argc, argv, "--probe-interval-us")) {
    HDC_CHECK(*us > 0.0,
              "--probe-interval-us must be a positive number of microseconds: it "
              "spaces the half-open probes that let a quarantined device recover");
    config.health.probe_interval = SimDuration::micros(*us);
  }
  if (const auto dim = numeric_flag<int>(argc, argv, "--reduced-dim")) {
    HDC_CHECK(*dim > 0,
              "--reduced-dim must be positive (omit the flag for the automatic "
              "max(64, dim/8) reduced-tier dimension)");
    config.reduced_dim = static_cast<std::uint32_t>(*dim);
  }
  // Fleet flags: any of them (or --devices alone) switches the command to
  // the multi-device router (`serve_fleet`) instead of single-device serve.
  const bool fleet_mode = arg_value(argc, argv, "--devices", nullptr) != nullptr ||
                          arg_value(argc, argv, "--tenants", nullptr) != nullptr ||
                          arg_value(argc, argv, "--batch-max", nullptr) != nullptr ||
                          arg_value(argc, argv, "--placement", nullptr) != nullptr;
  {
    const int devices = numeric_arg(argc, argv, "--devices", 1);
    HDC_CHECK(devices >= 1, "--devices must be at least 1");
    config.fleet.num_devices = static_cast<std::uint32_t>(devices);
    const int tenants = numeric_arg(argc, argv, "--tenants", 1);
    HDC_CHECK(tenants >= 1, "--tenants must be at least 1");
    config.fleet.num_tenants = static_cast<std::uint32_t>(tenants);
    const double skew = numeric_arg(argc, argv, "--skew", 0.0);
    HDC_CHECK(skew >= 0.0, "--skew must be a non-negative Zipf exponent");
    config.fleet.tenant_skew = skew;
    const int batch_max = numeric_arg(argc, argv, "--batch-max", 1);
    HDC_CHECK(batch_max >= 1, "--batch-max must be at least 1 (1 = unbatched)");
    config.fleet.batch_max_chunks = static_cast<std::uint32_t>(batch_max);
    if (const auto us = numeric_flag<double>(argc, argv, "--batch-age-us")) {
      HDC_CHECK(*us >= 0.0, "--batch-age-us must be a non-negative microsecond hold");
      config.fleet.batch_max_age = SimDuration::micros(*us);
    }
    const char* placement = arg_value(argc, argv, "--placement", nullptr);
    if (placement != nullptr) {
      config.fleet.placement = runtime::parse_placement_policy(placement);
    }
  }
  config.checkpoint_path = arg_value(argc, argv, "--checkpoint", "");
  config.checkpoint_every_chunks = numeric_arg<std::uint32_t>(argc, argv, "--checkpoint-every", 0);
  config.resume_from = arg_value(argc, argv, "--resume", "");
  config.stream.chunk_size = numeric_arg<std::uint32_t>(argc, argv, "--chunk-size", 128);
  config.stream.drift_start_chunk = numeric_arg(argc, argv, "--drift-start",
                                                config.stream.drift_start_chunk);
  config.stream.drift_duration_chunks =
      numeric_arg<std::uint32_t>(argc, argv, "--drift-duration", 10);
  const char* swap_classes = arg_value(argc, argv, "--swap-classes", nullptr);
  if (swap_classes != nullptr) {
    // Label-swap drift: "A,B" — from drift onset, class A's samples are
    // emitted labeled B and vice versa (features unchanged). The confusion
    // matrix concentrates on exactly this pair; see docs/OBSERVABILITY.md.
    int a = -1;
    int b = -1;
    const int parsed = std::sscanf(swap_classes, "%d,%d", &a, &b);
    HDC_CHECK(parsed == 2 && a >= 0 && b >= 0 && a != b,
              "--swap-classes expects two distinct non-negative class indices "
              "'A,B' (e.g. --swap-classes 2,5)");
    config.stream.drift_swap_a = static_cast<std::uint32_t>(a);
    config.stream.drift_swap_b = static_cast<std::uint32_t>(b);
  }

  config.learner.dim = numeric_arg<std::uint32_t>(argc, argv, "--dim", 2048);
  config.learner.seed = config.stream.spec.seed;
  config.warmup_chunks = numeric_arg<std::uint32_t>(argc, argv, "--warmup", 4);
  config.serve_chunks = numeric_arg<std::uint32_t>(argc, argv, "--chunks", 32);
  config.online_updates = has_flag(argc, argv, "--online");
  config.model_refresh_chunks = numeric_arg<std::uint32_t>(argc, argv, "--refresh", 4);

  const char* fault_spec = arg_value(argc, argv, "--fault-profile", nullptr);
  if (fault_spec != nullptr) {
    config.faults = tpu::parse_fault_profile(fault_spec);
  }

  // Window span / SLO target default to 0 here = auto-size from the first
  // served chunk's simulated timings (deterministic).
  config.monitor.window.span =
      SimDuration::seconds(numeric_arg(argc, argv, "--window-span", 0.0));
  config.monitor.slo_latency =
      SimDuration::millis(numeric_arg(argc, argv, "--slo-ms", 0.0));
  config.monitor.alarm_drift_score = numeric_arg(argc, argv, "--alarm-drift", 0.35);
  config.monitor.alarm_error_rate = numeric_arg(argc, argv, "--alarm-error", 0.5);
  config.monitor.alarm_burn_rate = numeric_arg(argc, argv, "--alarm-burn", 2.0);
  config.model_stats.alarm_class_error_rate =
      numeric_arg(argc, argv, "--alarm-class-error", 0.75);
  config.model_stats.alarm_confusion_pair =
      numeric_arg(argc, argv, "--alarm-confusion-pair", 0.5);
  // Energy-budget alarm: fires while windowed joules per served inference
  // exceed the threshold (0 = disabled, accounting still runs).
  config.energy.alarm_joules_per_inference =
      numeric_arg(argc, argv, "--alarm-energy-jpi", 0.0);

  config.snapshot_dir = arg_value(argc, argv, "--snapshot-dir", "");
  config.snapshot_every_chunks = numeric_arg<std::uint32_t>(argc, argv, "--snapshot-every", 0);
  config.prometheus_path = arg_value(argc, argv, "--prom", "");

  config.exemplar_path = arg_value(argc, argv, "--exemplars", "");
  if (const auto bytes = numeric_flag<std::uint64_t>(argc, argv, "--exemplar-bytes")) {
    HDC_CHECK(*bytes > 0,
              "--exemplar-bytes must be a positive byte budget for retained "
              "exemplar span chains");
    config.exemplars.max_bytes = static_cast<std::size_t>(*bytes);
  }

  const char* log_json = arg_value(argc, argv, "--log-json", nullptr);
  if (log_json != nullptr) {
    const auto parent = std::filesystem::path(log_json).parent_path();
    if (!parent.empty()) {
      std::filesystem::create_directories(parent);
    }
    log::set_json_sink(log_json);
  }

  const TraceSession session(argc, argv);
  runtime::CoDesignFramework framework;
  framework.set_trace(session.trace());
  std::printf("serving %s: %u warmup + %u serve chunks of %u samples (d=%u%s)\n",
              config.stream.spec.name.c_str(), config.warmup_chunks, config.serve_chunks,
              config.stream.chunk_size, config.learner.dim,
              config.online_updates ? ", online updates" : "");
  if (config.stream.drift_start_chunk != UINT32_MAX) {
    std::printf("drift: starts at stream chunk %u over %u chunks\n",
                config.stream.drift_start_chunk, config.stream.drift_duration_chunks);
  }

  if (fleet_mode) {
    std::printf("fleet: %u devices, %u tenants (skew %.2f), batch-max %u (age %s), "
                "placement %s\n",
                config.fleet.num_devices, config.fleet.num_tenants,
                config.fleet.tenant_skew, config.fleet.batch_max_chunks,
                config.fleet.batch_max_age.to_string().c_str(),
                runtime::placement_name(config.fleet.placement));
    const runtime::FleetResult result = runtime::serve_fleet(framework, config);

    std::printf("%6s %8s %8s %6s %6s %8s %8s %-11s\n", "shard", "served", "batches",
                "mean", "hit%", "swaps", "p99", "health");
    for (const auto& shard : result.shards) {
      std::printf("%6u %8llu %8llu %6.2f %5.1f%% %8llu %8s %-11s\n", shard.device_index,
                  static_cast<unsigned long long>(shard.requests_served),
                  static_cast<unsigned long long>(shard.batches),
                  shard.mean_batch_chunks(), 100.0 * shard.cache_hit_rate(),
                  static_cast<unsigned long long>(shard.swaps),
                  SimDuration::seconds(shard.final_snapshot.latency_p99_s)
                      .to_string()
                      .c_str(),
                  runtime::health_name(shard.final_health));
    }
    const auto& snap = result.fleet_snapshot;
    std::printf("fleet served %llu/%llu requests (%llu shed, %llu expired) over %s "
                "simulated\n",
                static_cast<unsigned long long>(result.served_requests),
                static_cast<unsigned long long>(result.offered_requests),
                static_cast<unsigned long long>(result.shed_requests),
                static_cast<unsigned long long>(result.expired_requests),
                result.t_end.to_string().c_str());
    std::printf("lifetime accuracy %.2f%%, cache hit rate %.1f%% (%llu swaps), mean "
                "batch %.2f chunks\n",
                100.0 * result.lifetime_accuracy, 100.0 * result.cache_hit_rate,
                static_cast<unsigned long long>(result.swaps),
                result.mean_batch_chunks);
    std::printf("fleet latency p50/p95/p99 %s/%s/%s, SLO burn rate %.2f\n",
                SimDuration::seconds(snap.latency_p50_s).to_string().c_str(),
                SimDuration::seconds(snap.latency_p95_s).to_string().c_str(),
                SimDuration::seconds(snap.latency_p99_s).to_string().c_str(),
                snap.slo_burn_rate);
    print_energy(result.fleet_energy);
    print_attribution(result.attribution_total, result.requests_traced);
    print_alarms(snap);
    write_requests(argc, argv, result.requests);
    if (!config.snapshot_dir.empty()) {
      std::printf("wrote fleet + %zu shard snapshots to %s\n", result.shards.size(),
                  config.snapshot_dir.c_str());
    }
    if (!config.prometheus_path.empty()) {
      std::printf("wrote Prometheus exposition to %s\n", config.prometheus_path.c_str());
    }
    if (log_json != nullptr) {
      log::close_json_sink();
      std::printf("wrote JSONL log to %s\n", log_json);
    }
    return session.finish() ? 0 : 1;
  }

  const runtime::ServeResult result = runtime::serve(framework, config);

  std::printf("%6s %9s %9s %7s %-8s %-11s %s\n", "chunk", "accuracy", "windowed",
              "drift", "tier", "health", "flags");
  for (const auto& chunk : result.chunks) {
    std::printf("%6u %8.2f%% %8.2f%% %7.3f %-8s %-11s %s%s\n", chunk.index,
                100.0 * chunk.chunk_accuracy, 100.0 * chunk.windowed_accuracy,
                chunk.drift_score, runtime::tier_name(chunk.tier),
                runtime::health_name(chunk.health),
                chunk.fallback_samples > 0 ? "fallback " : "",
                chunk.circuit_opened ? "circuit-open" : "");
  }

  const auto& snap = result.final_snapshot;
  std::printf("served %llu samples over %s simulated (warmup prequential %.2f%%)\n",
              static_cast<unsigned long long>(result.samples_served),
              result.t_end.to_string().c_str(), 100.0 * result.warmup_accuracy);
  // Lifetime accuracy comes from the serve accumulators, not the monitor
  // snapshot: a resumed session's monitor is cold and only saw the tail.
  std::printf("lifetime accuracy %.2f%%, windowed %.2f%%, latency p50/p95/p99 %s/%s/%s\n",
              100.0 * result.lifetime_accuracy, 100.0 * snap.windowed_accuracy,
              SimDuration::seconds(snap.latency_p50_s).to_string().c_str(),
              SimDuration::seconds(snap.latency_p95_s).to_string().c_str(),
              SimDuration::seconds(snap.latency_p99_s).to_string().c_str());
  std::printf("SLO burn rate %.2f, drift score %.3f\n", snap.slo_burn_rate,
              snap.drift_score);
  print_energy(result.final_energy);
  std::printf("admission: %u shed + %u expired chunks (%llu + %llu samples), "
              "%llu degraded samples\n",
              result.shed_chunks, result.expired_chunks,
              static_cast<unsigned long long>(result.shed_samples),
              static_cast<unsigned long long>(result.expired_samples),
              static_cast<unsigned long long>(result.degraded_samples));
  for (std::size_t t = 0; t < result.tiers.size(); ++t) {
    const auto& tier = result.tiers[t];
    if (tier.samples == 0) {
      continue;
    }
    std::printf("tier %-8s %8llu samples, accuracy %.2f%%, service %s\n",
                runtime::tier_name(static_cast<runtime::ServeTier>(t)),
                static_cast<unsigned long long>(tier.samples), 100.0 * tier.accuracy(),
                tier.service_time.to_string().c_str());
  }
  std::printf("final device health: %s (%llu quarantines, %llu probes)\n",
              runtime::health_name(result.final_health),
              static_cast<unsigned long long>(result.quarantines),
              static_cast<unsigned long long>(result.probes));
  print_attribution(result.attribution_total, result.requests_traced);
  std::printf("exemplars: %zu retained (%zu bytes, peak %zu), %llu evicted",
              result.exemplar_records.size(), result.exemplar_bytes,
              result.exemplar_bytes_peak,
              static_cast<unsigned long long>(result.exemplars_evicted));
  const std::string exemplar_out = runtime::exemplar_output_path(config);
  if (!exemplar_out.empty()) {
    std::printf(" -> %s", exemplar_out.c_str());
  }
  std::printf("\n");
  if (session.trace() != nullptr) {
    // trace_dropped > 0 means the event cap truncated mid-serve; the same
    // condition fires the one-time WARN and the truncation note on export.
    std::printf("trace: %zu events recorded, %zu dropped%s\n", result.trace_events,
                result.trace_dropped,
                result.trace_dropped > 0 ? " (raise --trace-cap)" : "");
  }
  if (result.checkpoints_written > 0) {
    std::printf("wrote %u serve checkpoints to %s\n", result.checkpoints_written,
                config.checkpoint_path.c_str());
  }
  print_alarms(snap);
  write_requests(argc, argv, result.requests);
  if (result.snapshots_written > 0) {
    std::printf("wrote %u monitor snapshots to %s\n", result.snapshots_written,
                config.snapshot_dir.c_str());
  }
  if (!config.prometheus_path.empty()) {
    std::printf("wrote Prometheus exposition to %s\n", config.prometheus_path.c_str());
  }
  if (log_json != nullptr) {
    log::close_json_sink();
    std::printf("wrote JSONL log to %s\n", log_json);
  }
  return session.finish() ? 0 : 1;
}

/// The offline inspection tools: `hdc <command> <verb> <file> [options]`.
struct Inspector {
  const char* command;
  const char* verb;
  int (*run)(const std::vector<std::string>& args, const char* invocation);
};

constexpr Inspector kInspectors[] = {
    {"trace", "analyze", tools::traceq::run},
    {"model", "inspect",
     [](const std::vector<std::string>& args, const char* invocation) {
       return tools::inspect::run(tools::inspect::kModel, args, invocation);
     }},
    {"energy", "inspect",
     [](const std::vector<std::string>& args, const char* invocation) {
       return tools::inspect::run(tools::inspect::kEnergy, args, invocation);
     }},
};

int cmd_inspect(const Inspector& tool, int argc, char** argv) {
  const std::string invocation = std::string("hdc ") + tool.command + " " + tool.verb;
  if (argc < 3 || std::string(argv[2]) != tool.verb) {
    return tool.run({}, invocation.c_str());  // no input: usage on stderr, exit 2
  }
  return tool.run(std::vector<std::string>(argv + 3, argv + argc), invocation.c_str());
}

int cmd_datasets() {
  std::printf("%-10s %10s %10s %9s   %s\n", "name", "#samples", "#features", "#classes",
              "description");
  for (const auto& spec : data::paper_datasets()) {
    std::printf("%-10s %10u %10u %9u   %s\n", spec.name.c_str(), spec.samples,
                spec.features, spec.classes, spec.description.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "hdc — hyperdimensional learning on (simulated) edge accelerators\n"
                 "commands: train, infer, compile, describe, autotune, datasets, serve, "
                 "trace, model, energy\n");
    return 2;
  }
  try {
    if (const auto n = numeric_flag<int>(argc, argv, "--threads")) {
      HDC_CHECK(*n > 0, "--threads must be a positive integer");
      parallel::set_num_threads(static_cast<std::size_t>(*n));
    }
    const std::string command = argv[1];
    if (command == "train") {
      return cmd_train(argc, argv);
    }
    if (command == "infer") {
      return cmd_infer(argc, argv);
    }
    if (command == "compile") {
      return cmd_compile(argc, argv);
    }
    if (command == "describe") {
      return cmd_describe(argc, argv);
    }
    if (command == "autotune") {
      return cmd_autotune(argc, argv);
    }
    if (command == "datasets") {
      return cmd_datasets();
    }
    if (command == "serve") {
      return cmd_serve(argc, argv);
    }
    for (const Inspector& tool : kInspectors) {
      if (command == tool.command) {
        return cmd_inspect(tool, argc, argv);
      }
    }
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
  } catch (const hdc::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

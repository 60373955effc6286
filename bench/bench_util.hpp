#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/sim_time.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "runtime/cost.hpp"

namespace hdc::bench {

/// Normalized train/test split of a paper dataset at reduced functional
/// scale (`max_samples` rows before the split).
struct PreparedDataset {
  data::Dataset train;
  data::Dataset test;
  data::SyntheticSpec spec;  ///< full-scale Table-I shape for timing
};

inline PreparedDataset prepare(const std::string& name, std::uint32_t max_samples,
                               double test_fraction = 0.25) {
  const data::SyntheticSpec& spec = data::paper_dataset(name);
  data::Dataset all = data::generate_synthetic(spec, max_samples);
  auto split = data::split_dataset(all, test_fraction, spec.seed ^ 0x5EED);
  data::MinMaxNormalizer norm;
  norm.fit(split.train);
  norm.apply(split.train);
  norm.apply(split.test);
  return PreparedDataset{std::move(split.train), std::move(split.test), spec};
}

/// Full-paper-scale workload shape for the analytic timing experiments.
inline runtime::WorkloadShape full_scale_shape(const data::SyntheticSpec& spec,
                                               std::uint32_t dim = 10000,
                                               std::uint32_t epochs = 20) {
  runtime::WorkloadShape shape;
  shape.name = spec.name;
  // The paper reports training cost over the training split and inference
  // over the held-out split; use an 80/20 partition of the Table-I counts.
  shape.train_samples = spec.samples - spec.samples / 5;
  shape.test_samples = spec.samples / 5;
  shape.features = spec.features;
  shape.classes = spec.classes;
  shape.dim = dim;
  shape.epochs = epochs;
  return shape;
}

/// The paper's chosen bagging operating point (Section IV-A).
inline runtime::BaggingShape paper_bagging_shape() {
  runtime::BaggingShape bag;
  bag.num_models = 4;
  bag.sub_dim = 2500;
  bag.epochs = 6;
  bag.alpha = 0.6;
  bag.beta = 1.0;
  return bag;
}

/// Strict decimal parse of a full argument string. Returns false on empty
/// input, non-digit characters ("12abc", "-3") or values past `max` —
/// unlike bare strtoul, which silently accepts all of those.
inline bool parse_u64_strict(const char* text, std::uint64_t* out,
                             std::uint64_t max = UINT64_MAX) {
  if (text == nullptr || *text == '\0') {
    return false;
  }
  std::uint64_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      return false;
    }
    const auto digit = static_cast<std::uint64_t>(*p - '0');
    if (value > (max - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Parses "--key value" style overrides: returns the value after `flag`, or
/// `fallback` when the flag is absent. Malformed values ("12abc", "huge",
/// negatives) warn on stderr and fall back instead of being silently
/// truncated to whatever prefix strtoul accepted.
inline std::uint32_t arg_u32(int argc, char** argv, const std::string& flag,
                             std::uint32_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) {
      std::uint64_t parsed = 0;
      if (parse_u64_strict(argv[i + 1], &parsed, UINT32_MAX)) {
        return static_cast<std::uint32_t>(parsed);
      }
      std::fprintf(stderr,
                   "warning: ignoring malformed %s '%s' (expected an unsigned "
                   "integer); using default %u\n",
                   flag.c_str(), argv[i + 1], fallback);
      return fallback;
    }
  }
  return fallback;
}

/// Returns the string after `flag`, or null when absent.
inline const char* arg_str(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) {
      return argv[i + 1];
    }
  }
  return nullptr;
}

/// Honors `--threads N` for the host worker pool (functional paths only;
/// simulated timings are analytic and unaffected by the thread count).
inline void apply_threads_flag(int argc, char** argv) {
  const std::uint32_t threads = arg_u32(argc, argv, "--threads", 0);
  if (threads > 0) {
    parallel::set_num_threads(threads);
  }
}

/// Opt-in observability for benchmark binaries: `--trace out.trace.json`
/// attaches a simulated-time tracer (with `--metrics out.metrics.json` and
/// `--trace-cap N` riding along) to whatever traced work the bench chooses
/// to run; `finish()` writes the files. Without the flags, `trace()` is null
/// and the bench runs exactly as before.
class ObsSession {
 public:
  ObsSession(int argc, char** argv) {
    const char* trace_path = arg_str(argc, argv, "--trace");
    const char* metrics_path = arg_str(argc, argv, "--metrics");
    if (trace_path != nullptr) {
      trace_path_ = trace_path;
    }
    if (metrics_path != nullptr) {
      metrics_path_ = metrics_path;
    }
    if (trace_path_.empty() && metrics_path_.empty()) {
      return;
    }
    obs::TraceConfig config;
    if (const char* cap = arg_str(argc, argv, "--trace-cap")) {
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
  }

  bool enabled() const noexcept { return trace_ != nullptr; }
  obs::TraceContext* trace() const noexcept { return trace_.get(); }

  void finish() const {
    if (trace_ == nullptr) {
      return;
    }
    if (!trace_path_.empty()) {
      if (trace_->dropped() > 0) {
        std::fprintf(stderr,
                     "warning: trace truncated — dropped %zu spans beyond the "
                     "%zu-event cap (raise with --trace-cap)\n",
                     trace_->dropped(), trace_->config().max_events);
      }
      std::ofstream out(trace_path_);
      trace_->write_chrome_trace(out);
      std::printf("wrote %zu trace events to %s\n", trace_->size(), trace_path_.c_str());
    }
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      out << metrics_->to_json() << '\n';
      std::printf("wrote metrics to %s\n", metrics_path_.c_str());
    }
  }

 private:
  std::unique_ptr<obs::TraceContext> trace_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::string trace_path_;
  std::string metrics_path_;
};

/// Machine-readable bench telemetry: every bench binary funnels its headline
/// numbers through one reporter so `--json <path>` emits a common schema
/// that `tools/hdc_perfdiff` can diff run-over-run.
///
/// Schema ("hdc-bench-v1"):
/// ```json
/// {
///   "schema": "hdc-bench-v1",
///   "bench": "<name>",
///   "workload": {"<key>": <number|string>, ...},
///   "metrics": {
///     "<name>": {"value": N, "unit": "s", "kind": "sim", "better": "lower"}
///   },
///   "profile": {...}   // optional obs::ProfileReport
/// }
/// ```
/// `kind` drives the perf gate: `sim` metrics are deterministic simulated
/// quantities (timings, speedups, accuracies) gated strictly against the
/// committed baselines; `wall` metrics are host wall-clock, report-only;
/// `info` rows are workload descriptors that are never gated.
///
/// Without `--json` the reporter is inert: recording costs a vector push,
/// `write()` does nothing, and the bench's stdout is unchanged.
class BenchReporter {
 public:
  BenchReporter(int argc, char** argv, std::string bench_name)
      : name_(std::move(bench_name)), wall_start_(std::chrono::steady_clock::now()) {
    if (const char* path = arg_str(argc, argv, "--json")) {
      json_path_ = path;
    }
  }

  bool enabled() const noexcept { return !json_path_.empty(); }
  const std::string& name() const noexcept { return name_; }

  // ---- workload shape (never gated) ----
  void workload(const std::string& key, double value) {
    workload_.push_back({key, std::to_string(value), /*quoted=*/false});
  }
  void workload(const std::string& key, std::uint64_t value) {
    workload_.push_back({key, std::to_string(value), /*quoted=*/false});
  }
  void workload(const std::string& key, std::uint32_t value) {
    workload_.push_back({key, std::to_string(value), /*quoted=*/false});
  }
  void workload(const std::string& key, const std::string& value) {
    workload_.push_back({key, value, /*quoted=*/true});
  }

  // ---- metrics ----
  /// Generic entry; prefer the typed helpers below.
  void metric(const std::string& name, double value, const char* unit,
              const char* kind, const char* better) {
    metrics_.push_back({name, value, unit, kind, better});
  }
  /// Deterministic simulated time (gated; lower is better).
  void sim_seconds(const std::string& name, SimDuration value) {
    metric(name, value.to_seconds(), "s", "sim", "lower");
  }
  /// Deterministic dimensionless ratio, e.g. a speedup (gated).
  void sim_ratio(const std::string& name, double value, bool higher_is_better = true) {
    metric(name, value, "x", "sim", higher_is_better ? "higher" : "lower");
  }
  /// Deterministic accuracy fraction in [0, 1] (gated; higher is better).
  void sim_accuracy(const std::string& name, double value) {
    metric(name, value, "fraction", "sim", "higher");
  }
  /// Host wall-clock seconds (report-only: machine-dependent).
  void wall_seconds(const std::string& name, double value) {
    metric(name, value, "s", "wall", "lower");
  }
  /// Neutral numeric fact (never gated).
  void info(const std::string& name, double value, const char* unit = "") {
    metric(name, value, unit, "info", "higher");
  }

  /// Embeds the derived utilization profile of a traced run.
  void set_profile(const obs::TraceContext& trace, const obs::MetricsRegistry& metrics) {
    profile_json_ = obs::compute_profile(trace, metrics).to_json();
  }

  /// Writes the JSON file (no-op without `--json`). Appends `bench.wall_s`,
  /// the binary's own wall-clock runtime, as a report-only metric.
  void write() {
    if (!enabled()) {
      return;
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start_)
            .count();
    wall_seconds("bench.wall_s", wall_s);

    std::string out;
    out += "{\"schema\":\"hdc-bench-v1\",\"bench\":";
    obs::detail::append_json_string(out, name_);
    out += ",\"workload\":{";
    bool first = true;
    for (const auto& entry : workload_) {
      if (!first) {
        out.push_back(',');
      }
      first = false;
      obs::detail::append_json_string(out, entry.key);
      out.push_back(':');
      if (entry.quoted) {
        obs::detail::append_json_string(out, entry.value);
      } else {
        out += entry.value;
      }
    }
    out += "},\"metrics\":{";
    first = true;
    for (const auto& metric : metrics_) {
      obs::detail::append_gate_metric(out, metric.name, metric.value, metric.unit,
                                      metric.kind, metric.better, !first);
      first = false;
    }
    out.push_back('}');
    if (!profile_json_.empty()) {
      out += ",\"profile\":";
      out += profile_json_;
    }
    out.push_back('}');

    std::ofstream file(json_path_);
    if (!file) {
      std::fprintf(stderr, "error: cannot write bench JSON to %s\n", json_path_.c_str());
      return;
    }
    file << out << '\n';
    std::printf("wrote %zu metrics to %s\n", metrics_.size(), json_path_.c_str());
  }

 private:
  struct WorkloadEntry {
    std::string key;
    std::string value;
    bool quoted;
  };
  struct MetricEntry {
    std::string name;
    double value;
    std::string unit;
    std::string kind;
    std::string better;
  };

  std::string name_;
  std::string json_path_;
  std::chrono::steady_clock::time_point wall_start_;
  std::vector<WorkloadEntry> workload_;
  std::vector<MetricEntry> metrics_;
  std::string profile_json_;
};

inline void print_rule(int width = 100) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

inline void print_header(const std::string& title) {
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

}  // namespace hdc::bench

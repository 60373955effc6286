// hdc_perfdiff — perf-regression gate over hdc-bench-v1 JSON files (and
// hdc-monitor-v1 serve snapshots, which embed the same flat metrics map).
//
//   hdc_perfdiff <baseline.json> <candidate.json> [--threshold F]
//   hdc_perfdiff --baselines <dir> <candidate.json|candidate-dir>... [--threshold F]
//
// Compares the `metrics` maps of two bench JSONs (see bench/bench_util.hpp
// for the schema) and prints per-metric deltas. Metrics with kind "sim" are
// deterministic simulated quantities and are *gated*: a change in the worse
// direction (per the metric's "better" field) beyond the relative threshold
// (default 0.05 = 5%), or a gated baseline metric missing from the
// candidate, makes the tool exit 1. Wall-clock ("wall") and descriptor
// ("info") metrics are report-only. Exit codes: 0 pass, 1 regression,
// 2 usage/parse error.
//
// With --baselines, each candidate (a file, or every *.json in a directory)
// is matched by basename against the baseline directory (the CI layout:
// bench/baselines/BENCH_<name>.json). A candidate with no committed baseline
// is reported but never gated — new benches land before their baseline does.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "json_min.hpp"

namespace {

using hdc::tools::Json;
using hdc::tools::JsonParser;

// ---- bench JSON model ----

struct BenchMetric {
  double value = 0.0;
  std::string unit;
  std::string kind;    // sim | wall | info
  std::string better;  // lower | higher
};

struct BenchFile {
  std::string bench;
  std::map<std::string, BenchMetric> metrics;  // ordered for stable output
};

std::optional<BenchFile> load_bench_json(const std::string& path) {
  const std::optional<std::string> text = hdc::tools::read_file(path);
  if (!text) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  const std::optional<Json> doc = JsonParser(*text).parse();
  if (!doc || doc->type != Json::Type::kObject) {
    std::fprintf(stderr, "error: %s is not valid JSON\n", path.c_str());
    return std::nullopt;
  }
  // Two accepted schemas: bench telemetry and live-monitor snapshots. A
  // monitor snapshot embeds the same flat `metrics` map (bench-entry shape),
  // so everything downstream of the schema check is shared.
  const std::string schema = doc->has("schema") ? doc->at("schema").string : "";
  if (schema != "hdc-bench-v1" && schema != "hdc-monitor-v1") {
    std::fprintf(stderr, "error: %s is not an hdc-bench-v1 or hdc-monitor-v1 file\n",
                 path.c_str());
    return std::nullopt;
  }
  BenchFile file;
  if (doc->has("bench")) {
    file.bench = doc->at("bench").string;
  } else if (schema == "hdc-monitor-v1") {
    file.bench = "monitor-snapshot";
  }
  if (!doc->has("metrics") || doc->at("metrics").type != Json::Type::kObject) {
    std::fprintf(stderr, "error: %s has no metrics object\n", path.c_str());
    return std::nullopt;
  }
  for (const auto& [name, entry] : doc->at("metrics").object) {
    if (entry.type != Json::Type::kObject || !entry.has("value")) {
      continue;
    }
    BenchMetric metric;
    metric.value = entry.at("value").number;
    if (entry.has("unit")) {
      metric.unit = entry.at("unit").string;
    }
    metric.kind = entry.has("kind") ? entry.at("kind").string : "info";
    metric.better = entry.has("better") ? entry.at("better").string : "lower";
    file.metrics.emplace(name, std::move(metric));
  }
  return file;
}

// ---- diffing ----

struct DiffStats {
  int compared = 0;
  int regressions = 0;
  int improvements = 0;
};

/// Signed relative delta in the *worse* direction: positive means the
/// candidate regressed. A zero baseline compares by sign of the change.
double worse_delta(const BenchMetric& baseline, double candidate) {
  const double change = candidate - baseline.value;
  const double denom = std::fabs(baseline.value);
  const double rel = denom > 1e-12 ? change / denom : (change == 0.0 ? 0.0 : 1e9);
  return baseline.better == "higher" ? -rel : rel;
}

DiffStats diff_files(const BenchFile& baseline, const BenchFile& candidate,
                     double threshold, const std::string& label) {
  DiffStats stats;
  std::printf("== %s ==\n", label.c_str());
  std::printf("%-44s %14s %14s %9s  %s\n", "metric", "baseline", "candidate", "delta",
              "status");
  for (const auto& [name, base] : baseline.metrics) {
    const bool gated = base.kind == "sim";
    const auto it = candidate.metrics.find(name);
    if (it == candidate.metrics.end()) {
      std::printf("%-44s %14.6g %14s %9s  %s\n", name.c_str(), base.value, "-", "-",
                  gated ? "MISSING (gated)" : "missing (report-only)");
      if (gated) {
        ++stats.regressions;
      }
      continue;
    }
    ++stats.compared;
    const double cand = it->second.value;
    const double worse = worse_delta(base, cand);
    const double shown =
        std::fabs(base.value) > 1e-12 ? 100.0 * (cand - base.value) / std::fabs(base.value)
                                      : 0.0;
    const char* status = "ok";
    if (!gated) {
      status = base.kind == "wall" ? "report-only (wall)" : "report-only";
    } else if (worse > threshold) {
      status = "REGRESSION";
      ++stats.regressions;
    } else if (worse < -threshold) {
      status = "improved";
      ++stats.improvements;
    }
    std::printf("%-44s %14.6g %14.6g %+8.2f%%  %s\n", name.c_str(), base.value, cand,
                shown, status);
  }
  for (const auto& [name, metric] : candidate.metrics) {
    if (!baseline.metrics.contains(name)) {
      std::printf("%-44s %14s %14.6g %9s  new metric\n", name.c_str(), "-", metric.value,
                  "-");
    }
  }
  std::printf("\n");
  return stats;
}

void usage() {
  std::fprintf(stderr,
               "usage: hdc_perfdiff <baseline.json> <candidate.json> [--threshold F]\n"
               "       hdc_perfdiff --baselines <dir> <candidate.json>... "
               "[--threshold F]\n");
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.05;
  std::string baselines_dir;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      char* end = nullptr;
      threshold = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || threshold < 0.0) {
        std::fprintf(stderr, "error: --threshold expects a non-negative number\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--baselines") == 0 && i + 1 < argc) {
      baselines_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage();
      return 0;
    } else {
      files.emplace_back(argv[i]);
    }
  }

  std::vector<std::pair<std::string, std::string>> pairs;  // baseline, candidate
  if (!baselines_dir.empty()) {
    if (files.empty()) {
      usage();
      return 2;
    }
    // Expand candidate directories into their *.json files (sorted for
    // stable output).
    std::vector<std::string> candidates;
    for (const std::string& entry : files) {
      if (std::filesystem::is_directory(entry)) {
        for (const auto& item : std::filesystem::directory_iterator(entry)) {
          if (item.path().extension() == ".json") {
            candidates.push_back(item.path().string());
          }
        }
      } else {
        candidates.push_back(entry);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    if (candidates.empty()) {
      std::fprintf(stderr, "error: no candidate .json files found\n");
      return 2;
    }
    for (const std::string& candidate : candidates) {
      const std::string base =
          (std::filesystem::path(baselines_dir) /
           std::filesystem::path(candidate).filename())
              .string();
      if (!std::filesystem::exists(base)) {
        // New bench without a committed baseline: informational only.
        std::printf("note: no baseline for %s (not gated)\n\n", candidate.c_str());
        continue;
      }
      pairs.emplace_back(base, candidate);
    }
  } else {
    if (files.size() != 2) {
      usage();
      return 2;
    }
    pairs.emplace_back(files[0], files[1]);
  }

  DiffStats total;
  for (const auto& [baseline_path, candidate_path] : pairs) {
    const std::optional<BenchFile> baseline = load_bench_json(baseline_path);
    const std::optional<BenchFile> candidate = load_bench_json(candidate_path);
    if (!baseline || !candidate) {
      return 2;
    }
    std::string label = std::filesystem::path(candidate_path).filename().string();
    if (!baseline->bench.empty() && label.find(baseline->bench) == std::string::npos) {
      label += " (" + baseline->bench + ")";
    }
    const DiffStats stats = diff_files(*baseline, *candidate, threshold, label);
    total.compared += stats.compared;
    total.regressions += stats.regressions;
    total.improvements += stats.improvements;
  }

  std::printf("%d metrics compared, %d regressions, %d improvements "
              "(threshold %.1f%%)\n",
              total.compared, total.regressions, total.improvements, 100.0 * threshold);
  if (total.regressions > 0) {
    std::printf("FAIL: simulated-time regression past threshold\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

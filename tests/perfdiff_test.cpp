// Tests for tools/hdc_perfdiff — the perf-regression gate over hdc-bench-v1
// JSON files. Exercises the exit-code contract CI relies on: 0 = pass,
// 1 = gated regression past threshold, 2 = usage/parse error; `sim` metrics
// are gated strictly (respecting each metric's `better` direction), `wall`
// and `info` metrics are report-only.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "tool_run.hpp"

namespace {

namespace fs = std::filesystem;

using hdc_test::RunResult;

RunResult run_perfdiff(const std::string& args) {
  return hdc_test::run_tool(HDC_PERFDIFF_PATH, args);
}

// A minimal hdc-bench-v1 document with one metric of each gating class.
// `sim_lower` is a simulated time (lower is better), `sim_higher` an
// accuracy-style metric (higher is better), `wall` report-only.
std::string bench_json(double sim_lower, double sim_higher, double wall) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema\":\"hdc-bench-v1\",\"bench\":\"fake\",\"workload\":{\"dim\":64},"
      "\"metrics\":{"
      "\"total_s\":{\"value\":%.9g,\"unit\":\"s\",\"kind\":\"sim\",\"better\":\"lower\"},"
      "\"accuracy\":{\"value\":%.9g,\"unit\":\"fraction\",\"kind\":\"sim\",\"better\":\"higher\"},"
      "\"bench.wall_s\":{\"value\":%.9g,\"unit\":\"s\",\"kind\":\"wall\",\"better\":\"lower\"}"
      "}}",
      sim_lower, sim_higher, wall);
  return std::string(buf) + "\n";
}

using PerfdiffTest = hdc_test::TempDirTest;

TEST_F(PerfdiffTest, IdenticalFilesPass) {
  const auto base = write("base.json", bench_json(1.0, 0.9, 5.0));
  const auto cand = write("cand.json", bench_json(1.0, 0.9, 5.0));
  const auto result = run_perfdiff(base + " " + cand);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("PASS"), std::string::npos);
}

TEST_F(PerfdiffTest, SimTimeRegressionPastThresholdFails) {
  const auto base = write("base.json", bench_json(1.0, 0.9, 5.0));
  // 10% slower simulated time against the default 5% threshold.
  const auto cand = write("cand.json", bench_json(1.1, 0.9, 5.0));
  const auto result = run_perfdiff(base + " " + cand);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("REGRESSION"), std::string::npos);
  EXPECT_NE(result.output.find("FAIL"), std::string::npos);
}

TEST_F(PerfdiffTest, RegressionWithinThresholdPasses) {
  const auto base = write("base.json", bench_json(1.0, 0.9, 5.0));
  const auto cand = write("cand.json", bench_json(1.04, 0.9, 5.0));
  EXPECT_EQ(run_perfdiff(base + " " + cand).exit_code, 0);
  // ... and a tighter threshold turns the same delta into a failure.
  EXPECT_EQ(run_perfdiff("--threshold 0.01 " + base + " " + cand).exit_code, 1);
}

TEST_F(PerfdiffTest, HigherIsBetterMetricGatesOnDecrease) {
  const auto base = write("base.json", bench_json(1.0, 0.90, 5.0));
  // Accuracy dropping 0.90 -> 0.80 is an 11% regression even though the
  // number got *smaller* — the gate must respect the metric's direction.
  const auto cand = write("cand.json", bench_json(1.0, 0.80, 5.0));
  const auto result = run_perfdiff(base + " " + cand);
  EXPECT_EQ(result.exit_code, 1) << result.output;
}

TEST_F(PerfdiffTest, ImprovementsAndWallClockChangesPass) {
  const auto base = write("base.json", bench_json(1.0, 0.9, 5.0));
  // Faster sim time, better accuracy, and a 10x wall-clock slowdown: wall is
  // report-only (machine-dependent), so this must pass.
  const auto cand = write("cand.json", bench_json(0.5, 0.95, 50.0));
  const auto result = run_perfdiff(base + " " + cand);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("report-only"), std::string::npos);
}

TEST_F(PerfdiffTest, MissingGatedMetricFails) {
  const auto base = write("base.json", bench_json(1.0, 0.9, 5.0));
  const auto cand = write(
      "cand.json",
      "{\"schema\":\"hdc-bench-v1\",\"bench\":\"fake\",\"workload\":{},"
      "\"metrics\":{\"accuracy\":{\"value\":0.9,\"unit\":\"fraction\","
      "\"kind\":\"sim\",\"better\":\"higher\"}}}\n");
  const auto result = run_perfdiff(base + " " + cand);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("MISSING"), std::string::npos);
}

TEST_F(PerfdiffTest, NewMetricIsNotGated) {
  const auto base = write(
      "base.json",
      "{\"schema\":\"hdc-bench-v1\",\"bench\":\"fake\",\"workload\":{},"
      "\"metrics\":{}}\n");
  const auto cand = write("cand.json", bench_json(1.0, 0.9, 5.0));
  EXPECT_EQ(run_perfdiff(base + " " + cand).exit_code, 0);
}

TEST_F(PerfdiffTest, DirectoryModeMatchesBaselinesByFilename) {
  const fs::path baselines = dir_ / "baselines";
  const fs::path candidates = dir_ / "candidates";
  fs::create_directories(baselines);
  fs::create_directories(candidates);
  {
    std::ofstream(baselines / "BENCH_fake.json") << bench_json(1.0, 0.9, 5.0);
    std::ofstream(candidates / "BENCH_fake.json") << bench_json(1.5, 0.9, 5.0);
    // A candidate with no baseline is informational, never a failure.
    std::ofstream(candidates / "BENCH_new.json") << bench_json(9.0, 0.1, 5.0);
  }
  const auto result =
      run_perfdiff("--baselines " + baselines.string() + " " + candidates.string());
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("BENCH_fake.json"), std::string::npos);
}

// A minimal hdc-monitor-v1 snapshot: nested telemetry plus the flat gate map
// (same entry shape as bench metrics) `hdc serve` writes.
std::string monitor_json(double window_accuracy, double p95_s, double drift_score) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema\":\"hdc-monitor-v1\",\"t_s\":1.5,"
      "\"lifetime\":{\"samples\":640,\"errors\":64,\"accuracy\":0.9},"
      "\"window\":{\"span_s\":0.25,\"samples\":160},"
      "\"metrics\":{"
      "\"window.accuracy\":{\"value\":%.9g,\"unit\":\"fraction\",\"kind\":\"sim\","
      "\"better\":\"higher\"},"
      "\"window.latency_p95_s\":{\"value\":%.9g,\"unit\":\"s\",\"kind\":\"sim\","
      "\"better\":\"lower\"},"
      "\"drift.score\":{\"value\":%.9g,\"unit\":\"fraction\",\"kind\":\"info\","
      "\"better\":\"lower\"}"
      "}}",
      window_accuracy, p95_s, drift_score);
  return std::string(buf) + "\n";
}

TEST_F(PerfdiffTest, MonitorSnapshotsDiffLikeBenchFiles) {
  const auto base = write("snap_base.json", monitor_json(0.92, 0.0005, 0.1));
  const auto cand = write("snap_cand.json", monitor_json(0.92, 0.0005, 0.1));
  const auto result = run_perfdiff(base + " " + cand);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("PASS"), std::string::npos);
}

TEST_F(PerfdiffTest, MonitorSnapshotAccuracyRegressionGates) {
  const auto base = write("snap_base.json", monitor_json(0.92, 0.0005, 0.1));
  // Windowed accuracy 0.92 -> 0.80 is a gated `sim` regression; the drift
  // score tripling is `info` and must NOT gate on its own.
  const auto cand = write("snap_cand.json", monitor_json(0.80, 0.0005, 0.3));
  const auto result = run_perfdiff(base + " " + cand);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("window.accuracy"), std::string::npos);
}

TEST_F(PerfdiffTest, MonitorSnapshotTailLatencyRegressionGates) {
  const auto base = write("snap_base.json", monitor_json(0.92, 0.0005, 0.1));
  const auto cand = write("snap_cand.json", monitor_json(0.92, 0.0008, 0.1));
  EXPECT_EQ(run_perfdiff(base + " " + cand).exit_code, 1);
}

TEST_F(PerfdiffTest, MonitorSnapshotInfoOnlyChangesPass) {
  const auto base = write("snap_base.json", monitor_json(0.92, 0.0005, 0.1));
  const auto cand = write("snap_cand.json", monitor_json(0.925, 0.0004, 0.9));
  EXPECT_EQ(run_perfdiff(base + " " + cand).exit_code, 0);
}

std::string model_metrics_json(double accuracy, double ece, double separation_min) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema\":\"hdc-monitor-v1\",\"t_s\":1.5,"
      "\"lifetime\":{\"samples\":640,\"errors\":64,\"accuracy\":0.9},"
      "\"metrics\":{"
      "\"model.accuracy\":{\"value\":%.9g,\"unit\":\"fraction\",\"kind\":\"sim\","
      "\"better\":\"higher\"},"
      "\"model.ece\":{\"value\":%.9g,\"unit\":\"fraction\",\"kind\":\"sim\","
      "\"better\":\"lower\"},"
      "\"model.separation_min\":{\"value\":%.9g,\"unit\":\"fraction\",\"kind\":\"sim\","
      "\"better\":\"higher\"},"
      "\"model.samples\":{\"value\":640,\"unit\":\"\",\"kind\":\"info\","
      "\"better\":\"higher\"}"
      "}}",
      accuracy, ece, separation_min);
  return std::string(buf) + "\n";
}

TEST_F(PerfdiffTest, ModelQualityMetricsGateDirectionAware) {
  // The model.* entries the model-quality monitor splices into snapshots are
  // gated like any sim metric, each respecting its own direction.
  const auto base = write("model_base.json", model_metrics_json(0.90, 0.10, 0.5));

  // Windowed model accuracy collapsing gates (higher-is-better).
  const auto acc = write("model_acc.json", model_metrics_json(0.75, 0.10, 0.5));
  const auto acc_result = run_perfdiff(base + " " + acc);
  EXPECT_EQ(acc_result.exit_code, 1) << acc_result.output;
  EXPECT_NE(acc_result.output.find("model.accuracy"), std::string::npos);

  // Calibration error growing gates (lower-is-better).
  const auto ece = write("model_ece.json", model_metrics_json(0.90, 0.20, 0.5));
  const auto ece_result = run_perfdiff(base + " " + ece);
  EXPECT_EQ(ece_result.exit_code, 1) << ece_result.output;
  EXPECT_NE(ece_result.output.find("model.ece"), std::string::npos);

  // Class vectors collapsing toward each other gates (higher-is-better).
  const auto sep = write("model_sep.json", model_metrics_json(0.90, 0.10, 0.2));
  EXPECT_EQ(run_perfdiff(base + " " + sep).exit_code, 1);

  // Improvements in every direction pass.
  const auto better = write("model_better.json", model_metrics_json(0.95, 0.05, 0.7));
  EXPECT_EQ(run_perfdiff(base + " " + better).exit_code, 0);
}

TEST_F(PerfdiffTest, MalformedInputsExitWithUsageError) {
  const auto good = write("good.json", bench_json(1.0, 0.9, 5.0));
  const auto garbage = write("garbage.json", "this is not json\n");
  EXPECT_EQ(run_perfdiff(good + " " + garbage).exit_code, 2);

  const auto wrong_schema =
      write("schema.json", "{\"schema\":\"other-v9\",\"metrics\":{}}\n");
  EXPECT_EQ(run_perfdiff(good + " " + wrong_schema).exit_code, 2);

  EXPECT_EQ(run_perfdiff(good + " " + dir_.string() + "/does_not_exist.json").exit_code,
            2);
}

TEST_F(PerfdiffTest, DeeplyNestedJsonExitsWithUsageError) {
  // Deeper than any parser stack: a depth-capped reader rejects it.
  const auto good = write("good.json", bench_json(1.0, 0.9, 5.0));
  const auto deep =
      write("deep.json", std::string(200000, '[') + std::string(200000, ']'));
  const RunResult result = run_perfdiff(good + " " + deep);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("is not valid JSON"), std::string::npos) << result.output;
}

}  // namespace

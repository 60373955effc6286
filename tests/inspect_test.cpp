// Tests for the offline inspection subcommands of the `hdc` binary:
//
//   * `hdc model inspect` / `hdc energy inspect` over monitor snapshots,
//     fleet snapshots with per-tenant sections, the hdc-modelstats-v1 /
//     hdc-energystats-v1 wrappers and raw HDSV serve checkpoints;
//   * `hdc trace analyze` over Chrome traces and hdc-request-trace-v1
//     exemplar JSONL.
//
// Drives the real binary over real serve artifacts (the same files CI's
// conservation and attribution gates check) plus handcrafted and malformed
// files to pin the exit-code contract: 0 = pass, 1 = conservation or
// attribution violation, or tenant/request not found, 2 = usage/parse error.

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "common/sim_time.hpp"
#include "data/synthetic.hpp"
#include "obs/trace.hpp"
#include "runtime/framework.hpp"
#include "runtime/router.hpp"
#include "runtime/serve.hpp"
#include "tool_run.hpp"

namespace {

namespace fs = std::filesystem;
using namespace hdc;
using hdc_test::RunResult;

RunResult run_modelq(const std::string& args) {
  return hdc_test::run_tool(HDC_CLI_PATH, "model inspect " + args);
}
RunResult run_energyq(const std::string& args) {
  return hdc_test::run_tool(HDC_CLI_PATH, "energy inspect " + args);
}
RunResult run_traceq(const std::string& args) {
  return hdc_test::run_tool(HDC_CLI_PATH, "trace analyze " + args);
}

runtime::ServeConfig serve_config() {
  runtime::ServeConfig config;
  config.stream.spec = data::paper_dataset("PAMAP2");
  config.stream.spec.seed = 0x5E44E;
  config.stream.chunk_size = 48;
  config.learner.dim = 256;
  config.learner.seed = 11;
  config.warmup_chunks = 2;
  config.serve_chunks = 6;
  return config;
}

/// The overloaded faulty serve scenario (2x offered load, bounded queue, a
/// detach window): produces shed, degraded and tail-latency exemplars.
runtime::ServeConfig overloaded_faulty_config() {
  runtime::ServeConfig config = serve_config();
  config.serve_chunks = 16;
  config.online_updates = true;
  config.model_refresh_chunks = 4;
  config.faults.detach_at = {SimDuration::seconds(0.03)};
  config.faults.reattach_after = SimDuration::seconds(0.02);
  config.faults.seed = 7;
  config.admission.offered_load = 2.0;
  config.admission.queue_capacity = 3;
  config.health.probe_interval = SimDuration::millis(30);
  return config;
}

/// 200,000 nested arrays: deeper than any parser stack, so a recursive
/// reader without a depth cap overflows it.
std::string deep_nesting() {
  return std::string(200000, '[') + std::string(200000, ']');
}

using ModelqTest = hdc_test::TempDirTest;
using EnergyqTest = hdc_test::TempDirTest;
using TraceqTest = hdc_test::TempDirTest;

// ---- hdc model inspect ------------------------------------------------------

TEST_F(ModelqTest, ServeSnapshotPassesConservation) {
  const runtime::CoDesignFramework framework;
  runtime::ServeConfig config = serve_config();
  config.snapshot_dir = dir_.string();
  runtime::serve(framework, config);

  const std::string snapshot = (dir_ / "monitor_snapshot_final.json").string();
  const RunResult report = run_modelq(snapshot + " --assert-conservation");
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("conservation: PASS"), std::string::npos)
      << report.output;
  EXPECT_NE(report.output.find("confusion (rows = true label):"), std::string::npos);
  EXPECT_NE(report.output.find("calibration: ECE"), std::string::npos);
  EXPECT_NE(report.output.find("class-vector health:"), std::string::npos);
  EXPECT_NE(report.output.find("bottom dimensions"), std::string::npos);
}

TEST_F(ModelqTest, CheckpointIsSniffedByMagicAndPassesConservation) {
  const runtime::CoDesignFramework framework;
  runtime::ServeConfig config = serve_config();
  config.checkpoint_path = (dir_ / "serve.ckpt").string();
  config.checkpoint_every_chunks = 3;
  const runtime::ServeResult result = runtime::serve(framework, config);
  ASSERT_GT(result.checkpoints_written, 0U);

  const RunResult report = run_modelq(config.checkpoint_path + " --assert-conservation");
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("model (checkpoint):"), std::string::npos)
      << report.output;
  EXPECT_NE(report.output.find("conservation: PASS"), std::string::npos);
}

TEST_F(ModelqTest, FleetSnapshotChecksTenantsAndSelectsByIndex) {
  const runtime::CoDesignFramework framework;
  runtime::ServeConfig config = serve_config();
  config.serve_chunks = 16;
  config.admission.offered_load = 2.0;
  config.fleet.num_devices = 2;
  config.fleet.num_tenants = 2;
  config.snapshot_dir = dir_.string();
  serve_fleet(framework, config);

  const std::string snapshot = (dir_ / "fleet_snapshot_final.json").string();
  const RunResult aggregate = run_modelq(snapshot + " --assert-conservation");
  EXPECT_EQ(aggregate.exit_code, 0) << aggregate.output;
  EXPECT_NE(aggregate.output.find("conservation: PASS"), std::string::npos)
      << aggregate.output;

  const RunResult tenant = run_modelq(snapshot + " --tenant 1");
  EXPECT_EQ(tenant.exit_code, 0) << tenant.output;
  EXPECT_NE(tenant.output.find("tenant 1:"), std::string::npos) << tenant.output;

  // A tenant the fleet never had is a lookup failure, not a parse error.
  const RunResult missing = run_modelq(snapshot + " --tenant 99");
  EXPECT_EQ(missing.exit_code, 1) << missing.output;
}

TEST_F(ModelqTest, HandcraftedViolationFailsTheGate) {
  // Row 0 sums to 3 but class_served says 4, and the calibration bins only
  // cover 3 of the 4 claimed samples: two distinct violations.
  const std::string path = write(
      "bad.json",
      "{\"schema\":\"hdc-monitor-v1\",\"t_s\":1.0,\"lifetime\":{\"samples\":4},"
      "\"model\":{\"samples\":4,\"classes\":2,\"dim\":0,"
      "\"confusion\":[[2,1],[0,0]],\"class_served\":[4,0],"
      "\"window\":{\"samples\":3,\"accuracy\":0.5,\"confusion\":[[2,1],[0,0]]},"
      "\"calibration\":{\"ece\":0,\"bins\":[{\"count\":3,\"correct\":2,"
      "\"mean_confidence\":0.5}]}}}");
  const RunResult plain = run_modelq(path);
  EXPECT_EQ(plain.exit_code, 0) << plain.output;  // report-only without the flag
  const RunResult gated = run_modelq(path + " --assert-conservation");
  EXPECT_EQ(gated.exit_code, 1) << gated.output;
  EXPECT_NE(gated.output.find("conservation: FAIL"), std::string::npos) << gated.output;
  EXPECT_NE(gated.output.find("VIOLATION"), std::string::npos);
  EXPECT_NE(gated.output.find("confusion row 0"), std::string::npos);
  EXPECT_NE(gated.output.find("calibration bins"), std::string::npos);
}

TEST_F(ModelqTest, UsageAndParseErrorsExitTwo) {
  EXPECT_EQ(run_modelq("--help").exit_code, 0);
  EXPECT_EQ(run_modelq("").exit_code, 2);                // no input
  EXPECT_EQ(run_modelq("--bogus x.json").exit_code, 2);  // unknown flag
  EXPECT_EQ(run_modelq((dir_ / "absent.json").string()).exit_code, 2);
  const std::string garbage = write("garbage.json", "not json at all\n");
  EXPECT_EQ(run_modelq(garbage).exit_code, 2);
  // Valid hdc-monitor-v1 JSON without a model section is actionable advice,
  // not a crash.
  const std::string no_model =
      write("no_model.json", "{\"schema\":\"hdc-monitor-v1\",\"t_s\":0}");
  const RunResult missing = run_modelq(no_model);
  EXPECT_EQ(missing.exit_code, 2);
  EXPECT_NE(missing.output.find("no model section"), std::string::npos);
}

TEST_F(ModelqTest, ClassCountBeyondTheDocumentExitsTwo) {
  // Sized from the raw double, 1e10 classes asked for a 1e20-cell matrix.
  const std::string path =
      write("huge.json",
            "{\"schema\":\"hdc-monitor-v1\",\"t_s\":0,\"model\":{\"samples\":0,"
            "\"classes\":1e10,\"dim\":0,\"confusion\":[[0]],\"class_served\":[0]}}");
  const RunResult report = run_modelq(path + " --assert-conservation");
  EXPECT_EQ(report.exit_code, 2) << report.output;
  EXPECT_NE(report.output.find("model.classes is 10000000000"), std::string::npos)
      << report.output;
}

TEST_F(ModelqTest, NegativeClassCountExitsTwo) {
  // Cast to size_t, -3 classes became a count near 2^64.
  const std::string path =
      write("negative.json",
            "{\"schema\":\"hdc-monitor-v1\",\"t_s\":0,\"model\":{\"samples\":0,"
            "\"classes\":-3,\"dim\":0,\"confusion\":[],\"class_served\":[]}}");
  const RunResult report = run_modelq(path + " --assert-conservation");
  EXPECT_EQ(report.exit_code, 2) << report.output;
  EXPECT_NE(report.output.find("model.classes is -3"), std::string::npos)
      << report.output;
}

TEST_F(ModelqTest, TenantMustBeANonNegativeInteger) {
  const std::string path = write(
      "fleet.json",
      "{\"schema\":\"hdc-monitor-v1\",\"t_s\":0,\"model\":{\"samples\":0,"
      "\"classes\":0,\"tenants\":[{\"tenant\":0,\"model\":{\"samples\":0,"
      "\"classes\":0}}]}}");
  EXPECT_EQ(run_modelq(path + " --tenant 0").exit_code, 0);
  for (const char* bad : {"abc", "-1", "1x", "\"\""}) {
    const RunResult report = run_modelq(path + " --tenant " + bad);
    EXPECT_EQ(report.exit_code, 2) << bad << ": " << report.output;
    EXPECT_NE(report.output.find("--tenant expects a non-negative integer"),
              std::string::npos)
        << report.output;
  }
}

TEST_F(ModelqTest, DeeplyNestedJsonExitsTwo) {
  const RunResult report = run_modelq(write("deep.json", deep_nesting()));
  EXPECT_EQ(report.exit_code, 2) << report.output;
  EXPECT_NE(report.output.find("is not valid JSON"), std::string::npos) << report.output;
}

// ---- hdc energy inspect -----------------------------------------------------

TEST_F(EnergyqTest, ServeSnapshotPassesConservation) {
  const runtime::CoDesignFramework framework;
  runtime::ServeConfig config = serve_config();
  config.snapshot_dir = dir_.string();
  runtime::serve(framework, config);

  const std::string snapshot = (dir_ / "monitor_snapshot_final.json").string();
  const RunResult report = run_energyq(snapshot + " --assert-conservation");
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("conservation: PASS"), std::string::npos)
      << report.output;
  EXPECT_NE(report.output.find("energy:"), std::string::npos);
  EXPECT_NE(report.output.find("components:"), std::string::npos);
  EXPECT_NE(report.output.find("mxu_active"), std::string::npos);
  EXPECT_NE(report.output.find("J/inference"), std::string::npos);
  EXPECT_NE(report.output.find("watts ewma:"), std::string::npos);
}

TEST_F(EnergyqTest, CheckpointIsSniffedByMagicAndPassesConservation) {
  const runtime::CoDesignFramework framework;
  runtime::ServeConfig config = serve_config();
  config.checkpoint_path = (dir_ / "serve.ckpt").string();
  config.checkpoint_every_chunks = 3;
  const runtime::ServeResult result = runtime::serve(framework, config);
  ASSERT_GT(result.checkpoints_written, 0U);

  const RunResult report = run_energyq(config.checkpoint_path + " --assert-conservation");
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("conservation: PASS"), std::string::npos)
      << report.output;

  // A resumed checkpoint passes the same gate — the CI resume artifact check.
  runtime::ServeConfig resumed = serve_config();
  resumed.checkpoint_path = (dir_ / "resumed.ckpt").string();
  resumed.checkpoint_every_chunks = 3;
  resumed.resume_from = (dir_ / "serve.ckpt").string();
  runtime::serve(framework, resumed);
  const RunResult resumed_report =
      run_energyq(resumed.checkpoint_path + " --assert-conservation");
  EXPECT_EQ(resumed_report.exit_code, 0) << resumed_report.output;
}

TEST_F(EnergyqTest, FleetSnapshotChecksTenantsAndSelectsByIndex) {
  const runtime::CoDesignFramework framework;
  runtime::ServeConfig config = serve_config();
  config.serve_chunks = 16;
  config.admission.offered_load = 2.0;
  config.fleet.num_devices = 2;
  config.fleet.num_tenants = 2;
  config.snapshot_dir = dir_.string();
  runtime::serve_fleet(framework, config);

  const std::string snapshot = (dir_ / "fleet_snapshot_final.json").string();
  const RunResult aggregate = run_energyq(snapshot + " --assert-conservation");
  EXPECT_EQ(aggregate.exit_code, 0) << aggregate.output;
  EXPECT_NE(aggregate.output.find("conservation: PASS"), std::string::npos)
      << aggregate.output;
  EXPECT_NE(aggregate.output.find("tenants:"), std::string::npos) << aggregate.output;

  const RunResult tenant = run_energyq(snapshot + " --tenant 1");
  EXPECT_EQ(tenant.exit_code, 0) << tenant.output;
  EXPECT_NE(tenant.output.find("tenant 1:"), std::string::npos) << tenant.output;

  // A tenant the fleet never had is a lookup failure, not a parse error.
  const RunResult missing = run_energyq(snapshot + " --tenant 99");
  EXPECT_EQ(missing.exit_code, 1) << missing.output;
}

TEST_F(EnergyqTest, HandcraftedViolationFailsTheGate) {
  // Three distinct violations: the stage ledger sums to 90 (not the claimed
  // 100), the component ledger to 110, and the outcome split to 95.
  const std::string path = write(
      "bad.json",
      "{\"schema\":\"hdc-monitor-v1\",\"t_s\":1.0,\"lifetime\":{\"samples\":64},"
      "\"energy\":{\"schema\":\"hdc-energy-v1\",\"total_pj\":100,"
      "\"total_joules\":1e-10,"
      "\"profile\":{\"idle_watts\":4.5,\"mxu_active_watts\":6.5,"
      "\"link_watts\":6.5,\"sram_write_watts\":6.5,\"host_busy_watts\":15.0,"
      "\"backoff_watts\":6.5},"
      "\"stages\":{\"queue_wait\":90},"
      "\"components\":{\"mxu_active\":110},"
      "\"outcomes\":{\"served_pj\":95,\"shed_pj\":0,\"expired_pj\":0,"
      "\"degraded_pj\":0},"
      "\"requests\":2,\"samples_served\":64,"
      "\"window\":{\"pj\":100,\"samples\":64,\"joules_per_inference\":0},"
      "\"watts_ewma\":0,"
      "\"alarms\":{\"energy_budget\":{\"firing\":false,\"fired_total\":0,"
      "\"value\":0,\"threshold\":0,\"detail\":\"\"}},"
      "\"quarantined\":false,\"suppressed_alarms_total\":0}}");
  const RunResult plain = run_energyq(path);
  EXPECT_EQ(plain.exit_code, 0) << plain.output;  // report-only without the flag
  const RunResult gated = run_energyq(path + " --assert-conservation");
  EXPECT_EQ(gated.exit_code, 1) << gated.output;
  EXPECT_NE(gated.output.find("conservation: FAIL"), std::string::npos) << gated.output;
  EXPECT_NE(gated.output.find("VIOLATION"), std::string::npos);
}

TEST_F(EnergyqTest, UsageAndParseErrorsExitTwo) {
  EXPECT_EQ(run_energyq("--help").exit_code, 0);
  EXPECT_EQ(run_energyq("").exit_code, 2);                // no input
  EXPECT_EQ(run_energyq("--bogus x.json").exit_code, 2);  // unknown flag
  EXPECT_EQ(run_energyq((dir_ / "absent.json").string()).exit_code, 2);
  const std::string garbage = write("garbage.json", "not json at all\n");
  EXPECT_EQ(run_energyq(garbage).exit_code, 2);
  // Valid hdc-monitor-v1 JSON without an energy section is actionable
  // advice, not a crash.
  const std::string no_energy =
      write("no_energy.json", "{\"schema\":\"hdc-monitor-v1\",\"t_s\":0}");
  const RunResult missing = run_energyq(no_energy);
  EXPECT_EQ(missing.exit_code, 2);
  EXPECT_NE(missing.output.find("no energy section"), std::string::npos);
}

TEST_F(EnergyqTest, TenantMustBeANonNegativeInteger) {
  const std::string path =
      write("fleet.json",
            "{\"schema\":\"hdc-monitor-v1\",\"t_s\":0,\"energy\":{\"total_pj\":5,"
            "\"tenants\":[{\"tenant\":0,\"total_pj\":5}]}}");
  EXPECT_EQ(run_energyq(path + " --tenant 0").exit_code, 0);
  for (const char* bad : {"abc", "-1", "1x", "\"\""}) {
    const RunResult report = run_energyq(path + " --tenant " + bad);
    EXPECT_EQ(report.exit_code, 2) << bad << ": " << report.output;
    EXPECT_NE(report.output.find("--tenant expects a non-negative integer"),
              std::string::npos)
        << report.output;
  }
}

TEST_F(EnergyqTest, DeeplyNestedJsonExitsTwo) {
  const RunResult report = run_energyq(write("deep.json", deep_nesting()));
  EXPECT_EQ(report.exit_code, 2) << report.output;
  EXPECT_NE(report.output.find("is not valid JSON"), std::string::npos) << report.output;
}

// ---- hdc trace analyze ------------------------------------------------------

TEST_F(TraceqTest, ServeExemplarsPassAssertionAndResolveByRequestId) {
  const runtime::CoDesignFramework framework;
  runtime::ServeConfig config = overloaded_faulty_config();
  config.exemplar_path = (dir_ / "exemplars.jsonl").string();
  const runtime::ServeResult result = runtime::serve(framework, config);
  ASSERT_FALSE(result.exemplar_records.empty());

  // The full report passes the exactness assertion on real serve output.
  const RunResult report = run_traceq(config.exemplar_path + " --assert-attribution");
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("(jsonl format)"), std::string::npos) << report.output;
  EXPECT_NE(report.output.find("attribution exactness"), std::string::npos);
  EXPECT_EQ(report.output.find("VIOLATION"), std::string::npos) << report.output;
  EXPECT_NE(report.output.find("top "), std::string::npos);

  // A retained exemplar id resolves to its full span chain — the contract
  // behind the `exemplar=<id>` annotation on alarm log lines.
  const std::uint64_t id = result.exemplar_records.front().trace.request_id;
  const RunResult chain =
      run_traceq(config.exemplar_path + " --req " + std::to_string(id));
  EXPECT_EQ(chain.exit_code, 0) << chain.output;
  EXPECT_NE(chain.output.find("request " + std::to_string(id) + ":"),
            std::string::npos)
      << chain.output;
  EXPECT_NE(chain.output.find("span chain"), std::string::npos);

  // An id that was never retained is a lookup failure, not a parse error.
  const RunResult missing = run_traceq(config.exemplar_path + " --req 999999");
  EXPECT_EQ(missing.exit_code, 1) << missing.output;
}

TEST_F(TraceqTest, CorruptedAttributionFailsTheAssertion) {
  // Handcrafted record whose stages sum to 0.375, not the recorded 0.5.
  const std::string path = write(
      "bad.jsonl",
      "{\"schema\":\"hdc-request-trace-v1\",\"request_id\":9,\"outcome\":\"served\","
      "\"reason\":\"tail_latency\",\"tier\":0,\"samples\":4,\"faulty\":false,"
      "\"arrival_s\":0,\"end_s\":0.5,\"latency_s\":0.5,"
      "\"attribution\":{\"queue_wait\":0.25,\"device\":0.125},\"spans\":[]}\n");
  const RunResult plain = run_traceq(path);
  EXPECT_EQ(plain.exit_code, 0) << plain.output;  // report-only without the flag
  EXPECT_NE(plain.output.find("VIOLATION request 9"), std::string::npos);

  const RunResult gated = run_traceq(path + " --assert-attribution");
  EXPECT_EQ(gated.exit_code, 1) << gated.output;
  EXPECT_NE(gated.output.find("FAIL"), std::string::npos);
}

TEST_F(TraceqTest, NegativeStageFailsTheAssertion) {
  // Handcrafted record whose stages sum exactly to the recorded 0.5, with a
  // batch wait running backwards.
  const std::string path = write(
      "negative.jsonl",
      "{\"schema\":\"hdc-request-trace-v1\",\"request_id\":7,\"outcome\":\"served\","
      "\"reason\":\"tail_latency\",\"tier\":0,\"samples\":4,\"faulty\":false,"
      "\"arrival_s\":0,\"end_s\":0.5,\"latency_s\":0.5,"
      "\"attribution\":{\"batch_wait\":-0.25,\"device\":0.75},\"spans\":[]}\n");
  const RunResult plain = run_traceq(path);
  EXPECT_EQ(plain.exit_code, 0) << plain.output;  // report-only without the flag
  EXPECT_NE(plain.output.find("VIOLATION request 7: stage batch_wait is negative"),
            std::string::npos)
      << plain.output;

  const RunResult gated = run_traceq(path + " --assert-attribution");
  EXPECT_EQ(gated.exit_code, 1) << gated.output;
  EXPECT_NE(gated.output.find("FAIL"), std::string::npos);
}

TEST_F(TraceqTest, ChromeTraceReassemblesRequestChains) {
  obs::TraceContext trace;
  runtime::CoDesignFramework framework;
  framework.set_trace(&trace);
  runtime::ServeConfig config = overloaded_faulty_config();
  runtime::serve(framework, config);
  const fs::path path = dir_ / "trace.json";
  {
    std::ofstream out(path);
    trace.write_chrome_trace(out);
  }

  const RunResult report = run_traceq(path.string());
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("(chrome format)"), std::string::npos) << report.output;
  EXPECT_EQ(report.output.find("0 requests"), std::string::npos) << report.output;

  // Chrome span chains are not a latency partition: the assertion is
  // explicitly skipped, never silently passed.
  const RunResult gated = run_traceq(path.string() + " --assert-attribution");
  EXPECT_EQ(gated.exit_code, 0) << gated.output;
  EXPECT_NE(gated.output.find("skipped"), std::string::npos) << gated.output;
}

TEST_F(TraceqTest, UsageAndParseErrorsExitTwo) {
  EXPECT_EQ(run_traceq("--help").exit_code, 0);
  EXPECT_EQ(run_traceq("").exit_code, 2);                       // no input
  EXPECT_EQ(run_traceq("--bogus x.json").exit_code, 2);         // unknown flag
  EXPECT_EQ(run_traceq((dir_ / "absent.json").string()).exit_code, 2);
  const std::string garbage = write("garbage.jsonl", "not json at all\n");
  EXPECT_EQ(run_traceq(garbage).exit_code, 2);
  // Valid JSON lines that are not hdc-request-trace-v1 records also fail.
  const std::string wrong = write("wrong.jsonl", "{\"schema\":\"other\"}\n");
  EXPECT_EQ(run_traceq(wrong).exit_code, 2);
}

TEST_F(TraceqTest, DeeplyNestedJsonExitsTwo) {
  const RunResult report =
      run_traceq(write("deep.json", "{\"traceEvents\":" + deep_nesting() + "}"));
  EXPECT_EQ(report.exit_code, 2) << report.output;
  EXPECT_NE(report.output.find("is not valid JSON"), std::string::npos) << report.output;
}

}  // namespace

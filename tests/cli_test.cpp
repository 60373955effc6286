// Process-level tests of the `hdc` command-line tool: real binary, real
// files, real exit codes. The binary path is injected by CMake as
// HDC_CLI_PATH (a compile definition pointing at the built target).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <unistd.h>

#include "tool_run.hpp"

namespace {

namespace fs = std::filesystem;

hdc_test::RunResult run_cli(const std::string& args) {
  return hdc_test::run_tool(HDC_CLI_PATH, args);
}

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One directory per test process: ctest runs each test of this suite
    // in its own process, possibly concurrently, and TearDownTestSuite
    // removes the directory.
    dir_ = new fs::path(fs::temp_directory_path() /
                        ("hdc_cli_test_" + std::to_string(::getpid())));
    fs::create_directories(*dir_);
    // A small 3-class, 4-feature CSV.
    std::ofstream csv(*dir_ / "train.csv");
    for (int i = 0; i < 240; ++i) {
      const int c = i % 3;
      const double jitter = 0.1 * ((i * 37 % 19) - 9) / 9.0;
      csv << c * 1.0 + jitter << "," << 1.0 - c * 0.4 + jitter << ","
          << c * c * 0.2 + jitter << "," << 0.5 - jitter << ",class" << c << "\n";
    }
  }
  static void TearDownTestSuite() {
    fs::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  static std::string path(const char* name) { return (*dir_ / name).string(); }
  static fs::path* dir_;
};

fs::path* CliTest::dir_ = nullptr;

TEST_F(CliTest, NoArgumentsPrintsUsageAndFails) {
  const auto result = run_cli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("commands:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  const auto result = run_cli("frobnicate");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, DatasetsListsTableOne) {
  const auto result = run_cli("datasets");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("ISOLET"), std::string::npos);
  EXPECT_NE(result.output.find("784"), std::string::npos);  // MNIST features
}

TEST_F(CliTest, TrainInferCompileDescribeRoundTrip) {
  const std::string model = path("model.hdcm");
  const std::string lite = path("model.hdlt");

  const auto train = run_cli("train " + path("train.csv") + " --out " + model +
                             " --dim 512 --epochs 6");
  ASSERT_EQ(train.exit_code, 0) << train.output;
  EXPECT_NE(train.output.find("final train accuracy"), std::string::npos);
  EXPECT_TRUE(fs::exists(model));

  const auto infer = run_cli("infer " + path("train.csv") + " --model " + model);
  ASSERT_EQ(infer.exit_code, 0) << infer.output;
  EXPECT_NE(infer.output.find("accuracy:"), std::string::npos);

  const auto infer_tpu =
      run_cli("infer " + path("train.csv") + " --model " + model + " --tpu");
  ASSERT_EQ(infer_tpu.exit_code, 0) << infer_tpu.output;
  EXPECT_NE(infer_tpu.output.find("TPU (simulated)"), std::string::npos);

  const auto compile = run_cli("compile " + model + " --out " + lite);
  ASSERT_EQ(compile.exit_code, 0) << compile.output;
  EXPECT_NE(compile.output.find("ops mapped to device"), std::string::npos);
  EXPECT_TRUE(fs::exists(lite));

  const auto describe = run_cli("describe " + lite);
  ASSERT_EQ(describe.exit_code, 0) << describe.output;
  EXPECT_NE(describe.output.find("FULLY_CONNECTED"), std::string::npos);
}

TEST_F(CliTest, BaggedTrainingWorks) {
  const std::string model = path("bagged.hdcm");
  const auto train = run_cli("train " + path("train.csv") + " --out " + model +
                             " --dim 512 --bagging 4");
  ASSERT_EQ(train.exit_code, 0) << train.output;
  EXPECT_NE(train.output.find("bagged model (M=4"), std::string::npos);
  EXPECT_TRUE(fs::exists(model));
}

TEST_F(CliTest, MissingInputFileFailsCleanly) {
  const auto result = run_cli("train /nope/missing.csv");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error:"), std::string::npos);
}

TEST_F(CliTest, ErrorsPrintTheMessageWithoutSourceLocation) {
  // A check in the CLI (a flag with no value) and one in the library (a
  // missing CSV) both print the message alone: no C++ file:line that would
  // change with every edit above the check.
  for (const std::string& args :
       {"train " + path("train.csv") + " --bagging", "train " + path("missing.csv")}) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 1) << args << "\n" << result.output;
    EXPECT_NE(result.output.find("error: "), std::string::npos) << result.output;
    EXPECT_EQ(result.output.find(".cpp:"), std::string::npos) << result.output;
  }
}

TEST_F(CliTest, CorruptModelFileRejected) {
  const std::string bad = path("bad.hdcm");
  std::ofstream(bad) << "this is not a model";
  const auto result = run_cli("infer " + path("train.csv") + " --model " + bad);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error:"), std::string::npos);
}

TEST_F(CliTest, MalformedTraceCapWarnsButRunSucceeds) {
  // Garbage numeric flags must not be silently accepted (or crash): the CLI
  // warns, keeps the default cap, and the traced run still completes.
  const std::string model = path("cap_model.hdcm");
  ASSERT_EQ(run_cli("train " + path("train.csv") + " --out " + model +
                    " --dim 256 --epochs 1")
                .exit_code,
            0);
  const auto result = run_cli("infer " + path("train.csv") + " --model " + model +
                              " --tpu --trace " + path("cap.trace.json") +
                              " --trace-cap 12abc");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("warning: ignoring malformed --trace-cap"),
            std::string::npos)
      << result.output;
  EXPECT_TRUE(fs::exists(path("cap.trace.json")));
}

TEST_F(CliTest, MalformedNumericFlagsFailNamingTheFlag) {
  // A numeric flag must not train on what atoi made of its value, nor fall
  // back to its default when the value is missing or is the next option.
  const std::string base = "train " + path("train.csv") + " --out " + path("strict.hdcm");
  const struct {
    const char* flags;
    const char* fragment;
  } cases[] = {
      {" --dim 12x", "--dim expects a whole number"},
      {" --epochs 2 --dim", "--dim needs a value"},
      {" --dim --epochs 2", "--dim needs a value"},
  };
  for (const auto& c : cases) {
    const auto result = run_cli(base + c.flags);
    EXPECT_EQ(result.exit_code, 1) << c.flags << "\n" << result.output;
    EXPECT_NE(result.output.find("error:"), std::string::npos) << result.output;
    EXPECT_NE(result.output.find(c.fragment), std::string::npos)
        << c.flags << " should name the flag:\n"
        << result.output;
  }
  EXPECT_FALSE(fs::exists(path("strict.hdcm")));
}

TEST_F(CliTest, ServeRejectsInvalidOverloadFlags) {
  const std::string base = "serve PAMAP2 --chunks 2 --chunk-size 16 --dim 128 --warmup 1 ";

  auto expect_rejected = [&](const std::string& flags, const char* fragment) {
    const auto result = run_cli(base + flags);
    EXPECT_EQ(result.exit_code, 1) << flags << "\n" << result.output;
    EXPECT_NE(result.output.find("error:"), std::string::npos) << result.output;
    EXPECT_NE(result.output.find(fragment), std::string::npos)
        << flags << " should explain itself:\n"
        << result.output;
  };

  expect_rejected("--deadline-us 0", "positive number of microseconds");
  expect_rejected("--deadline-us -5", "positive number of microseconds");
  expect_rejected("--queue-chunks 0", "must be at least 1");
  expect_rejected("--offered-load -1", "must be non-negative");
  expect_rejected("--probe-interval-us 0", "half-open probes");
  expect_rejected("--reduced-dim 0", "must be positive");
  expect_rejected("--shed-policy keep-some", "reject-newest");
  expect_rejected("--swap-classes 1,2x", "two distinct non-negative class indices");
  expect_rejected("--swap-classes 1,2,3", "two distinct non-negative class indices");
  expect_rejected("--snapshot-every 4", "snapshot directory or a Prometheus path");
}

TEST_F(CliTest, ServeOverloadSmokeReportsAdmissionAndHealth) {
  const auto result = run_cli(
      "serve PAMAP2 --chunks 4 --chunk-size 16 --dim 128 --warmup 1 "
      "--offered-load 2 --queue-chunks 2 --shed-policy drop-oldest");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("admission:"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("final device health: healthy"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("tier "), std::string::npos) << result.output;
}

// --requests and --prom work in both modes: one hdc-request-trace-v1 line
// per offered chunk (served, shed and expired alike), whose stages the trace
// tool re-sums exactly, and the final Prometheus exposition. Fleet mode
// refuses --trace (and --metrics/--profile) instead of writing an empty
// trace.
TEST_F(CliTest, ServeWritesRequestsAndPrometheusInBothModes) {
  const std::string base =
      "serve PAMAP2 --chunks 6 --chunk-size 16 --dim 128 --warmup 1 --offered-load 2 "
      "--queue-chunks 2 --fault-profile corrupt=0.3,seed=3 ";
  const std::string fleet = "--devices 2 --tenants 2 ";
  for (const std::string& mode : {std::string(), fleet}) {
    SCOPED_TRACE(mode);
    const std::string requests = path("requests.jsonl");
    const std::string prom = path("serve.prom");
    fs::remove(requests);
    fs::remove(prom);
    const auto served = run_cli(base + mode + "--requests " + requests + " --prom " + prom);
    ASSERT_EQ(served.exit_code, 0) << served.output;
    EXPECT_NE(served.output.find("wrote 6 request traces"), std::string::npos)
        << served.output;
    EXPECT_NE(served.output.find("wrote Prometheus exposition"), std::string::npos)
        << served.output;
    std::ifstream in(requests);
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
      ++lines;
    }
    EXPECT_EQ(lines, 6);
    const auto audit = run_cli("trace analyze " + requests + " --assert-attribution");
    EXPECT_EQ(audit.exit_code, 0) << audit.output;
    std::ifstream prom_in(prom);
    const std::string text((std::istreambuf_iterator<char>(prom_in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\nhdc_"), std::string::npos) << text;
  }

  const std::string trace = path("fleet.trace.json");
  const auto refused = run_cli(base + fleet + "--trace " + trace);
  EXPECT_EQ(refused.exit_code, 1) << refused.output;
  EXPECT_NE(refused.output.find("single-device"), std::string::npos) << refused.output;
  EXPECT_FALSE(fs::exists(trace));
}

}  // namespace

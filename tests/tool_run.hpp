// Helpers for the tests that drive a built tool binary as a process: run it
// through the shell with stdout and stderr captured together, inside a
// fresh temporary directory per test.

#pragma once

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace hdc_test {

struct RunResult {
  int exit_code = -1;  ///< -1 when the process did not exit normally (a signal)
  std::string output;  ///< stdout and stderr, interleaved
};

inline RunResult run_tool(const std::string& binary, const std::string& args) {
  const std::string command = binary + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  RunResult result;
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// Gives each test its own empty directory `dir_`, removed afterwards.
class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("hdc_" + std::string(test->test_suite_name()) + "_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
            test->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes `content` to `name` inside the directory; returns its path.
  std::string write(const char* name, const std::string& content) {
    const std::filesystem::path path = dir_ / name;
    std::ofstream out(path);
    out << content;
    return path.string();
  }

  std::filesystem::path dir_;
};

}  // namespace hdc_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/synthetic.hpp"
#include "lite/builder.hpp"
#include "lite/quantize.hpp"
#include "obs/request_trace.hpp"
#include "platform/cpu_executor.hpp"
#include "platform/profiles.hpp"
#include "runtime/framework.hpp"
#include "runtime/resilient.hpp"
#include "tensor/matrix.hpp"
#include "tpu/compiler.hpp"
#include "tpu/device.hpp"
#include "tpu/faults.hpp"
#include "tpu/usb.hpp"

namespace hdc::runtime {
namespace {

// ------------------------------------------------- profile and injector ----

TEST(FaultProfileTest, DefaultProfileIsFaultFree) {
  const tpu::FaultProfile profile;
  EXPECT_NO_THROW(profile.validate());
  EXPECT_FALSE(profile.enabled());
}

TEST(FaultProfileTest, ValidationRejectsOutOfRangeValues) {
  tpu::FaultProfile p;
  p.transfer_corrupt_prob = -0.1;
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.transfer_corrupt_prob = 1.5;
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.transfer_nak_prob = 2.0;
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.sram_bitflip_per_byte = -1e-9;
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.max_transfer_attempts = 0;
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.nak_stall = SimDuration::micros(-1);
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.detach_at.push_back(SimDuration::seconds(-1));
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.reattach_after = SimDuration::micros(-5);
  EXPECT_THROW(p.validate(), Error);
}

TEST(FaultProfileTest, ParseSpecFillsEveryField) {
  const tpu::FaultProfile p = tpu::parse_fault_profile(
      "corrupt=0.1,nak=0.05,nak-stall-us=250,attempts=6,sram=1e-8,"
      "detach=0.5,detach=1.5,reattach=0.25,seed=99");
  EXPECT_DOUBLE_EQ(p.transfer_corrupt_prob, 0.1);
  EXPECT_DOUBLE_EQ(p.transfer_nak_prob, 0.05);
  EXPECT_DOUBLE_EQ(p.nak_stall.to_micros(), 250.0);
  EXPECT_EQ(p.max_transfer_attempts, 6U);
  EXPECT_DOUBLE_EQ(p.sram_bitflip_per_byte, 1e-8);
  ASSERT_EQ(p.detach_at.size(), 2U);
  EXPECT_DOUBLE_EQ(p.detach_at[0].to_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(p.detach_at[1].to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(p.reattach_after.to_seconds(), 0.25);
  EXPECT_EQ(p.seed, 99U);
  EXPECT_TRUE(p.enabled());
}

TEST(FaultProfileTest, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(tpu::parse_fault_profile("corrupt"), Error);
  EXPECT_THROW(tpu::parse_fault_profile("corrupt="), Error);
  EXPECT_THROW(tpu::parse_fault_profile("bogus=1"), Error);
  EXPECT_THROW(tpu::parse_fault_profile("corrupt=abc"), Error);
  EXPECT_THROW(tpu::parse_fault_profile("corrupt=2"), Error);  // fails validate()
}

TEST(FaultInjectorTest, SameSeedDrawsIdenticalSchedule) {
  tpu::FaultProfile p;
  p.transfer_corrupt_prob = 0.3;
  p.transfer_nak_prob = 0.2;
  p.sram_bitflip_per_byte = 0.01;
  tpu::FaultInjector a(p);
  tpu::FaultInjector b(p);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.corrupt_transfer(), b.corrupt_transfer());
    EXPECT_EQ(a.nak_transfer(), b.nak_transfer());
    EXPECT_EQ(a.corruption_syndrome(), b.corruption_syndrome());
    EXPECT_EQ(a.sram_bitflips(100), b.sram_bitflips(100));
  }
}

TEST(FaultInjectorTest, ResetReplaysSchedule) {
  tpu::FaultProfile p;
  p.transfer_corrupt_prob = 0.5;
  tpu::FaultInjector injector(p);
  std::vector<bool> first;
  for (int i = 0; i < 32; ++i) {
    first.push_back(injector.corrupt_transfer());
  }
  injector.reset();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(injector.corrupt_transfer(), first[static_cast<std::size_t>(i)]);
  }
}

TEST(FaultInjectorTest, CorruptionSyndromeIsNeverZero) {
  tpu::FaultInjector injector(tpu::FaultProfile{});
  for (int i = 0; i < 256; ++i) {
    EXPECT_NE(injector.corruption_syndrome(), 0U);
  }
}

TEST(FaultInjectorTest, DetachWindowsCoverScheduledIntervals) {
  tpu::FaultProfile p;
  p.detach_at.push_back(SimDuration::millis(1));
  p.reattach_after = SimDuration::millis(1);
  const tpu::FaultInjector windowed(p);
  EXPECT_FALSE(windowed.detached(SimDuration::micros(500)));
  EXPECT_TRUE(windowed.detached(SimDuration::millis(1)));
  EXPECT_TRUE(windowed.detached(SimDuration::micros(1900)));
  EXPECT_FALSE(windowed.detached(SimDuration::micros(2500)));

  p.reattach_after = SimDuration();  // never comes back
  const tpu::FaultInjector permanent(p);
  EXPECT_FALSE(permanent.detached(SimDuration::micros(500)));
  EXPECT_TRUE(permanent.detached(SimDuration::seconds(100)));
}

// ---------------------------------------------- device under fault load ----

/// Small two-layer classifier with real (seeded) weights so functional
/// results are meaningful, quantized the same way the framework quantizes.
lite::LiteModel toy_model(std::uint32_t features, std::uint32_t dim, std::uint32_t classes,
                          std::uint64_t seed) {
  Rng rng(seed);
  tensor::MatrixF encode(features, dim);
  for (auto& v : encode.storage()) {
    v = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  }
  tensor::MatrixF classify(dim, classes);
  for (auto& v : classify.storage()) {
    v = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  }
  return lite::LiteModelBuilder("fault_toy", features)
      .dense(encode)
      .tanh()
      .dense(classify)
      .argmax()
      .finish();
}

tensor::MatrixF random_inputs(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  tensor::MatrixF m(rows, cols);
  Rng rng(seed);
  for (auto& v : m.storage()) {
    v = static_cast<float>(rng.next_double());
  }
  return m;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest()
      : float_model_(toy_model(24, 256, 5, 71)),
        quantized_(lite::quantize_model(float_model_, random_inputs(32, 24, 5), {})),
        compiled_(compiler_.compile(quantized_)),
        inputs_(random_inputs(32, 24, 99)) {}

  /// Clean reference: fresh device, resident weights, one batch invoke.
  std::pair<lite::InferenceResult, tpu::ExecutionStats> clean_invoke() const {
    tpu::EdgeTpuDevice device;
    device.load(compiled_);
    return device.invoke(compiled_, inputs_, options_, host_);
  }

  /// CPU reference: the float model, i.e. exactly what fallback samples run.
  lite::InferenceResult cpu_reference() const {
    const platform::CpuExecutor cpu(platform::host_cpu_profile());
    return cpu.run(float_model_, inputs_, tpu::ExecutionMode::kFunctional).first;
  }

  tpu::EdgeTpuCompiler compiler_{tpu::SystolicConfig{}, 8ULL << 20};
  tpu::HostCostModel host_{2e9, 1e9};
  lite::LiteModel float_model_;
  lite::LiteModel quantized_;
  tpu::CompiledModel compiled_;
  tensor::MatrixF inputs_;
  tpu::InvokeOptions options_;  // functional, streaming
};

TEST_F(FaultInjectionTest, FaultFreeInjectorIsBitIdenticalToCleanPath) {
  auto [clean_result, clean_stats] = clean_invoke();

  tpu::EdgeTpuDevice device;
  device.load(compiled_);
  device.set_fault_injector(tpu::FaultInjector(tpu::FaultProfile{}));
  auto [result, stats] = device.invoke(compiled_, inputs_, options_, host_);

  EXPECT_EQ(result.values.storage(), clean_result.values.storage());
  EXPECT_EQ(result.classes, clean_result.classes);
  EXPECT_DOUBLE_EQ(stats.total().to_seconds(), clean_stats.total().to_seconds());
  EXPECT_DOUBLE_EQ(stats.transfer.to_seconds(), clean_stats.transfer.to_seconds());
  EXPECT_EQ(stats.transfer_retries, 0U);
  EXPECT_EQ(stats.nak_stalls, 0U);
  EXPECT_EQ(stats.sram_scrubs, 0U);
  EXPECT_EQ(stats.device_detaches, 0U);
}

TEST_F(FaultInjectionTest, CheckedTransferChargesNakStalls) {
  tpu::FaultProfile profile;
  profile.transfer_nak_prob = 1.0;  // every transfer is stalled exactly once
  tpu::FaultInjector injector(profile);
  const tpu::UsbLink link{tpu::UsbLinkConfig{}};
  const auto report = link.checked_transfer(4096, 0xABCDU, &injector);
  EXPECT_TRUE(report.delivered);
  EXPECT_EQ(report.nak_stalls, 1U);
  EXPECT_EQ(report.crc_retries, 0U);
  EXPECT_DOUBLE_EQ(report.time.to_seconds(),
                   (link.transfer_time(4096) + profile.nak_stall).to_seconds());
}

TEST_F(FaultInjectionTest, CheckedTransferWithoutInjectorIsClean) {
  const tpu::UsbLink link{tpu::UsbLinkConfig{}};
  const auto report = link.checked_transfer(4096, 0xABCDU, nullptr);
  EXPECT_TRUE(report.delivered);
  EXPECT_EQ(report.nak_stalls, 0U);
  EXPECT_EQ(report.crc_retries, 0U);
  EXPECT_DOUBLE_EQ(report.time.to_seconds(), link.transfer_time(4096).to_seconds());
}

TEST_F(FaultInjectionTest, ExhaustedCrcRetriesRaiseTransferCorrupt) {
  tpu::FaultProfile profile;
  profile.transfer_corrupt_prob = 1.0;  // every send fails receiver-side CRC
  tpu::EdgeTpuDevice device;
  device.set_fault_injector(tpu::FaultInjector(profile));
  try {
    device.invoke(compiled_, inputs_, options_, host_);
    FAIL() << "expected TransferCorrupt";
  } catch (const tpu::TransferCorrupt& fault) {
    EXPECT_EQ(fault.kind(), tpu::FaultKind::kTransferCorrupt);
    // The parameter upload burned the full link-level retry budget, and the
    // failed attempt's simulated link time is still charged.
    EXPECT_EQ(fault.charged_stats().transfer_retries, profile.max_transfer_attempts);
    EXPECT_GT(fault.charged_stats().weight_upload.to_seconds(), 0.0);
  }
}

TEST_F(FaultInjectionTest, ScheduledDetachRaisesDeviceLostAndDropsSram) {
  tpu::FaultProfile profile;
  profile.detach_at.push_back(SimDuration());  // gone from t = 0, forever
  tpu::EdgeTpuDevice device;
  device.load(compiled_);
  ASSERT_TRUE(device.memory().is_resident(compiled_.id));
  device.set_fault_injector(tpu::FaultInjector(profile));
  try {
    device.invoke(compiled_, inputs_, options_, host_);
    FAIL() << "expected DeviceLost";
  } catch (const tpu::DeviceLost& fault) {
    EXPECT_EQ(fault.kind(), tpu::FaultKind::kDeviceLost);
    EXPECT_EQ(fault.charged_stats().device_detaches, 1U);
  }
  EXPECT_FALSE(device.memory().is_resident(compiled_.id));
}

TEST_F(FaultInjectionTest, SramScrubDetectsBitFlipsBeforeCompute) {
  tpu::FaultProfile profile;
  profile.sram_bitflip_per_byte = 1.0;  // flips on every invocation, guaranteed
  tpu::EdgeTpuDevice device;
  device.load(compiled_);
  device.set_fault_injector(tpu::FaultInjector(profile));
  try {
    device.invoke(compiled_, inputs_, options_, host_);
    FAIL() << "expected SramCorrupt";
  } catch (const tpu::SramCorrupt& fault) {
    EXPECT_EQ(fault.kind(), tpu::FaultKind::kSramCorrupt);
    EXPECT_EQ(fault.charged_stats().sram_scrubs, 1U);
  }
  // Corrupt weights were evicted: they must be re-uploaded, never reused.
  EXPECT_FALSE(device.memory().is_resident(compiled_.id));
}

// --------------------------------------------------- resilient executor ----

TEST_F(FaultInjectionTest, ExecutorFastPathMatchesBatchInvoke) {
  auto [clean_result, clean_stats] = clean_invoke();

  tpu::EdgeTpuDevice device;
  device.load(compiled_);
  device.set_fault_injector(tpu::FaultInjector(tpu::FaultProfile{}));
  ResilientExecutor executor(&device, platform::CpuExecutor(platform::host_cpu_profile()));
  const auto outcome = executor.run(compiled_, float_model_, inputs_, options_);

  EXPECT_EQ(outcome.result.values.storage(), clean_result.values.storage());
  EXPECT_EQ(outcome.result.classes, clean_result.classes);
  EXPECT_DOUBLE_EQ(outcome.report.total().to_seconds(), clean_stats.total().to_seconds());
  EXPECT_EQ(outcome.report.tpu_samples, inputs_.rows());
  EXPECT_EQ(outcome.report.cpu_samples, 0U);
  EXPECT_FALSE(outcome.report.circuit_opened);
}

TEST_F(FaultInjectionTest, CorruptedTransfersAreRetriedWithoutMispredicting) {
  auto [clean_result, clean_stats] = clean_invoke();

  tpu::FaultProfile profile;
  profile.transfer_corrupt_prob = 0.15;
  tpu::EdgeTpuDevice device;
  device.load(compiled_);
  device.set_fault_injector(tpu::FaultInjector(profile));
  ResilientExecutor executor(&device, platform::CpuExecutor(platform::host_cpu_profile()));
  const auto outcome = executor.run(compiled_, float_model_, inputs_, options_);

  // Corruption is detected by the CRC framing and re-sent at link level:
  // every sample still completes on the device with clean-path predictions,
  // and the re-sends cost strictly more link time.
  EXPECT_GT(outcome.report.device_stats.transfer_retries, 0U);
  EXPECT_EQ(outcome.report.cpu_samples, 0U);
  EXPECT_EQ(outcome.result.classes, clean_result.classes);
  EXPECT_GT(outcome.report.total().to_seconds(), clean_stats.total().to_seconds());
}

TEST_F(FaultInjectionTest, SramCorruptionTriggersReuploadAndRecovers) {
  auto [clean_result, clean_stats] = clean_invoke();

  tpu::FaultProfile profile;
  profile.sram_bitflip_per_byte = 2e-5;  // ~0.15 expected flips per invocation
  RetryPolicy policy;
  policy.max_attempts = 5;  // enough retries that no sample exhausts the device
  tpu::EdgeTpuDevice device;
  device.load(compiled_);
  device.set_fault_injector(tpu::FaultInjector(profile));
  ResilientExecutor executor(&device, platform::CpuExecutor(platform::host_cpu_profile()),
                             policy);
  const auto outcome = executor.run(compiled_, float_model_, inputs_, options_);

  // Scrubbing evicts the corrupt parameters; the retry re-uploads them (the
  // clean path paid no steady-state upload, so any weight_upload here is
  // fault-induced traffic) and the batch finishes with clean predictions.
  EXPECT_GT(outcome.report.device_stats.sram_scrubs, 0U);
  EXPECT_GT(outcome.report.device_stats.invoke_retries, 0U);
  EXPECT_GT(outcome.report.device_stats.weight_upload.to_seconds(), 0.0);
  EXPECT_EQ(outcome.report.cpu_samples, 0U);
  EXPECT_EQ(outcome.result.classes, clean_result.classes);
}

TEST_F(FaultInjectionTest, BackoffOutlastsReattachWindow) {
  auto [clean_result, clean_stats] = clean_invoke();

  tpu::FaultProfile profile;
  profile.detach_at.push_back(SimDuration());  // detached at t = 0 ...
  profile.reattach_after = SimDuration::millis(2);  // ... but comes back

  RetryPolicy policy;
  policy.max_attempts = 8;  // cumulative backoff 200+400+...us clears 2 ms
  policy.circuit_breaker_threshold = 20;

  tpu::EdgeTpuDevice device;
  device.load(compiled_);
  device.set_fault_injector(tpu::FaultInjector(profile));
  ResilientExecutor executor(&device, platform::CpuExecutor(platform::host_cpu_profile()),
                             policy);
  const auto outcome = executor.run(compiled_, float_model_, inputs_, options_);

  // Exponential backoff advanced simulated time past the reattach point, so
  // the device recovered and no sample needed the CPU.
  EXPECT_GE(outcome.report.device_stats.device_detaches, 1U);
  EXPECT_GT(outcome.report.device_stats.retry_backoff.to_seconds(), 0.0);
  EXPECT_EQ(outcome.report.cpu_samples, 0U);
  EXPECT_FALSE(outcome.report.circuit_opened);
  EXPECT_EQ(outcome.result.classes, clean_result.classes);
}

TEST_F(FaultInjectionTest, BackoffIsClampedAtMaxBackoff) {
  // Regression: the backoff used to grow geometrically without a ceiling,
  // so high max_attempts with a large multiplier charged absurd simulated
  // waits. With the cap, a permanently detached device costs exactly
  // initial + (attempts - 2) * max_backoff of backoff per sample.
  tpu::FaultProfile profile;
  profile.detach_at.push_back(SimDuration());  // detached at t = 0, forever
  profile.reattach_after = SimDuration();

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = SimDuration::micros(100);
  policy.backoff_multiplier = 10.0;
  policy.max_backoff = SimDuration::millis(1);
  policy.circuit_breaker_threshold = 100;  // never trips for one sample

  tensor::MatrixF one = random_inputs(1, 24, 99);
  tpu::EdgeTpuDevice device;
  device.load(compiled_);
  device.set_fault_injector(tpu::FaultInjector(profile));
  ResilientExecutor executor(&device, platform::CpuExecutor(platform::host_cpu_profile()),
                             policy);
  const auto outcome = executor.run(compiled_, float_model_, one, options_);

  // Charged sleeps: 100 us (attempt 1), then 8 x 1 ms — every later sleep
  // clamps to max_backoff instead of 1 ms, 10 ms, 100 ms, ...
  const SimDuration expected = SimDuration::micros(100) + SimDuration::millis(1) * 8.0;
  EXPECT_DOUBLE_EQ(outcome.report.device_stats.retry_backoff.to_seconds(),
                   expected.to_seconds());
  EXPECT_EQ(outcome.report.device_stats.invoke_retries, 9U);
  EXPECT_EQ(outcome.report.cpu_samples, 1U);
  EXPECT_EQ(outcome.report.tpu_samples, 0U);
}

TEST_F(FaultInjectionTest, DeadlineWatchdogAbandonsRetriesWithinBudget) {
  tpu::FaultProfile profile;
  profile.detach_at.push_back(SimDuration());  // detached at t = 0, forever

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = SimDuration::micros(100);
  policy.backoff_multiplier = 10.0;
  policy.max_backoff = SimDuration::millis(1);
  policy.circuit_breaker_threshold = 100;
  policy.sample_deadline = SimDuration::micros(500);

  tensor::MatrixF one = random_inputs(1, 24, 99);
  tpu::EdgeTpuDevice device;
  device.load(compiled_);
  device.set_fault_injector(tpu::FaultInjector(profile));
  ResilientExecutor executor(&device, platform::CpuExecutor(platform::host_cpu_profile()),
                             policy);
  const auto outcome = executor.run(compiled_, float_model_, one, options_);

  // Without the watchdog this run charges 100 us + 8 x 1 ms of backoff (see
  // BackoffIsClampedAtMaxBackoff). With a 500 us budget only the first sleep
  // fits: the second would blow the deadline, so the watchdog abandons the
  // device without charging it and the sample completes on the CPU.
  EXPECT_EQ(outcome.report.device_stats.deadline_abandons, 1U);
  EXPECT_EQ(outcome.report.expired_samples, 1U);
  EXPECT_EQ(outcome.report.cpu_samples, 1U);
  EXPECT_EQ(outcome.report.tpu_samples, 0U);
  EXPECT_LE(outcome.report.device_stats.retry_backoff.to_seconds(),
            policy.sample_deadline.to_seconds());
  EXPECT_LT(outcome.report.device_stats.invoke_retries, 9U);
  EXPECT_FALSE(outcome.report.circuit_opened);
  // The batch still finishes full-length with the fallback prediction.
  ASSERT_EQ(outcome.result.classes.size(), 1U);
}

TEST_F(FaultInjectionTest, ZeroDeadlineKeepsLegacyUnboundedRetries) {
  tpu::FaultProfile profile;
  profile.detach_at.push_back(SimDuration());

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = SimDuration::micros(100);
  policy.backoff_multiplier = 10.0;
  policy.max_backoff = SimDuration::millis(1);
  policy.circuit_breaker_threshold = 100;
  ASSERT_TRUE(policy.sample_deadline.is_zero());  // the default: no watchdog

  tensor::MatrixF one = random_inputs(1, 24, 99);
  tpu::EdgeTpuDevice device;
  device.load(compiled_);
  device.set_fault_injector(tpu::FaultInjector(profile));
  ResilientExecutor executor(&device, platform::CpuExecutor(platform::host_cpu_profile()),
                             policy);
  const auto outcome = executor.run(compiled_, float_model_, one, options_);

  // All nine retries run and charge their full clamped backoff.
  const SimDuration expected = SimDuration::micros(100) + SimDuration::millis(1) * 8.0;
  EXPECT_EQ(outcome.report.device_stats.deadline_abandons, 0U);
  EXPECT_EQ(outcome.report.expired_samples, 0U);
  EXPECT_EQ(outcome.report.device_stats.invoke_retries, 9U);
  EXPECT_DOUBLE_EQ(outcome.report.device_stats.retry_backoff.to_seconds(),
                   expected.to_seconds());
}

TEST_F(FaultInjectionTest, PermanentDetachTripsBreakerAndFinishesOnCpu) {
  auto [clean_result, clean_stats] = clean_invoke();
  const lite::InferenceResult cpu_result = cpu_reference();

  tpu::FaultProfile profile;
  profile.detach_at.push_back(clean_stats.total() * 0.5);  // gone mid-batch

  tpu::EdgeTpuDevice device;
  device.load(compiled_);
  device.set_fault_injector(tpu::FaultInjector(profile));
  ResilientExecutor executor(&device, platform::CpuExecutor(platform::host_cpu_profile()));
  const auto outcome = executor.run(compiled_, float_model_, inputs_, options_);

  EXPECT_TRUE(outcome.report.circuit_opened);
  EXPECT_GT(outcome.report.tpu_samples, 0U);
  EXPECT_GT(outcome.report.cpu_samples, 0U);
  EXPECT_EQ(outcome.report.tpu_samples + outcome.report.cpu_samples, inputs_.rows());
  EXPECT_EQ(outcome.report.device_stats.fallback_samples, outcome.report.cpu_samples);
  EXPECT_GT(outcome.report.cpu_fallback_time.to_seconds(), 0.0);

  // The batch always finishes full-length: the head ran on the device (clean
  // TPU predictions and dequantized class scores), the contiguous tail fell
  // back to the float model (the all-CPU path's predictions and scores,
  // sample for sample). Both halves merge into one k-wide score matrix.
  ASSERT_EQ(outcome.result.classes.size(), inputs_.rows());
  ASSERT_EQ(outcome.result.values.rows(), inputs_.rows());
  ASSERT_EQ(outcome.result.values.cols(), 5U);
  const auto head = static_cast<std::size_t>(outcome.report.tpu_samples);
  for (std::size_t i = 0; i < inputs_.rows(); ++i) {
    const lite::InferenceResult& want = i < head ? clean_result : cpu_result;
    EXPECT_EQ(outcome.result.classes[i], want.classes[i]) << "row " << i;
    EXPECT_TRUE(std::ranges::equal(outcome.result.values.row(i), want.values.row(i)))
        << "row " << i;
  }
}

TEST_F(FaultInjectionTest, SameSeedReplaysIdenticalRunBitForBit) {
  tpu::FaultProfile profile;
  profile.transfer_corrupt_prob = 0.2;
  profile.transfer_nak_prob = 0.2;
  profile.sram_bitflip_per_byte = 2e-5;

  const auto run_once = [&] {
    tpu::EdgeTpuDevice device;
    device.load(compiled_);
    device.set_fault_injector(tpu::FaultInjector(profile));
    ResilientExecutor executor(&device,
                               platform::CpuExecutor(platform::host_cpu_profile()));
    return executor.run(compiled_, float_model_, inputs_, options_);
  };
  const auto a = run_once();
  const auto b = run_once();

  EXPECT_EQ(a.result.classes, b.result.classes);
  EXPECT_EQ(a.result.values.storage(), b.result.values.storage());
  EXPECT_DOUBLE_EQ(a.report.total().to_seconds(), b.report.total().to_seconds());
  EXPECT_EQ(a.report.device_stats.transfer_retries, b.report.device_stats.transfer_retries);
  EXPECT_EQ(a.report.device_stats.nak_stalls, b.report.device_stats.nak_stalls);
  EXPECT_EQ(a.report.device_stats.sram_scrubs, b.report.device_stats.sram_scrubs);
  EXPECT_EQ(a.report.device_stats.invoke_retries, b.report.device_stats.invoke_retries);
  EXPECT_EQ(a.report.cpu_samples, b.report.cpu_samples);
}

// ------------------------------------------- batched fault-path oracle ----

/// The executor's request-chain appends for one device attempt, as the
/// executor makes them.
void append_attempt_spans(obs::RequestTrace& request, const tpu::ExecutionStats& stats,
                          std::uint32_t sample, std::uint32_t attempt) {
  using obs::Stage;
  if (!stats.retry_backoff.is_zero()) {
    request.append(Stage::kBackoff, stats.retry_backoff, sample, attempt);
  }
  if (!stats.pipelined_makespan.is_zero()) {
    if (!stats.weight_upload.is_zero()) {
      request.append(Stage::kTransfer, stats.weight_upload, sample, attempt);
    }
    request.append(Stage::kDevice, stats.pipelined_makespan, sample, attempt);
    return;
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

/// The reference for the executor's fault path: every device attempt is a
/// 1-row `EdgeTpuDevice::invoke`, which runs the interpreter on that row
/// alone, with the same retry, backoff, watchdog, circuit-breaker and CPU
/// fallback rules. The executor instead computes the batch's outputs once and
/// simulates each attempt through `invoke_sample`; both must agree exactly.
ResilientExecutor::Outcome per_row_reference(tpu::EdgeTpuDevice& device,
                                             const platform::CpuExecutor& cpu,
                                             const RetryPolicy& policy,
                                             const tpu::CompiledModel& compiled,
                                             const lite::LiteModel& cpu_fallback,
                                             const tensor::MatrixF& inputs,
                                             const tpu::InvokeOptions& options,
                                             obs::RequestTrace& request) {
  const tpu::HostCostModel host = cpu.profile().host_cost_model();
  const bool functional = options.mode == tpu::ExecutionMode::kFunctional;
  ResilientExecutor::Outcome outcome;
  std::vector<float> values;
  std::vector<std::int32_t> classes;
  std::size_t out_width = 0;
  bool has_classes = false;
  const auto append_rows = [&](const lite::InferenceResult& part) {
    if (functional) {
      out_width = part.values.cols();
      has_classes = part.has_classes;
      values.insert(values.end(), part.values.storage().begin(), part.values.storage().end());
      classes.insert(classes.end(), part.classes.begin(), part.classes.end());
    }
  };
  const auto run_on_cpu = [&](std::size_t begin, std::size_t count) {
    tensor::MatrixF rows(count, inputs.cols());
    std::copy_n(inputs.row(begin).data(), count * inputs.cols(), rows.data());
    auto [result, time] = cpu.run(cpu_fallback, rows, options.mode);
    append_rows(result);
    request.append(obs::Stage::kHost, time, static_cast<std::uint32_t>(begin), 0);
    outcome.report.cpu_fallback_time += time;
    outcome.report.cpu_samples += count;
    outcome.report.device_stats.fallback_samples += count;
  };

  std::uint32_t consecutive_failures = 0;
  std::size_t row = 0;
  for (; row < inputs.rows(); ++row) {
    tensor::MatrixF one(1, inputs.cols());
    std::copy_n(inputs.row(row).data(), inputs.cols(), one.data());
    bool done = false;
    SimDuration sample_spent;
    SimDuration backoff = policy.initial_backoff;
    for (std::uint32_t attempt = 0; attempt < policy.max_attempts && !done; ++attempt) {
      if (attempt > 0) {
        if (!policy.sample_deadline.is_zero() &&
            sample_spent + backoff > policy.sample_deadline) {
          outcome.report.device_stats.deadline_abandons += 1;
          outcome.report.expired_samples += 1;
          break;
        }
        outcome.report.device_stats.invoke_retries += 1;
        outcome.report.device_stats.retry_backoff += backoff;
        device.advance_clock(backoff);
        request.append(obs::Stage::kBackoff, backoff, static_cast<std::uint32_t>(row), attempt);
        sample_spent += backoff;
        backoff = std::min(backoff * policy.backoff_multiplier, policy.max_backoff);
      }
      try {
        auto [result, stats] = device.invoke(compiled, one, options, host);
        outcome.report.device_stats += stats;
        append_attempt_spans(request, stats, static_cast<std::uint32_t>(row), attempt);
        append_rows(result);
        outcome.report.tpu_samples += 1;
        consecutive_failures = 0;
        done = true;
      } catch (const tpu::DeviceFault& fault) {
        outcome.report.device_stats += fault.charged_stats();
        append_attempt_spans(request, fault.charged_stats(), static_cast<std::uint32_t>(row),
                             attempt);
        sample_spent += fault.charged_stats().total();
        if (++consecutive_failures >= policy.circuit_breaker_threshold) {
          break;
        }
      }
    }
    if (done) {
      continue;
    }
    if (consecutive_failures >= policy.circuit_breaker_threshold) {
      outcome.report.circuit_opened = true;
      break;
    }
    run_on_cpu(row, 1);
  }
  if (outcome.report.circuit_opened && row < inputs.rows()) {
    run_on_cpu(row, inputs.rows() - row);
  }
  if (functional) {
    outcome.result.values = tensor::MatrixF(inputs.rows(), out_width, std::move(values));
    outcome.result.classes = std::move(classes);
    outcome.result.has_classes = has_classes;
  }
  return outcome;
}

void expect_same_stats(const tpu::ExecutionStats& a, const tpu::ExecutionStats& b) {
  EXPECT_EQ(a.device_compute.to_seconds(), b.device_compute.to_seconds());
  EXPECT_EQ(a.host_compute.to_seconds(), b.host_compute.to_seconds());
  EXPECT_EQ(a.transfer.to_seconds(), b.transfer.to_seconds());
  EXPECT_EQ(a.weight_upload.to_seconds(), b.weight_upload.to_seconds());
  EXPECT_EQ(a.pipelined_makespan.to_seconds(), b.pipelined_makespan.to_seconds());
  EXPECT_EQ(a.retry_backoff.to_seconds(), b.retry_backoff.to_seconds());
  EXPECT_EQ(a.invocations, b.invocations);
  EXPECT_EQ(a.device_macs, b.device_macs);
  EXPECT_EQ(a.host_element_ops, b.host_element_ops);
  EXPECT_EQ(a.transfer_retries, b.transfer_retries);
  EXPECT_EQ(a.nak_stalls, b.nak_stalls);
  EXPECT_EQ(a.sram_scrubs, b.sram_scrubs);
  EXPECT_EQ(a.device_detaches, b.device_detaches);
  EXPECT_EQ(a.invoke_retries, b.invoke_retries);
  EXPECT_EQ(a.fallback_samples, b.fallback_samples);
  EXPECT_EQ(a.deadline_abandons, b.deadline_abandons);
}

struct FaultScenario {
  const char* name;
  tpu::FaultProfile profile;
  RetryPolicy policy;
  tpu::ExecutionMode mode = tpu::ExecutionMode::kFunctional;
  // Paths the scenario must reach, so the comparison covers them.
  bool retries = false;
  bool fallback = false;
  bool expiries = false;
  bool breaker = false;
};

TEST_F(FaultInjectionTest, BatchedFaultPathEqualsPerRowInvokesExactly) {
  const SimDuration clean_total = clean_invoke().second.total();

  std::vector<FaultScenario> scenarios;
  {
    // Link errors that exhaust the CRC retries (TransferCorrupt), NAK stalls
    // and SRAM flips: device retries with backoff and per-sample CPU
    // fallback, never the breaker.
    FaultScenario s{"retries_and_fallback", {}, {}};
    s.profile.transfer_corrupt_prob = 0.45;
    s.profile.max_transfer_attempts = 2;
    s.profile.transfer_nak_prob = 0.2;
    s.profile.sram_bitflip_per_byte = 2e-5;
    s.profile.seed = 11;
    s.policy.circuit_breaker_threshold = 100;
    s.retries = true;
    s.fallback = true;
    scenarios.push_back(s);
    // The same draws without computing outputs.
    s.name = "timing_only";
    s.mode = tpu::ExecutionMode::kTimingOnly;
    scenarios.push_back(s);
    // A per-sample deadline: the watchdog abandons some retry sequences.
    s.name = "deadline_watchdog";
    s.mode = tpu::ExecutionMode::kFunctional;
    s.policy.sample_deadline = SimDuration::micros(300);
    s.expiries = true;
    scenarios.push_back(s);
  }
  {
    // A detach that outlives the retries: the breaker opens and the tail
    // finishes on the CPU in one batch.
    FaultScenario s{"circuit_open", {}, {}};
    s.profile.detach_at.push_back(clean_total * 0.4);
    s.profile.transfer_nak_prob = 0.1;
    s.profile.seed = 12;
    s.fallback = true;
    s.breaker = true;
    scenarios.push_back(s);
    // A detach the backoff outlasts: the device comes back mid-batch.
    s.name = "reattach";
    s.profile.reattach_after = SimDuration::micros(500);
    s.policy.circuit_breaker_threshold = 20;
    s.retries = true;
    s.fallback = false;
    s.breaker = false;
    scenarios.push_back(s);
  }

  const platform::CpuExecutor cpu(platform::host_cpu_profile());
  for (const FaultScenario& s : scenarios) {
    SCOPED_TRACE(s.name);
    tpu::InvokeOptions options = options_;
    options.mode = s.mode;

    tpu::EdgeTpuDevice ref_device;
    ref_device.load(compiled_);
    ref_device.set_fault_injector(tpu::FaultInjector(s.profile));
    obs::RequestTrace ref_request;
    ref_request.begin(1, SimDuration());
    const auto ref = per_row_reference(ref_device, cpu, s.policy, compiled_, float_model_,
                                       inputs_, options, ref_request);
    ref_request.finalize(ref_request.cursor);

    tpu::EdgeTpuDevice device;
    device.load(compiled_);
    device.set_fault_injector(tpu::FaultInjector(s.profile));
    ResilientExecutor executor(&device, cpu, s.policy);
    obs::RequestTrace request;
    request.begin(1, SimDuration());
    const auto got = executor.run(compiled_, float_model_, inputs_, options, &request);
    request.finalize(request.cursor);

    EXPECT_GT(got.report.tpu_samples, 0U);
    EXPECT_TRUE(!s.retries || got.report.device_stats.invoke_retries > 0);
    EXPECT_TRUE(!s.fallback || got.report.cpu_samples > 0);
    EXPECT_TRUE(!s.expiries || got.report.expired_samples > 0);
    EXPECT_TRUE(!s.breaker || got.report.circuit_opened);

    EXPECT_EQ(got.result.classes, ref.result.classes);
    EXPECT_EQ(got.result.values.storage(), ref.result.values.storage());
    EXPECT_EQ(got.result.has_classes, ref.result.has_classes);
    expect_same_stats(got.report.device_stats, ref.report.device_stats);
    EXPECT_EQ(got.report.cpu_fallback_time.to_seconds(),
              ref.report.cpu_fallback_time.to_seconds());
    EXPECT_EQ(got.report.tpu_samples, ref.report.tpu_samples);
    EXPECT_EQ(got.report.cpu_samples, ref.report.cpu_samples);
    EXPECT_EQ(got.report.expired_samples, ref.report.expired_samples);
    EXPECT_EQ(got.report.circuit_opened, ref.report.circuit_opened);
    EXPECT_EQ(device.clock().to_seconds(), ref_device.clock().to_seconds());

    ASSERT_EQ(request.spans.size(), ref_request.spans.size());
    for (std::size_t i = 0; i < request.spans.size(); ++i) {
      const obs::StageSpan& a = request.spans[i];
      const obs::StageSpan& b = ref_request.spans[i];
      EXPECT_EQ(a.stage, b.stage) << "span " << i;
      EXPECT_EQ(a.start.to_seconds(), b.start.to_seconds()) << "span " << i;
      EXPECT_EQ(a.duration.to_seconds(), b.duration.to_seconds()) << "span " << i;
      EXPECT_EQ(a.sample, b.sample) << "span " << i;
      EXPECT_EQ(a.attempt, b.attempt) << "span " << i;
    }
    for (std::size_t st = 0; st < obs::kNumStages; ++st) {
      EXPECT_EQ(request.attribution.stages[st].to_seconds(),
                ref_request.attribution.stages[st].to_seconds())
          << obs::stage_name(static_cast<obs::Stage>(st));
    }
  }
}

TEST_F(FaultInjectionTest, RetryPolicyValidation) {
  RetryPolicy p;
  p.max_attempts = 0;
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.initial_backoff = SimDuration::micros(-1);
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.backoff_multiplier = 0.5;
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.circuit_breaker_threshold = 0;
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.max_backoff = SimDuration::micros(1);  // below the initial backoff
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.sample_deadline = SimDuration::micros(-1);
  EXPECT_THROW(p.validate(), Error);
  EXPECT_NO_THROW(RetryPolicy{}.validate());
}

// ------------------------------------------------- framework end-to-end ----

/// Reduced-scale PAMAP2-like task trained once; the resilient inference path
/// must keep every accuracy/prediction guarantee of the clean paths.
class ResilientFrameworkTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticSpec spec = data::paper_dataset("PAMAP2");
    data::Dataset all = data::generate_synthetic(spec, 400);
    auto split = data::split_dataset(all, 0.25, 21);
    data::MinMaxNormalizer norm;
    norm.fit(split.train);
    norm.apply(split.train);
    norm.apply(split.test);
    train_ = new data::Dataset(std::move(split.train));
    test_ = new data::Dataset(std::move(split.test));

    core::HdConfig cfg;
    cfg.dim = 512;
    cfg.epochs = 5;
    cfg.seed = 33;
    const CoDesignFramework framework;
    classifier_ = new core::TrainedClassifier(framework.train_cpu(*train_, cfg).classifier);
    clean_tpu_ = new CoDesignFramework::InferOutcome(
        framework.infer_tpu(*classifier_, *test_, *train_));
    clean_cpu_ = new CoDesignFramework::InferOutcome(
        framework.infer_cpu(*classifier_, *test_));
  }

  static void TearDownTestSuite() {
    delete train_;
    delete test_;
    delete classifier_;
    delete clean_tpu_;
    delete clean_cpu_;
    train_ = nullptr;
    test_ = nullptr;
    classifier_ = nullptr;
    clean_tpu_ = nullptr;
    clean_cpu_ = nullptr;
  }

  static data::Dataset* train_;
  static data::Dataset* test_;
  static core::TrainedClassifier* classifier_;
  static CoDesignFramework::InferOutcome* clean_tpu_;
  static CoDesignFramework::InferOutcome* clean_cpu_;
  CoDesignFramework framework_;
};

data::Dataset* ResilientFrameworkTest::train_ = nullptr;
data::Dataset* ResilientFrameworkTest::test_ = nullptr;
core::TrainedClassifier* ResilientFrameworkTest::classifier_ = nullptr;
CoDesignFramework::InferOutcome* ResilientFrameworkTest::clean_tpu_ = nullptr;
CoDesignFramework::InferOutcome* ResilientFrameworkTest::clean_cpu_ = nullptr;

TEST_F(ResilientFrameworkTest, FaultFreeInferTpuMatchesCostModel) {
  // Fault-free, every sample runs on the device and costs what the analytic
  // cost model prices: for a model larger than the parameter SRAM that
  // includes the weights streamed on every invoke.
  const auto expect_priced_like_cost_model = [&](const core::TrainedClassifier& classifier,
                                                 const data::Dataset& test,
                                                 const data::Dataset& representative) {
    ResilienceReport report;
    const auto outcome = framework_.infer_tpu(classifier, test, representative, {}, {}, &report);
    WorkloadShape shape;
    shape.train_samples = representative.num_samples();
    shape.test_samples = test.num_samples();
    shape.features = classifier.num_features();
    shape.classes = classifier.num_classes();
    shape.dim = classifier.dim();
    const double expected = framework_.cost_model().infer_tpu(shape).per_sample.to_seconds();
    EXPECT_NEAR(outcome.timings.per_sample.to_seconds(), expected, 1e-12 * expected)
        << "d = " << shape.dim;
    EXPECT_EQ(report.tpu_samples, test.num_samples());
    EXPECT_EQ(report.cpu_samples, 0U);
    EXPECT_FALSE(report.circuit_opened);
  };

  expect_priced_like_cost_model(*classifier_, *test_, *train_);

  // MNIST-shaped input at d = 11,000: about 8.7 MB of int8 weights, over the
  // 8 MiB SRAM.
  constexpr std::uint32_t kFeatures = 784;
  constexpr std::uint32_t kDim = 11000;
  constexpr std::uint32_t kClasses = 10;
  Rng rng(5);
  tensor::MatrixF class_hypervectors(kClasses, kDim);
  rng.fill_gaussian(class_hypervectors.data(), class_hypervectors.size());
  const core::TrainedClassifier oversize{core::Encoder(kFeatures, kDim, 9),
                                         core::HdModel(std::move(class_hypervectors))};
  data::Dataset images;
  images.num_classes = kClasses;
  images.features = tensor::MatrixF(8, kFeatures);
  for (std::size_t i = 0; i < images.features.size(); ++i) {
    images.features.data()[i] = rng.uniform(0.0F, 1.0F);
  }
  for (std::uint32_t i = 0; i < images.num_samples(); ++i) {
    images.labels.push_back(i % kClasses);
  }
  expect_priced_like_cost_model(oversize, images, images);
}

TEST_F(ResilientFrameworkTest, DetachMidBatchFallsBackToCpuTail) {
  tpu::FaultProfile profile;
  profile.detach_at.push_back(clean_tpu_->timings.total * 0.5);

  ResilienceReport report;
  const auto outcome = framework_.infer_tpu(*classifier_, *test_, *train_,
                                           profile, {}, &report);

  EXPECT_TRUE(report.circuit_opened);
  EXPECT_GE(report.device_stats.device_detaches, 1U);
  EXPECT_GT(report.tpu_samples, 0U);
  EXPECT_GT(report.cpu_samples, 0U);
  EXPECT_EQ(report.tpu_samples + report.cpu_samples, test_->num_samples());

  // Every sample got a prediction; the fallback tail is exactly what the
  // all-CPU path predicts for those samples.
  ASSERT_EQ(outcome.predictions.size(), test_->num_samples());
  const auto head = static_cast<std::size_t>(report.tpu_samples);
  for (std::size_t i = 0; i < outcome.predictions.size(); ++i) {
    if (i < head) {
      EXPECT_EQ(outcome.predictions[i], clean_tpu_->predictions[i]) << "TPU row " << i;
    } else {
      EXPECT_EQ(outcome.predictions[i], clean_cpu_->predictions[i]) << "fallback row " << i;
    }
  }
}

TEST_F(ResilientFrameworkTest, FaultsCostTimeNotCorrectness) {
  tpu::FaultProfile profile;
  profile.transfer_corrupt_prob = 0.1;
  profile.transfer_nak_prob = 0.1;
  profile.sram_bitflip_per_byte = 1e-6;

  ResilienceReport report;
  const auto outcome = framework_.infer_tpu(*classifier_, *test_, *train_,
                                           profile, {}, &report);

  // Always-completes property: full-length predictions, and each one equals
  // what one of the two clean paths (int8 TPU or float CPU) predicts.
  ASSERT_EQ(outcome.predictions.size(), test_->num_samples());
  for (std::size_t i = 0; i < outcome.predictions.size(); ++i) {
    EXPECT_TRUE(outcome.predictions[i] == clean_tpu_->predictions[i] ||
                outcome.predictions[i] == clean_cpu_->predictions[i])
        << "row " << i << " predicted " << outcome.predictions[i]
        << ", expected the TPU (" << clean_tpu_->predictions[i] << ") or CPU ("
        << clean_cpu_->predictions[i] << ") prediction";
  }
  // Recovery converts faults into simulated time, never silent corruption.
  EXPECT_GT(report.device_stats.transfer_retries + report.device_stats.nak_stalls, 0U);
  EXPECT_GT(outcome.timings.total.to_seconds(), clean_tpu_->timings.total.to_seconds());
}

TEST_F(ResilientFrameworkTest, SameProfileSameSeedIsDeterministic) {
  tpu::FaultProfile profile;
  profile.transfer_corrupt_prob = 0.1;
  profile.transfer_nak_prob = 0.05;
  profile.sram_bitflip_per_byte = 1e-6;

  ResilienceReport ra;
  ResilienceReport rb;
  const auto a =
      framework_.infer_tpu(*classifier_, *test_, *train_, profile, {}, &ra);
  const auto b =
      framework_.infer_tpu(*classifier_, *test_, *train_, profile, {}, &rb);

  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_DOUBLE_EQ(a.timings.total.to_seconds(), b.timings.total.to_seconds());
  EXPECT_EQ(ra.device_stats.transfer_retries, rb.device_stats.transfer_retries);
  EXPECT_EQ(ra.device_stats.nak_stalls, rb.device_stats.nak_stalls);
  EXPECT_EQ(ra.device_stats.sram_scrubs, rb.device_stats.sram_scrubs);
  EXPECT_EQ(ra.device_stats.invoke_retries, rb.device_stats.invoke_retries);
  EXPECT_EQ(ra.cpu_samples, rb.cpu_samples);
  EXPECT_DOUBLE_EQ(ra.total().to_seconds(), rb.total().to_seconds());
}

}  // namespace
}  // namespace hdc::runtime

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "lite/builder.hpp"
#include "lite/quantize.hpp"
#include "platform/cpu_executor.hpp"
#include "platform/profiles.hpp"
#include "runtime/cost.hpp"

namespace hdc::platform {
namespace {

TEST(ProfileTest, PresetsValid) {
  EXPECT_NO_THROW(host_cpu_profile().validate());
  EXPECT_NO_THROW(raspberry_pi3_profile().validate());
}

TEST(ProfileTest, RaspberryPiSlowerThanHost) {
  const auto host = host_cpu_profile();
  const auto pi = raspberry_pi3_profile();
  EXPECT_LT(pi.mac_rate, host.mac_rate);
  EXPECT_LT(pi.element_rate, host.element_rate);
  EXPECT_LT(pi.power_watts, host.power_watts);
}

TEST(ProfileTest, HostCostModelMirrorsRates) {
  const auto host = host_cpu_profile();
  const auto model = host.host_cost_model();
  EXPECT_DOUBLE_EQ(model.mac_rate, host.mac_rate);
  EXPECT_DOUBLE_EQ(model.element_rate, host.element_rate);
}

TEST(ProfileTest, InvalidProfileRejected) {
  PlatformProfile p;
  p.name = "bad";
  p.mac_rate = 0.0;
  EXPECT_THROW(p.validate(), hdc::Error);
}

TEST(CpuExecutorTest, PerSampleTimeMatchesHandComputation) {
  // FC(10 -> 100) + TANH on a 2 GMAC/s, 1 Gop/s profile:
  // 1000 MACs / 2e9 + 100 elements / 1e9 = 0.6 us.
  const auto model =
      lite::LiteModelBuilder("m", 10).dense(tensor::MatrixF(10, 100, 0.01F)).tanh().finish();
  const CpuExecutor executor(host_cpu_profile());
  EXPECT_NEAR(executor.per_sample_time(model).to_micros(), 0.6, 1e-9);
}

TEST(CpuExecutorTest, TimeScalesWithBatch) {
  const auto model = lite::LiteModelBuilder("m", 8).dense(tensor::MatrixF(8, 32, 0.1F)).finish();
  const CpuExecutor executor(host_cpu_profile());
  const auto [r10, t10] = executor.run(model, tensor::MatrixF(10, 8, 0.5F),
                                       tpu::ExecutionMode::kTimingOnly);
  const auto [r20, t20] = executor.run(model, tensor::MatrixF(20, 8, 0.5F),
                                       tpu::ExecutionMode::kTimingOnly);
  EXPECT_NEAR(t20.to_seconds(), 2.0 * t10.to_seconds(), 1e-15);
}

TEST(CpuExecutorTest, SlowerProfileTakesLonger) {
  const auto model = runtime::make_int8_chain_model("m", 32, 256, 4);
  const CpuExecutor host(host_cpu_profile());
  const CpuExecutor pi(raspberry_pi3_profile());
  EXPECT_GT(pi.per_sample_time(model).to_seconds(),
            host.per_sample_time(model).to_seconds());
}

TEST(CpuExecutorTest, FunctionalRunProducesOutputs) {
  tensor::MatrixF w(4, 8);
  Rng rng(9);
  rng.fill_gaussian(w.data(), w.size());
  const auto model = lite::LiteModelBuilder("m", 4).dense(w).tanh().finish();
  const CpuExecutor executor(host_cpu_profile());
  tensor::MatrixF inputs(5, 4, 0.3F);
  const auto [result, time] = executor.run(model, inputs, tpu::ExecutionMode::kFunctional);
  EXPECT_EQ(result.values.rows(), 5U);
  EXPECT_EQ(result.values.cols(), 8U);
  EXPECT_GT(time.to_seconds(), 0.0);
}

TEST(CpuExecutorTest, ArgMaxPricedOverInputWidth) {
  // ARG_MAX over k logits costs k element ops, not 1.
  const auto with_cls = runtime::make_int8_chain_model("c", 16, 64, 40);
  const auto without = runtime::make_int8_chain_model("e", 16, 64);
  const CpuExecutor executor(host_cpu_profile());
  const double delta = executor.per_sample_time(with_cls).to_seconds() -
                       executor.per_sample_time(without).to_seconds();
  // FC(64 x 40) + ARG_MAX(40): 2560 MACs / 2e9 + 40 ops / 1e9 = 1.32 us.
  EXPECT_NEAR(delta * 1e6, 1.32, 0.01);
}

}  // namespace
}  // namespace hdc::platform

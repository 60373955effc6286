#include <gtest/gtest.h>

#include "common/error.hpp"
#include "platform/profiles.hpp"
#include "runtime/cost.hpp"

namespace hdc::runtime {
namespace {

WorkloadShape mnist_shape() {
  WorkloadShape s;
  s.name = "MNIST";
  s.train_samples = 60000;
  s.test_samples = 10000;
  s.features = 784;
  s.classes = 10;
  s.dim = 10000;
  s.epochs = 20;
  return s;
}

WorkloadShape pamap_shape() {
  WorkloadShape s;
  s.name = "PAMAP2";
  s.train_samples = 32768;
  s.test_samples = 8192;
  s.features = 27;
  s.classes = 5;
  s.dim = 10000;
  s.epochs = 20;
  return s;
}

BaggingShape paper_bagging() {
  BaggingShape b;
  b.num_models = 4;
  b.sub_dim = 2500;
  b.epochs = 6;
  b.alpha = 0.6;
  b.beta = 1.0;
  return b;
}

class CostTest : public ::testing::Test {
 protected:
  CostModel cost_{platform::host_cpu_profile()};
  platform::PlatformProfile host_ = platform::host_cpu_profile();
  platform::PlatformProfile pi_ = platform::raspberry_pi3_profile();
};

TEST_F(CostTest, ShapeValidation) {
  WorkloadShape s = mnist_shape();
  s.features = 0;
  EXPECT_THROW(s.validate(), hdc::Error);
  BaggingShape b = paper_bagging();
  b.alpha = 0.0;
  EXPECT_THROW(b.validate(), hdc::Error);
}

TEST_F(CostTest, ChainModelBuilderShapes) {
  const auto encode = make_int8_chain_model("e", 100, 2000);
  EXPECT_EQ(encode.ops.size(), 3U);  // QUANT, FC, TANH
  EXPECT_EQ(encode.weight_bytes(), 100U * 2000U);
  const auto full = make_int8_chain_model("f", 100, 2000, 7);
  EXPECT_EQ(full.ops.size(), 5U);  // + FC, ARG_MAX
  EXPECT_EQ(full.weight_bytes(), 100U * 2000U + 2000U * 7U);
  EXPECT_NO_THROW(full.validate());
}

// ---- the paper's headline runtime shapes ----

TEST_F(CostTest, TpuEncodeFasterThanCpuForWideInputs) {
  // MNIST (784 features): the accelerated encode must win big (paper: 9.37x).
  const auto cpu = cost_.encode_cpu(10000, 784, 10000, host_);
  const auto tpu = cost_.encode_tpu(10000, 784, 10000);
  const double speedup = cpu / tpu;
  EXPECT_GT(speedup, 4.0);
  EXPECT_LT(speedup, 16.0);
}

TEST_F(CostTest, TpuEncodeDoesNotHelpNarrowInputs) {
  // PAMAP2 (27 features): overheads dominate (the paper's counterexample).
  const auto cpu = cost_.encode_cpu(10000, 27, 10000, host_);
  const auto tpu = cost_.encode_tpu(10000, 27, 10000);
  EXPECT_LT(cpu / tpu, 1.5);
}

TEST_F(CostTest, EncodeSpeedupGrowsWithFeatureCount) {
  // Fig. 10: monotone increasing speedup over the 20..700 sweep.
  double previous = 0.0;
  for (const std::uint32_t n : {20U, 100U, 200U, 400U, 700U}) {
    const double speedup =
        cost_.encode_cpu(1000, n, 10000, host_) / cost_.encode_tpu(1000, n, 10000);
    EXPECT_GT(speedup, previous);
    previous = speedup;
  }
}

TEST_F(CostTest, Fig10AnchorPoints) {
  // Paper: ~1.06x at 20 features, ~8.25x at 700 (we require the same regime).
  const double s20 =
      cost_.encode_cpu(1000, 20, 10000, host_) / cost_.encode_tpu(1000, 20, 10000);
  const double s700 =
      cost_.encode_cpu(1000, 700, 10000, host_) / cost_.encode_tpu(1000, 700, 10000);
  EXPECT_GT(s20, 0.6);
  EXPECT_LT(s20, 1.8);
  EXPECT_GT(s700, 5.5);
  EXPECT_LT(s700, 12.0);
}

TEST_F(CostTest, TrainTpuBeatsCpuOnMnist) {
  const auto shape = mnist_shape();
  const auto cpu = cost_.train_cpu(shape, host_);
  const auto tpu = cost_.train_tpu(shape);
  EXPECT_GT(cpu.total() / tpu.total(), 1.5);
  // Encoding is where the win comes from; update is unchanged.
  EXPECT_GT(cpu.encode / tpu.encode, 4.0);
  EXPECT_NEAR(cpu.update / tpu.update, 1.0, 1e-9);
}

TEST_F(CostTest, BaggingAcceleratesUpdatePhase) {
  // Paper: up to ~4.7x faster class-hypervector update from M=4, d'=d/4,
  // I'=6/20, alpha=0.6.
  const auto shape = mnist_shape();
  const auto base = cost_.train_cpu(shape, host_);
  const auto bagged = cost_.train_tpu_bagging(shape, paper_bagging());
  const double update_speedup = base.update / bagged.update;
  EXPECT_GT(update_speedup, 3.0);
  EXPECT_LT(update_speedup, 8.0);
}

TEST_F(CostTest, OverallTrainingSpeedupInPaperRegime) {
  // Paper Fig. 5: 4.49x on MNIST for TPU_B vs CPU.
  const auto shape = mnist_shape();
  const double speedup = cost_.train_cpu(shape, host_).total() /
                         cost_.train_tpu_bagging(shape, paper_bagging()).total();
  EXPECT_GT(speedup, 2.5);
  EXPECT_LT(speedup, 9.0);
}

TEST_F(CostTest, PamapIsTheWorstCaseDataset) {
  // The counterexample dataset: its encode phase gains nothing from the
  // accelerator (only bagging's update reduction helps), so its overall
  // speedup must trail MNIST's clearly.
  const auto pamap = pamap_shape();
  const auto mnist = mnist_shape();
  const double pamap_encode_gain =
      cost_.train_cpu(pamap, host_).encode / cost_.train_tpu(pamap).encode;
  EXPECT_LT(pamap_encode_gain, 1.5);

  const double pamap_speedup = cost_.train_cpu(pamap, host_).total() /
                               cost_.train_tpu_bagging(pamap, paper_bagging()).total();
  const double mnist_speedup = cost_.train_cpu(mnist, host_).total() /
                               cost_.train_tpu_bagging(mnist, paper_bagging()).total();
  EXPECT_LT(pamap_speedup, mnist_speedup);
}

TEST_F(CostTest, InferenceTpuBeatsCpuOnMnist) {
  const auto shape = mnist_shape();
  const double speedup =
      cost_.infer_cpu(shape, host_).per_sample / cost_.infer_tpu(shape).per_sample;
  // Paper Fig. 6: 4.19x.
  EXPECT_GT(speedup, 2.5);
  EXPECT_LT(speedup, 8.0);
}

TEST_F(CostTest, InferenceTpuLosesOnPamap) {
  const auto shape = pamap_shape();
  const double speedup =
      cost_.infer_cpu(shape, host_).per_sample / cost_.infer_tpu(shape).per_sample;
  EXPECT_LT(speedup, 1.0);
}

TEST_F(CostTest, StackedInferenceMatchesUnbaggedCost) {
  // Section III-B: the stacked model has the same dimensions as the
  // no-bagging model, so inference is overhead-free.
  const auto shape = mnist_shape();
  const auto plain = cost_.infer_tpu(shape);
  const auto stacked = cost_.infer_tpu_stacked(shape, paper_bagging());
  EXPECT_NEAR(stacked.per_sample / plain.per_sample, 1.0, 1e-9);
}

TEST_F(CostTest, SerialSubModelInferenceIsMuchWorse) {
  const auto shape = mnist_shape();
  const auto stacked = cost_.infer_tpu_stacked(shape, paper_bagging());
  const auto serial = cost_.infer_tpu_serial(shape, paper_bagging());
  EXPECT_GT(serial.per_sample / stacked.per_sample, 3.0);
}

TEST_F(CostTest, RaspberryPiSpeedupsInPaperRange) {
  // Table II: training 15.6x-23.6x, inference 6.8x-11.4x across datasets.
  const auto shape = mnist_shape();
  const double train_speedup = cost_.train_cpu(shape, pi_).total() /
                               cost_.train_tpu_bagging(shape, paper_bagging()).total();
  const double infer_speedup =
      cost_.infer_cpu(shape, pi_).per_sample / cost_.infer_tpu(shape).per_sample;
  EXPECT_GT(train_speedup, 10.0);
  EXPECT_LT(train_speedup, 60.0);
  EXPECT_GT(infer_speedup, 5.0);
  EXPECT_LT(infer_speedup, 40.0);
}

TEST_F(CostTest, UpdatePhaseLinearInEpochs) {
  const auto t6 = cost_.update_phase(1000, 2500, 10, 6, 0.25, host_);
  const auto t3 = cost_.update_phase(1000, 2500, 10, 3, 0.25, host_);
  EXPECT_NEAR(t6.to_seconds(), 2.0 * t3.to_seconds(), 1e-12);
}

TEST_F(CostTest, UpdatePhaseGrowsWithUpdateFraction) {
  const auto lazy = cost_.update_phase(1000, 2500, 10, 5, 0.05, host_);
  const auto busy = cost_.update_phase(1000, 2500, 10, 5, 0.95, host_);
  EXPECT_GT(busy.to_seconds(), lazy.to_seconds());
}

TEST_F(CostTest, AlphaScalesEncodeAndUpdate) {
  const auto shape = mnist_shape();
  BaggingShape full = paper_bagging();
  full.alpha = 1.0;
  BaggingShape sampled = paper_bagging();
  sampled.alpha = 0.5;
  const auto t_full = cost_.train_tpu_bagging(shape, full);
  const auto t_half = cost_.train_tpu_bagging(shape, sampled);
  EXPECT_LT(t_half.encode.to_seconds(), t_full.encode.to_seconds());
  EXPECT_LT(t_half.update.to_seconds(), t_full.update.to_seconds());
  EXPECT_NEAR(t_half.update / t_full.update, 0.5, 0.05);
}

TEST_F(CostTest, BetaDoesNotChangeRuntime) {
  // Fig. 8's negative result: feature sampling does not buy runtime (the
  // accelerator computes dense tiles; masked features are zeros).
  const auto shape = mnist_shape();
  BaggingShape dense = paper_bagging();
  BaggingShape sparse = paper_bagging();
  sparse.beta = 0.6;
  EXPECT_NEAR(cost_.train_tpu_bagging(shape, dense).total().to_seconds(),
              cost_.train_tpu_bagging(shape, sparse).total().to_seconds(), 1e-12);
}

TEST_F(CostTest, ModelGenIsOneTimeAndModest) {
  const auto shape = mnist_shape();
  const auto t = cost_.train_tpu(shape);
  EXPECT_GT(t.model_gen.to_seconds(), 0.0);
  EXPECT_LT(t.model_gen.to_seconds(), 0.2 * t.total().to_seconds());
}

TEST_F(CostTest, TimingsAccumulate) {
  TrainTimings a;
  a.encode = SimDuration::seconds(1);
  TrainTimings b;
  b.update = SimDuration::seconds(2);
  b.model_gen = SimDuration::seconds(0.5);
  a += b;
  EXPECT_DOUBLE_EQ(a.total().to_seconds(), 3.5);
}

}  // namespace
}  // namespace hdc::runtime

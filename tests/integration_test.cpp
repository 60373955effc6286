// End-to-end integration: each test walks a complete user journey across
// module boundaries, asserting the invariants a downstream adopter relies
// on (accuracy preserved through every lowering step, artifacts round-trip,
// timing consistent between the functional framework and the analytic cost
// model).

#include <gtest/gtest.h>

#include <filesystem>

#include <algorithm>

#include "core/serialize.hpp"
#include "data/synthetic.hpp"
#include "lite/builder.hpp"
#include "lite/quantize.hpp"
#include "lite/serialize.hpp"
#include "platform/energy.hpp"
#include "runtime/autotune.hpp"
#include "runtime/framework.hpp"
#include "tpu/device.hpp"

namespace hdc {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::Dataset all = data::generate_synthetic(data::paper_dataset("UCIHAR"), 1000);
    auto split = data::split_dataset(all, 0.25, 77);
    data::MinMaxNormalizer norm;
    norm.fit(split.train);
    norm.apply(split.train);
    norm.apply(split.test);
    split_ = new data::TrainTestSplit(std::move(split));
  }
  static void TearDownTestSuite() {
    delete split_;
    split_ = nullptr;
  }

  static core::HdConfig config() {
    core::HdConfig cfg;
    cfg.dim = 2048;
    cfg.epochs = 10;
    return cfg;
  }

  static data::TrainTestSplit* split_;
};

data::TrainTestSplit* IntegrationTest::split_ = nullptr;

TEST_F(IntegrationTest, TrainPersistReloadDeployPreservesPredictions) {
  const runtime::CoDesignFramework framework;
  const auto trained = framework.train_cpu(split_->train, config());

  // Persist + reload the classifier.
  const auto path =
      (std::filesystem::temp_directory_path() / "integration.hdcm").string();
  core::save_classifier(trained.classifier, path);
  const core::TrainedClassifier reloaded = core::load_classifier(path);
  std::filesystem::remove(path);

  // Deploy the reloaded classifier to the simulated TPU; predictions of the
  // original and the reloaded+deployed model must agree almost everywhere
  // (int8 quantization may flip a few boundary samples).
  const auto original = framework.infer_cpu(trained.classifier, split_->test);
  const auto deployed = framework.infer_tpu(reloaded, split_->test, split_->train);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < original.predictions.size(); ++i) {
    agree += original.predictions[i] == deployed.predictions[i] ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(agree) / original.predictions.size(), 0.95);
}

TEST_F(IntegrationTest, LoweringChainPreservesAccuracyAtEveryStage) {
  const runtime::CoDesignFramework framework;
  const auto trained = framework.train_cpu(split_->train, config());

  // Stage 1: direct associative search (cosine).
  const auto direct = trained.classifier.model.predict_batch(
      trained.classifier.encoder.encode_batch(split_->test.features),
      core::Similarity::kCosine);
  const double acc_direct = data::accuracy(direct, split_->test.labels);

  // Stage 2: the wide NN as a float HDLite model; class normalization makes
  // it rank exactly like the cosine search.
  const auto float_model = lite::build_inference_model(trained.classifier);
  const auto float_result = lite::LiteInterpreter(float_model).run(split_->test.features);
  std::vector<std::uint32_t> float_predictions(float_result.classes.begin(),
                                               float_result.classes.end());
  EXPECT_DOUBLE_EQ(data::accuracy(float_predictions, split_->test.labels), acc_direct);

  // Stage 3: int8 + serialized + reloaded. The reloaded model predicts
  // exactly what the in-memory quantized model does.
  tensor::MatrixF calib(128, split_->train.num_features());
  std::copy_n(split_->train.features.data(), calib.size(), calib.data());
  const auto quantized = lite::quantize_model(float_model, calib);
  const auto reloaded = lite::deserialize_model(lite::serialize_model(quantized));
  const auto int8_result = lite::LiteInterpreter(reloaded).run(split_->test.features);
  const auto in_memory = lite::LiteInterpreter(quantized).run(split_->test.features);
  ASSERT_EQ(int8_result.classes.size(), in_memory.classes.size());
  for (std::size_t i = 0; i < in_memory.classes.size(); ++i) {
    EXPECT_EQ(int8_result.classes[i], in_memory.classes[i]) << "sample " << i;
  }
  std::vector<std::uint32_t> int8_predictions(int8_result.classes.begin(),
                                              int8_result.classes.end());
  const double acc_int8 = data::accuracy(int8_predictions, split_->test.labels);
  EXPECT_GT(acc_int8, acc_direct - 0.03);
}

TEST_F(IntegrationTest, FunctionalAndAnalyticTimingsAgree) {
  // The functional framework's simulated encode time at reduced scale must
  // match the analytic CostModel pricing of the identical workload.
  const runtime::CoDesignFramework framework;
  const auto trained = framework.train_tpu(split_->train, config());

  const auto& cost = framework.cost_model();
  const SimDuration analytic = cost.encode_tpu(
      split_->train.num_samples(),
      static_cast<std::uint32_t>(split_->train.num_features()), config().dim);
  // The functional path adds the encode-model compile to model_gen, not to
  // encode, so encode itself must match to within rounding.
  EXPECT_NEAR(trained.timings.encode.to_seconds(), analytic.to_seconds(),
              analytic.to_seconds() * 1e-6);
}

TEST_F(IntegrationTest, BaggedDeploymentEndToEnd) {
  const runtime::CoDesignFramework framework;
  core::BaggingConfig bagging;
  bagging.num_models = 4;
  bagging.epochs = 6;
  bagging.base = config();
  bagging.bootstrap.dataset_ratio = 0.6;

  const auto trained = framework.train_tpu_bagging(split_->train, bagging);
  EXPECT_EQ(trained.classifier.dim(), config().dim);

  const auto deployed =
      framework.infer_tpu(trained.classifier, split_->test, split_->train);
  EXPECT_GT(deployed.accuracy, 0.85);
  // Stacked deployment compiles to the same op count as an unbagged model.
  EXPECT_EQ(deployed.compile_report.device_ops, 3U);
  EXPECT_EQ(deployed.compile_report.host_ops, 2U);
}

TEST_F(IntegrationTest, AutotunerFindsPaperLikeOperatingPoint) {
  const runtime::CoDesignFramework framework;
  runtime::WorkloadShape shape;
  shape.name = "UCIHAR";
  shape.train_samples = 6134;
  shape.test_samples = 1533;
  shape.features = 561;
  shape.classes = 12;
  shape.dim = 10000;
  shape.epochs = 20;

  const runtime::BaggingAutotuner tuner(framework, shape);
  runtime::AutotuneSpace space;
  space.num_models = {4};
  space.epochs = {4, 6};
  space.alphas = {0.6, 1.0};

  const auto result = tuner.search(split_->train, split_->test, space, config(), 0.03);
  // Within a 3-point margin, a reduced-cost configuration must win over the
  // full (alpha=1) run.
  EXPECT_LT(result.best.config.bootstrap.dataset_ratio, 1.0);
  EXPECT_GT(result.best.accuracy, 0.85);
}

TEST_F(IntegrationTest, EnergyAccountingCoversAllPhases) {
  const runtime::CoDesignFramework framework;
  const auto trained = framework.train_tpu(split_->train, config());
  platform::EnergyModel energy;
  const auto report = energy.codesign_training(trained.timings);
  EXPECT_GT(report.joules, 0.0);
  EXPECT_DOUBLE_EQ(report.time.to_seconds(), trained.timings.total().to_seconds());
  // Average power must sit between the idle-host+TPU floor and the full
  // host-active ceiling.
  EXPECT_GT(report.average_watts(),
            energy.tpu_active_watts + 0.0);
  EXPECT_LT(report.average_watts(), energy.host.power_watts + energy.tpu_active_watts);
}

TEST_F(IntegrationTest, DeviceTraceMatchesDeployedModel) {
  const runtime::CoDesignFramework framework;
  const auto trained = framework.train_cpu(split_->train, config());

  tensor::MatrixF calib(64, split_->train.num_features());
  std::copy_n(split_->train.features.data(), calib.size(), calib.data());
  const auto quantized = lite::quantize_model(
      lite::build_inference_model(trained.classifier), calib);

  const tpu::EdgeTpuCompiler compiler(tpu::SystolicConfig{}, 8ULL << 20);
  const auto compiled = compiler.compile(quantized);
  tpu::EdgeTpuDevice device;
  tpu::InvokeOptions options;
  options.mode = tpu::ExecutionMode::kTimingOnly;
  const auto cost = device.per_sample_cost(compiled, options, tpu::HostCostModel{2e9, 1e9});

  // The device runs the 561 -> 2048 encode, its tanh and the 2048 -> 12
  // classify; one sample moves its features in and its class scores out.
  const std::uint64_t features = split_->train.num_features();
  const std::uint64_t classes = split_->train.num_classes;
  EXPECT_EQ(compiled.report.device_ops, 3U);
  EXPECT_EQ(compiled.device_input_bytes, features);
  EXPECT_EQ(compiled.device_output_bytes, classes);
  EXPECT_EQ(cost.device_macs, features * 2048U + 2048U * classes);
  const auto& mxu = device.mxu();
  const std::uint64_t cycles = mxu.matmul_cycles(1, features, 2048) +
                               mxu.elementwise_cycles(2048) +
                               mxu.matmul_cycles(1, 2048, classes);
  EXPECT_DOUBLE_EQ(cost.device_compute.to_seconds(),
                   SimDuration::cycles(cycles, mxu.config().frequency_hz).to_seconds());
}

}  // namespace
}  // namespace hdc

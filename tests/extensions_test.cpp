// Tests for the deployment-side extensions: binary (bipolar) classifiers,
// the energy model and the HDLite printer.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/binary.hpp"
#include "core/noise.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "lite/builder.hpp"
#include "lite/printer.hpp"
#include "lite/quantize.hpp"
#include "nn/wide_nn.hpp"
#include "platform/energy.hpp"
#include "runtime/cost.hpp"

namespace hdc {
namespace {

struct Trained {
  core::TrainedClassifier classifier;
  data::Dataset train;
  data::Dataset test;
};

Trained train_small(const char* dataset = "PAMAP2", std::uint32_t dim = 2048,
                    std::uint32_t samples = 900) {
  data::Dataset all = data::generate_synthetic(data::paper_dataset(dataset), samples);
  auto split = data::split_dataset(all, 0.25, 13);
  data::MinMaxNormalizer norm;
  norm.fit(split.train);
  norm.apply(split.train);
  norm.apply(split.test);

  core::HdConfig cfg;
  cfg.dim = dim;
  cfg.epochs = 10;
  core::Encoder encoder(static_cast<std::uint32_t>(split.train.num_features()), dim,
                        cfg.seed);
  const core::Trainer trainer(cfg);
  core::TrainResult result = trainer.fit(encoder, split.train);
  return Trained{core::TrainedClassifier{std::move(encoder), std::move(result.model)},
                 std::move(split.train), std::move(split.test)};
}

// --------------------------------------------------------------- binary ----

TEST(BinaryClassifierTest, ModelMemoryIs32xSmaller) {
  const Trained t = train_small();
  const auto binary = core::BinaryClassifier::binarize(t.classifier);
  EXPECT_EQ(binary.dense_model_bytes(), binary.model_bytes() * 32);
  EXPECT_EQ(binary.model_bytes(),
            static_cast<std::size_t>(t.classifier.num_classes()) * (2048 / 64) * 8);
}

TEST(BinaryClassifierTest, PackedWidthHandlesNonMultipleOf64) {
  const Trained t = train_small("PAMAP2", 100);
  const auto binary = core::BinaryClassifier::binarize(t.classifier);
  EXPECT_EQ(binary.words_per_vector(), 2U);  // ceil(100 / 64)
  // Hamming distance must be <= dim even with padding bits present.
  const auto packed = binary.pack(std::vector<float>(100, 1.0F));
  for (std::uint32_t c = 0; c < binary.num_classes(); ++c) {
    EXPECT_LE(binary.hamming(packed, c), 100U);
  }
}

TEST(BinaryClassifierTest, HammingSelfDistanceIsZero) {
  const Trained t = train_small();
  const auto binary = core::BinaryClassifier::binarize(t.classifier);
  const auto row0 = t.classifier.model.class_hypervectors().row(0);
  EXPECT_EQ(binary.hamming(binary.pack(row0), 0), 0U);
}

TEST(BinaryClassifierTest, RetrainedAccuracyCloseToFloatModel) {
  const Trained t = train_small("PAMAP2", 4096);
  const auto binary =
      core::BinaryClassifier::binarize_retrained(t.classifier, t.train, 8);

  const auto float_predictions = t.classifier.model.predict_batch(
      t.classifier.encoder.encode_batch(t.test.features), core::Similarity::kCosine);
  const auto binary_predictions = binary.predict_batch(t.test.features);

  const double float_acc = data::accuracy(float_predictions, t.test.labels);
  const double binary_acc = data::accuracy(binary_predictions, t.test.labels);
  EXPECT_GT(binary_acc, float_acc - 0.05)
      << "binary " << binary_acc << " vs float " << float_acc;
}

TEST(BinaryClassifierTest, RetrainedBeatsZeroShotBinarization) {
  const Trained t = train_small("PAMAP2", 4096);
  const auto zero_shot = core::BinaryClassifier::binarize(t.classifier);
  const auto retrained =
      core::BinaryClassifier::binarize_retrained(t.classifier, t.train, 8);
  const double zero_acc =
      data::accuracy(zero_shot.predict_batch(t.test.features), t.test.labels);
  const double retrained_acc =
      data::accuracy(retrained.predict_batch(t.test.features), t.test.labels);
  EXPECT_GT(retrained_acc, zero_acc);
}

TEST(BinaryClassifierTest, RetrainedRejectsMismatchedDataset) {
  const Trained t = train_small();
  data::Dataset wrong = t.train;
  wrong.features = tensor::MatrixF(wrong.num_samples(), 3);
  EXPECT_THROW(core::BinaryClassifier::binarize_retrained(t.classifier, wrong), Error);
}

TEST(BinaryClassifierTest, PackRejectsWrongWidth) {
  const Trained t = train_small();
  const auto binary = core::BinaryClassifier::binarize(t.classifier);
  EXPECT_THROW(binary.pack(std::vector<float>(7)), Error);
}

// --------------------------------------------------------------- energy ----

TEST(EnergyTest, CpuTaskJoulesAreTimeTimesPower) {
  const platform::EnergyModel model;
  const auto report =
      model.cpu_task(platform::raspberry_pi3_profile(), SimDuration::seconds(10));
  EXPECT_DOUBLE_EQ(report.joules, 40.0);  // 4 W x 10 s
  EXPECT_DOUBLE_EQ(report.average_watts(), 4.0);
}

TEST(EnergyTest, CodesignTrainingBlendsPhases) {
  platform::EnergyModel model;
  runtime::TrainTimings timings;
  timings.encode = SimDuration::seconds(10);     // TPU 2 W + host idle 4.5 W
  timings.update = SimDuration::seconds(5);      // host 15 W
  timings.model_gen = SimDuration::seconds(1);   // host 15 W
  const auto report = model.codesign_training(timings);
  EXPECT_NEAR(report.joules, 10 * (2.0 + 4.5) + 6 * 15.0, 1e-9);
  EXPECT_DOUBLE_EQ(report.time.to_seconds(), 16.0);
}

TEST(EnergyTest, CodesignBeatsEmbeddedCpuOnWideWorkloads) {
  // The "similar power" pitch: the Edge TPU system finishes so much faster
  // that it also wins on energy against the 4 W embedded CPU.
  const runtime::CostModel cost;
  runtime::WorkloadShape shape;
  shape.name = "MNIST";
  shape.train_samples = 48000;
  shape.test_samples = 12000;
  shape.features = 784;
  shape.classes = 10;
  shape.dim = 10000;
  shape.epochs = 20;

  runtime::BaggingShape bag;
  const auto pi_time = cost.train_cpu(shape, platform::raspberry_pi3_profile()).total();
  const auto codesign = cost.train_tpu_bagging(shape, bag);

  platform::EnergyModel energy;
  const double pi_joules =
      energy.cpu_task(platform::raspberry_pi3_profile(), pi_time).joules;
  const double codesign_joules = energy.codesign_training(codesign).joules;
  EXPECT_LT(codesign_joules, pi_joules);
}

TEST(EnergyTest, ZeroTimeHasZeroAverageWatts) {
  platform::EnergyReport report;
  EXPECT_EQ(report.average_watts(), 0.0);
}

TEST(EnergyTest, NonPhysicalModelsAreRejected) {
  // Every pricing entry point validates: the accelerator must draw power
  // when active, and the idle fraction is a fraction.
  platform::EnergyModel model;
  model.tpu_active_watts = 0.0;
  EXPECT_THROW(model.validate(), Error);
  EXPECT_THROW(model.codesign_inference(SimDuration::seconds(1)), Error);

  model = platform::EnergyModel{};
  model.tpu_active_watts = -2.0;
  EXPECT_THROW(model.validate(), Error);

  model = platform::EnergyModel{};
  model.host_idle_fraction = -0.1;
  EXPECT_THROW(model.validate(), Error);

  model = platform::EnergyModel{};
  model.host_idle_fraction = 1.5;
  EXPECT_THROW(model.validate(), Error);
  runtime::TrainTimings timings;
  timings.encode = SimDuration::seconds(1);
  EXPECT_THROW(model.codesign_training(timings), Error);

  // Boundary values are physical and accepted.
  model = platform::EnergyModel{};
  model.host_idle_fraction = 0.0;
  EXPECT_NO_THROW(model.validate());
  model.host_idle_fraction = 1.0;
  EXPECT_NO_THROW(model.validate());
}

// ---------------------------------------------------------------- noise ----

TEST(NoiseTest, StuckAtZeroHitsExactFraction) {
  core::HdModel model(3, 1000);
  for (float& v : model.class_hypervectors().storage()) {
    v = 1.0F;
  }
  Rng rng(5);
  core::inject_stuck_at_zero(model, 0.25, rng);
  for (std::uint32_t c = 0; c < 3; ++c) {
    std::size_t zeros = 0;
    for (const float v : model.class_hypervectors().row(c)) {
      zeros += v == 0.0F ? 1 : 0;
    }
    EXPECT_EQ(zeros, 250U);
  }
}

TEST(NoiseTest, SignFlipsPreserveMagnitudes) {
  core::HdModel model(2, 100);
  for (std::size_t i = 0; i < model.class_hypervectors().size(); ++i) {
    model.class_hypervectors().storage()[i] = static_cast<float>(i + 1);
  }
  const float rms_before = core::model_rms(model);
  Rng rng(7);
  core::inject_sign_flips(model, 0.5, rng);
  EXPECT_FLOAT_EQ(core::model_rms(model), rms_before);
}

TEST(NoiseTest, GaussianNoiseScalesWithRelativeSigma) {
  core::HdModel clean(2, 4096);
  Rng init(1);
  init.fill_gaussian(clean.class_hypervectors().data(), clean.class_hypervectors().size());

  core::HdModel noisy = clean;
  Rng rng(2);
  core::inject_gaussian_noise(noisy, 0.5F, rng);
  double diff_sq = 0.0;
  for (std::size_t i = 0; i < clean.class_hypervectors().size(); ++i) {
    const double d = noisy.class_hypervectors().storage()[i] -
                     clean.class_hypervectors().storage()[i];
    diff_sq += d * d;
  }
  const double observed_sigma =
      std::sqrt(diff_sq / clean.class_hypervectors().size());
  EXPECT_NEAR(observed_sigma, 0.5 * core::model_rms(clean), 0.02);
}

TEST(NoiseTest, InvalidFractionRejected) {
  core::HdModel model(2, 16);
  Rng rng(3);
  EXPECT_THROW(core::inject_stuck_at_zero(model, 1.5, rng), Error);
}

TEST(NoiseTest, HdcDegradesGracefullyUnderFaults) {
  // The holographic-robustness property the paper's introduction leans on:
  // zeroing 10% of every class hypervector should barely move accuracy.
  const Trained t = train_small("PAMAP2", 4096);
  const auto clean_predictions = t.classifier.model.predict_batch(
      t.classifier.encoder.encode_batch(t.test.features), core::Similarity::kCosine);
  const double clean_acc = data::accuracy(clean_predictions, t.test.labels);

  core::HdModel corrupted = t.classifier.model;
  Rng rng(11);
  core::inject_stuck_at_zero(corrupted, 0.10, rng);
  const auto noisy_predictions = corrupted.predict_batch(
      t.classifier.encoder.encode_batch(t.test.features), core::Similarity::kCosine);
  const double noisy_acc = data::accuracy(noisy_predictions, t.test.labels);
  EXPECT_GT(noisy_acc, clean_acc - 0.03);
}

// -------------------------------------------------------------- printer ----

TEST(PrinterTest, DescribesFloatModel) {
  nn::Graph g("toy", 4);
  g.add_dense(tensor::MatrixF(4, 8, 0.5F));
  g.add_tanh();
  const auto text = lite::describe_model(lite::build_float_model(g));
  EXPECT_NE(text.find("toy"), std::string::npos);
  EXPECT_NE(text.find("FULLY_CONNECTED"), std::string::npos);
  EXPECT_NE(text.find("float32"), std::string::npos);
  EXPECT_NE(text.find("<- input"), std::string::npos);
  EXPECT_NE(text.find("<- output"), std::string::npos);
}

TEST(PrinterTest, DescribesQuantizedModelWithScales) {
  nn::Graph g("toy", 4);
  g.add_dense(tensor::MatrixF(4, 8, 0.5F));
  g.add_tanh();
  const auto float_model = lite::build_float_model(g);
  const auto quantized =
      lite::quantize_model(float_model, tensor::MatrixF(4, 4, 0.3F));
  const auto text = lite::describe_model(quantized);
  EXPECT_NE(text.find("int8"), std::string::npos);
  EXPECT_NE(text.find("scale="), std::string::npos);
  EXPECT_NE(text.find("QUANTIZE"), std::string::npos);
}

}  // namespace
}  // namespace hdc

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/bagging.hpp"
#include "core/encoder.hpp"
#include "core/model.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "tensor/ops.hpp"

namespace hdc::core {
namespace {

data::Dataset small_task(std::uint32_t samples = 400) {
  data::SyntheticSpec spec = data::paper_dataset("PAMAP2");
  const data::Dataset raw = data::generate_synthetic(spec, samples);
  data::Dataset ds = raw;
  data::MinMaxNormalizer norm;
  norm.fit(ds);
  norm.apply(ds);
  return ds;
}

// -------------------------------------------------------------- Encoder ----

TEST(EncoderTest, BaseShape) {
  Encoder enc(10, 256, 1);
  EXPECT_EQ(enc.num_features(), 10U);
  EXPECT_EQ(enc.dim(), 256U);
  EXPECT_EQ(enc.base().rows(), 10U);
  EXPECT_EQ(enc.base().cols(), 256U);
}

TEST(EncoderTest, DeterministicForSeed) {
  Encoder a(8, 64, 99);
  Encoder b(8, 64, 99);
  EXPECT_EQ(a.base(), b.base());
}

TEST(EncoderTest, DifferentSeedsDiffer) {
  Encoder a(8, 64, 1);
  Encoder b(8, 64, 2);
  EXPECT_NE(a.base(), b.base());
}

TEST(EncoderTest, BaseHypervectorsNearOrthogonal) {
  // Property from the paper: N(0,1) bases at d = 10,000 have pairwise cosine
  // close to zero.
  Encoder enc(6, 10000, 7);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      EXPECT_LT(std::fabs(tensor::cosine(enc.base().row(i), enc.base().row(j))), 0.05F);
    }
  }
}

TEST(EncoderTest, BaseComponentsStandardNormal) {
  Encoder enc(20, 5000, 11);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const float v : enc.base().storage()) {
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(enc.base().size());
  const double mean = sum / n;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n - mean * mean, 1.0, 0.03);
}

TEST(EncoderTest, EncodeMatchesManualFormula) {
  Encoder enc(3, 16, 5);
  std::vector<float> sample{0.5F, -1.0F, 2.0F};
  const auto encoded = enc.encode(sample);
  ASSERT_EQ(encoded.size(), 16U);
  for (std::size_t j = 0; j < 16; ++j) {
    const float expected = std::tanh(0.5F * enc.base()(0, j) - 1.0F * enc.base()(1, j) +
                                     2.0F * enc.base()(2, j));
    EXPECT_NEAR(encoded[j], expected, 1e-5F);
  }
}

TEST(EncoderTest, EncodedValuesBounded) {
  Encoder enc(30, 512, 3);
  Rng rng(4);
  std::vector<float> sample(30);
  rng.fill_gaussian(sample.data(), sample.size(), 0.0F, 10.0F);
  for (const float v : enc.encode(sample)) {
    EXPECT_GE(v, -1.0F);  // float tanh saturates to exactly +/-1
    EXPECT_LE(v, 1.0F);
  }
}

TEST(EncoderTest, EncodeIsOddInInput) {
  Encoder enc(5, 64, 6);
  std::vector<float> x{1.0F, -0.5F, 0.25F, 2.0F, -1.5F};
  std::vector<float> neg(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    neg[i] = -x[i];
  }
  const auto ex = enc.encode(x);
  const auto eneg = enc.encode(neg);
  for (std::size_t j = 0; j < ex.size(); ++j) {
    EXPECT_NEAR(ex[j], -eneg[j], 1e-5F);
  }
}

TEST(EncoderTest, BatchMatchesSingle) {
  Encoder enc(4, 32, 8);
  tensor::MatrixF samples{{0.1F, 0.2F, 0.3F, 0.4F}, {1.0F, 0.0F, -1.0F, 0.5F}};
  const auto batch = enc.encode_batch(samples);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto single = enc.encode(samples.row(i));
    for (std::size_t j = 0; j < 32; ++j) {
      EXPECT_NEAR(batch(i, j), single[j], 1e-5F);
    }
  }
}

TEST(EncoderTest, FeatureMaskZeroesRows) {
  Encoder enc(4, 16, 9);
  std::vector<std::uint8_t> mask{1, 0, 1, 0};
  enc.apply_feature_mask(mask);
  for (const float v : enc.base().row(1)) {
    EXPECT_EQ(v, 0.0F);
  }
  for (const float v : enc.base().row(3)) {
    EXPECT_EQ(v, 0.0F);
  }
  float sum_abs = 0.0F;
  for (const float v : enc.base().row(0)) {
    sum_abs += std::fabs(v);
  }
  EXPECT_GT(sum_abs, 0.0F);
}

TEST(EncoderTest, MaskedFeatureDoesNotAffectEncoding) {
  Encoder enc(3, 32, 10);
  std::vector<std::uint8_t> mask{1, 0, 1};
  enc.apply_feature_mask(mask);
  std::vector<float> a{0.5F, 100.0F, -0.5F};
  std::vector<float> b{0.5F, -100.0F, -0.5F};
  EXPECT_EQ(enc.encode(a), enc.encode(b));
}

TEST(EncoderTest, WrongSampleWidthThrows) {
  Encoder enc(4, 16, 11);
  std::vector<float> sample(3);
  EXPECT_THROW(enc.encode(sample), Error);
}

TEST(EncoderTest, WrongMaskLengthThrows) {
  Encoder enc(4, 16, 11);
  std::vector<std::uint8_t> mask(3, 1);
  EXPECT_THROW(enc.apply_feature_mask(mask), Error);
}

// -------------------------------------------------------------- HdModel ----

TEST(HdModelTest, StartsAtZero) {
  HdModel model(3, 8);
  for (const float v : model.class_hypervectors().storage()) {
    EXPECT_EQ(v, 0.0F);
  }
}

TEST(HdModelTest, RequiresTwoClasses) { EXPECT_THROW(HdModel(1, 8), Error); }

TEST(HdModelTest, BundleAddsScaled) {
  HdModel model(2, 3);
  std::vector<float> e{1.0F, 2.0F, 3.0F};
  model.bundle(1, e, 0.5F);
  EXPECT_EQ(model.class_hypervectors().at(1, 0), 0.5F);
  EXPECT_EQ(model.class_hypervectors().at(1, 2), 1.5F);
  EXPECT_EQ(model.class_hypervectors().at(0, 0), 0.0F);
}

TEST(HdModelTest, DetachInvertsBundle) {
  HdModel model(2, 4);
  std::vector<float> e{1.0F, -2.0F, 3.0F, -4.0F};
  model.bundle(0, e, 1.0F);
  model.detach(0, e, 1.0F);
  for (const float v : model.class_hypervectors().storage()) {
    EXPECT_EQ(v, 0.0F);
  }
}

TEST(HdModelTest, DotScoresMatchManual) {
  HdModel model(2, 2);
  model.class_hypervectors() = tensor::MatrixF{{1.0F, 0.0F}, {0.0F, 1.0F}};
  std::vector<float> e{0.3F, 0.7F};
  const auto scores = model.scores(e, Similarity::kDot);
  EXPECT_FLOAT_EQ(scores[0], 0.3F);
  EXPECT_FLOAT_EQ(scores[1], 0.7F);
  EXPECT_EQ(model.predict(e, Similarity::kDot), 1U);
}

TEST(HdModelTest, CosineIgnoresMagnitude) {
  HdModel model(2, 2);
  // Class 0 has a huge norm pointing away from e; class 1 is aligned.
  model.class_hypervectors() = tensor::MatrixF{{100.0F, 0.0F}, {0.1F, 0.1F}};
  std::vector<float> e{1.0F, 1.0F};
  EXPECT_EQ(model.predict(e, Similarity::kCosine), 1U);
  // Dot product would be fooled by the magnitude.
  EXPECT_EQ(model.predict(e, Similarity::kDot), 0U);
}

TEST(HdModelTest, WidthMismatchThrows) {
  HdModel model(2, 4);
  std::vector<float> e(3);
  EXPECT_THROW(model.scores(e, Similarity::kDot), Error);
}

TEST(HdModelTest, ClassIndexOutOfRangeThrows) {
  HdModel model(2, 4);
  std::vector<float> e(4);
  EXPECT_THROW(model.bundle(2, e, 1.0F), Error);
}

// The per-class loop `scores` replaced: one tensor::cosine / tensor::dot per
// class, each a separate pass over d.
std::vector<float> per_class_scores(const HdModel& model, std::span<const float> encoded,
                                    Similarity metric) {
  std::vector<float> out(model.num_classes());
  for (std::size_t c = 0; c < out.size(); ++c) {
    const auto hv = model.class_hypervectors().row(c);
    out[c] = metric == Similarity::kCosine ? tensor::cosine(encoded, hv)
                                           : tensor::dot(encoded, hv);
  }
  return out;
}

void expect_scores_bit_identical(const HdModel& model, std::span<const float> encoded) {
  for (const Similarity metric : {Similarity::kCosine, Similarity::kDot}) {
    const auto got = model.scores(encoded, metric);
    const auto want = per_class_scores(model, encoded, metric);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < got.size(); ++c) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[c]), std::bit_cast<std::uint32_t>(want[c]))
          << "class " << c << " of " << got.size() << ", d = " << encoded.size()
          << (metric == Similarity::kCosine ? ", cosine" : ", dot");
    }
  }
}

TEST(HdModelTest, SinglePassScoresEqualPerClassLoopBitForBit) {
  Rng rng(41);
  for (const std::uint32_t k : {2U, 5U, 12U, 26U, 33U}) {
    for (const std::uint32_t d : {1U, 7U, 2048U, 10000U}) {
      HdModel model(k, d);
      auto& hvs = model.class_hypervectors();
      rng.fill_gaussian(hvs.data(), hvs.size());
      std::vector<float> encoded(d);
      rng.fill_gaussian(encoded.data(), d);
      tensor::tanh_inplace(encoded);
      expect_scores_bit_identical(model, encoded);

      // Zero-norm branches: an all-zero class row, then a zero query.
      const auto zero_row = hvs.row(k / 2);
      std::fill(zero_row.begin(), zero_row.end(), 0.0F);
      expect_scores_bit_identical(model, encoded);
      const std::vector<float> zero(d, 0.0F);
      expect_scores_bit_identical(model, zero);

      // Scores read the class rows as they are now: nothing is cached
      // across a bundle or a detach.
      model.bundle(0, encoded, 0.75F);
      model.detach(k - 1, encoded, 0.25F);
      model.bundle(k / 2, encoded, 1.0F);
      expect_scores_bit_identical(model, encoded);

      // A cancelling pair of 2^80 products up front: summed in ascending
      // index it cancels before the other terms arrive, in any other order
      // it swallows them, so a reordered sum shows in the float score.
      if (d >= 2) {
        encoded[0] = encoded[1] = 0x1p40F;
        for (std::size_t c = 0; c < k; ++c) {
          hvs(c, 0) = 0x1p40F;
          hvs(c, 1) = -0x1p40F;
        }
        expect_scores_bit_identical(model, encoded);
      }
    }
  }
}

// -------------------------------------------------------------- Trainer ----

TEST(TrainerTest, ConfigValidation) {
  HdConfig cfg;
  cfg.dim = 0;
  EXPECT_THROW(Trainer{cfg}, Error);
  cfg = HdConfig{};
  cfg.epochs = 0;
  EXPECT_THROW(Trainer{cfg}, Error);
  cfg = HdConfig{};
  cfg.learning_rate = 0.0F;
  EXPECT_THROW(Trainer{cfg}, Error);
}

TEST(TrainerTest, LearnsSeparableTask) {
  const data::Dataset ds = small_task();
  HdConfig cfg;
  cfg.dim = 1000;
  cfg.epochs = 10;
  Encoder enc(static_cast<std::uint32_t>(ds.num_features()), cfg.dim, cfg.seed);
  const Trainer trainer(cfg);
  const TrainResult result = trainer.fit(enc, ds);
  EXPECT_GT(result.history.back().train_accuracy, 0.9);
}

TEST(TrainerTest, AccuracyImprovesOverEpochs) {
  const data::Dataset ds = small_task();
  HdConfig cfg;
  cfg.dim = 1000;
  cfg.epochs = 8;
  Encoder enc(static_cast<std::uint32_t>(ds.num_features()), cfg.dim, cfg.seed);
  const Trainer trainer(cfg);
  const TrainResult result = trainer.fit(enc, ds);
  EXPECT_GT(result.history.back().train_accuracy,
            result.history.front().train_accuracy);
}

TEST(TrainerTest, UpdatesDecreaseAsModelConverges) {
  const data::Dataset ds = small_task();
  HdConfig cfg;
  cfg.dim = 1000;
  cfg.epochs = 10;
  Encoder enc(static_cast<std::uint32_t>(ds.num_features()), cfg.dim, cfg.seed);
  const Trainer trainer(cfg);
  const TrainResult result = trainer.fit(enc, ds);
  EXPECT_LT(result.history.back().updates, result.history.front().updates);
}

TEST(TrainerTest, TracksValidationAccuracy) {
  const data::Dataset all = small_task(600);
  const auto split = data::split_dataset(all, 0.25, 3);
  HdConfig cfg;
  cfg.dim = 800;
  cfg.epochs = 6;
  Encoder enc(static_cast<std::uint32_t>(split.train.num_features()), cfg.dim, cfg.seed);
  const Trainer trainer(cfg);
  const TrainResult result = trainer.fit(enc, split.train, &split.test);
  EXPECT_GT(result.history.back().val_accuracy, 0.75);
}

TEST(TrainerTest, TotalUpdatesMatchesHistory) {
  const data::Dataset ds = small_task();
  HdConfig cfg;
  cfg.dim = 500;
  cfg.epochs = 5;
  Encoder enc(static_cast<std::uint32_t>(ds.num_features()), cfg.dim, cfg.seed);
  const Trainer trainer(cfg);
  const TrainResult result = trainer.fit(enc, ds);
  std::uint64_t sum = 0;
  for (const auto& epoch : result.history) {
    sum += epoch.updates;
  }
  EXPECT_EQ(result.total_updates, sum);
}

TEST(TrainerTest, DeterministicForSeed) {
  const data::Dataset ds = small_task();
  HdConfig cfg;
  cfg.dim = 400;
  cfg.epochs = 3;
  Encoder enc_a(static_cast<std::uint32_t>(ds.num_features()), cfg.dim, cfg.seed);
  Encoder enc_b(static_cast<std::uint32_t>(ds.num_features()), cfg.dim, cfg.seed);
  const Trainer trainer(cfg);
  const TrainResult a = trainer.fit(enc_a, ds);
  const TrainResult b = trainer.fit(enc_b, ds);
  EXPECT_EQ(a.model.class_hypervectors(), b.model.class_hypervectors());
}

TEST(TrainerTest, MismatchedEncoderDimThrows) {
  const data::Dataset ds = small_task(50);
  HdConfig cfg;
  cfg.dim = 100;
  Encoder enc(static_cast<std::uint32_t>(ds.num_features()), 200, cfg.seed);
  const Trainer trainer(cfg);
  EXPECT_THROW(trainer.fit(enc, ds), Error);
}

TEST(TrainerTest, ValidationWithoutLabelsThrows) {
  const data::Dataset ds = small_task(50);
  HdConfig cfg;
  cfg.dim = 64;
  Encoder enc(static_cast<std::uint32_t>(ds.num_features()), cfg.dim, cfg.seed);
  const auto encoded = enc.encode_batch(ds.features);
  const Trainer trainer(cfg);
  EXPECT_THROW(trainer.fit_encoded(encoded, ds.labels, ds.num_classes, &encoded, nullptr),
               Error);
}

// Parameterized property: training accuracy at the end is high across
// hypervector widths (robustness of the HD representation).
class TrainerWidthTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TrainerWidthTest, ConvergesAtWidth) {
  const data::Dataset ds = small_task(300);
  HdConfig cfg;
  cfg.dim = GetParam();
  cfg.epochs = 10;
  Encoder enc(static_cast<std::uint32_t>(ds.num_features()), cfg.dim, cfg.seed);
  const Trainer trainer(cfg);
  const TrainResult result = trainer.fit(enc, ds);
  EXPECT_GT(result.history.back().train_accuracy, 0.85)
      << "width " << GetParam() << " failed to converge";
}

INSTANTIATE_TEST_SUITE_P(Widths, TrainerWidthTest,
                         ::testing::Values(256U, 512U, 1024U, 2048U, 4096U));

// -------------------------------------------------------------- Bagging ----

BaggingConfig small_bagging() {
  BaggingConfig cfg;
  cfg.num_models = 4;
  cfg.epochs = 4;
  cfg.base.dim = 1024;
  cfg.base.seed = 77;
  cfg.bootstrap.dataset_ratio = 0.6;
  return cfg;
}

/// The bagging member protocol with each member fitted on the host.
BaggedEnsemble fit_bagged(const data::Dataset& train, const BaggingConfig& cfg) {
  return train_bagged(train, cfg,
                      [](std::uint32_t, const Trainer& trainer, const Encoder& encoder,
                         const data::Dataset& subset) { return trainer.fit(encoder, subset); });
}

TEST(BaggingTest, EffectiveSubDimDividesEvenly) {
  BaggingConfig cfg = small_bagging();
  EXPECT_EQ(cfg.effective_sub_dim(), 256U);
  cfg.sub_dim = 100;
  EXPECT_EQ(cfg.effective_sub_dim(), 100U);
}

TEST(BaggingTest, TrainsRequestedSubModels) {
  const data::Dataset ds = small_task();
  const BaggedEnsemble ensemble = fit_bagged(ds, small_bagging());
  EXPECT_EQ(ensemble.members.size(), 4U);
  EXPECT_EQ(ensemble.full_dim(), 1024U);
  for (const auto& member : ensemble.members) {
    EXPECT_EQ(member.encoder.dim(), 256U);
    EXPECT_EQ(member.model.num_classes(), ds.num_classes);
    EXPECT_EQ(member.bootstrap.sample_indices.size(), 240U);  // 0.6 * 400
  }
}

TEST(BaggingTest, TrainingRecordsCarryRealHistoryPerMember) {
  // Regression: the recorded per-member history used to wrap a 1-wide
  // placeholder HdModel; now it is a model-free TrainingRecord whose stats
  // describe the actual member training run.
  const data::Dataset ds = small_task(200);
  const BaggingConfig cfg = small_bagging();
  const BaggedEnsemble ensemble = fit_bagged(ds, cfg);
  ASSERT_EQ(ensemble.training.size(), cfg.num_models);
  for (const TrainingRecord& record : ensemble.training) {
    ASSERT_EQ(record.history.size(), cfg.epochs);
    std::uint64_t summed = 0;
    for (std::size_t e = 0; e < record.history.size(); ++e) {
      EXPECT_EQ(record.history[e].epoch, e);
      summed += record.history[e].updates;
    }
    EXPECT_EQ(record.total_updates, summed);
    EXPECT_GT(record.total_updates, 0U);  // zero would mean nothing trained
    EXPECT_GT(record.history.back().train_accuracy, 0.5);
  }
}

TEST(BaggingTest, SubModelsUseDistinctBases) {
  const data::Dataset ds = small_task(200);
  const BaggedEnsemble ensemble = fit_bagged(ds, small_bagging());
  EXPECT_NE(ensemble.members[0].encoder.base(), ensemble.members[1].encoder.base());
}

TEST(BaggingTest, EnsembleAccuracyIsReasonable) {
  const data::Dataset all = small_task(600);
  const auto split = data::split_dataset(all, 0.25, 5);
  const BaggedEnsemble ensemble = fit_bagged(split.train, small_bagging());
  const auto predictions = ensemble.predict_batch(split.test.features);
  EXPECT_GT(data::accuracy(predictions, split.test.labels), 0.8);
}

TEST(BaggingTest, StackedClassifierHasFullDimensions) {
  const data::Dataset ds = small_task(200);
  const TrainedClassifier stacked = stack(fit_bagged(ds, small_bagging()));
  EXPECT_EQ(stacked.encoder.dim(), 1024U);
  EXPECT_EQ(stacked.encoder.num_features(), ds.num_features());
  EXPECT_EQ(stacked.model.dim(), 1024U);
  EXPECT_EQ(stacked.model.num_classes(), ds.num_classes);
}

TEST(BaggingTest, StackedPredictionEqualsEnsembleConsensus) {
  // The paper's stacking identity: one wide model computes exactly the sum
  // of per-sub-model dot scores, so predictions must agree sample by sample.
  const data::Dataset ds = small_task(250);
  const BaggedEnsemble ensemble = fit_bagged(ds, small_bagging());
  const TrainedClassifier stacked = stack(ensemble);

  const auto consensus = ensemble.predict_batch(ds.features);
  const auto single =
      stacked.model.predict_batch(stacked.encoder.encode_batch(ds.features), Similarity::kDot);
  EXPECT_EQ(consensus, single);
}

TEST(BaggingTest, FeatureSamplingZeroesStackedColumns) {
  const data::Dataset ds = small_task(150);
  BaggingConfig cfg = small_bagging();
  cfg.bootstrap.feature_ratio = 0.5;
  const BaggedEnsemble ensemble = fit_bagged(ds, cfg);
  for (const auto& member : ensemble.members) {
    EXPECT_EQ(member.bootstrap.active_features(), ds.num_features() / 2);
    for (std::size_t f = 0; f < ds.num_features(); ++f) {
      if (member.bootstrap.feature_mask[f] == 0) {
        for (const float v : member.encoder.base().row(f)) {
          EXPECT_EQ(v, 0.0F);
        }
      }
    }
  }
}

TEST(BaggingTest, DeterministicForSeed) {
  const data::Dataset ds = small_task(200);
  const TrainedClassifier a = stack(fit_bagged(ds, small_bagging()));
  const TrainedClassifier b = stack(fit_bagged(ds, small_bagging()));
  EXPECT_EQ(a.model.class_hypervectors(), b.model.class_hypervectors());
  EXPECT_EQ(a.encoder.base(), b.encoder.base());
}

TEST(BaggingTest, InvalidConfigThrows) {
  BaggingConfig cfg = small_bagging();
  cfg.num_models = 0;
  EXPECT_THROW(fit_bagged(small_task(50), cfg), Error);
}

TEST(BaggingTest, StackEmptyEnsembleThrows) {
  BaggedEnsemble empty;
  EXPECT_THROW(stack(empty), Error);
}

// ---------------------------------------------------------- Serializer ----

TEST(SerializeTest, RoundTripBitExact) {
  const data::Dataset ds = small_task(100);
  HdConfig cfg;
  cfg.dim = 256;
  cfg.epochs = 2;
  Encoder enc(static_cast<std::uint32_t>(ds.num_features()), cfg.dim, cfg.seed);
  const Trainer trainer(cfg);
  TrainResult result = trainer.fit(enc, ds);

  const TrainedClassifier original{std::move(enc), std::move(result.model)};
  const auto bytes = serialize_classifier(original);
  const TrainedClassifier restored = deserialize_classifier(bytes);

  EXPECT_EQ(restored.encoder.base(), original.encoder.base());
  EXPECT_EQ(restored.model.class_hypervectors(), original.model.class_hypervectors());
}

TEST(SerializeTest, FileRoundTrip) {
  Encoder enc(4, 32, 1);
  HdModel model(2, 32);
  const TrainedClassifier original{std::move(enc), std::move(model)};
  const auto path =
      (std::filesystem::temp_directory_path() / "hdc_classifier_test.hdcm").string();
  save_classifier(original, path);
  const TrainedClassifier restored = load_classifier(path);
  EXPECT_EQ(restored.encoder.base(), original.encoder.base());
  std::filesystem::remove(path);
}

TEST(SerializeTest, CorruptedByteRejected) {
  Encoder enc(4, 32, 1);
  HdModel model(2, 32);
  auto bytes = serialize_classifier(TrainedClassifier{std::move(enc), std::move(model)});
  bytes[bytes.size() / 2] ^= 0xFF;
  EXPECT_THROW(deserialize_classifier(bytes), Error);
}

TEST(SerializeTest, TruncatedBufferRejected) {
  Encoder enc(4, 32, 1);
  HdModel model(2, 32);
  auto bytes = serialize_classifier(TrainedClassifier{std::move(enc), std::move(model)});
  bytes.resize(bytes.size() - 8);
  EXPECT_THROW(deserialize_classifier(bytes), Error);
}

TEST(SerializeTest, WrongMagicRejected) {
  std::vector<std::uint8_t> bytes(64, 0);
  EXPECT_THROW(deserialize_classifier(bytes), Error);
}

}  // namespace
}  // namespace hdc::core

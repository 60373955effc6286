// Parameterized property sweeps: the DESIGN.md §6 invariants checked across
// ranges of shapes and hyperparameters rather than single points.

#include <gtest/gtest.h>

#include <cmath>

#include "core/bagging.hpp"
#include "core/level_encoder.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "lite/quantize.hpp"
#include "platform/profiles.hpp"
#include "runtime/cost.hpp"
#include "tensor/ops.hpp"
#include "tpu/device.hpp"

namespace hdc {
namespace {

// ----------------------------------------------------- quantization sweep ----

struct RangeCase {
  float min;
  float max;
};

class ActivationQuantSweep : public ::testing::TestWithParam<RangeCase> {};

TEST_P(ActivationQuantSweep, RoundTripErrorBoundedAcrossRange) {
  const auto [lo, hi] = GetParam();
  const lite::Quantization q = lite::choose_activation_quant(lo, hi);
  ASSERT_TRUE(q.enabled());
  Rng rng(static_cast<std::uint64_t>(lo * 1000) ^ 0xABC);
  for (int i = 0; i < 2000; ++i) {
    const float real = rng.uniform(std::min(lo, 0.0F), std::max(hi, 0.0F));
    const float restored = q.dequantize(q.quantize(real));
    EXPECT_LE(std::fabs(restored - real), q.scale * 0.5F + 1e-6F)
        << "range [" << lo << ", " << hi << "], value " << real;
  }
  // Zero must be exactly representable (the TFLite rule).
  EXPECT_EQ(q.dequantize(q.quantize(0.0F)), 0.0F);
}

INSTANTIATE_TEST_SUITE_P(Ranges, ActivationQuantSweep,
                         ::testing::Values(RangeCase{0.0F, 1.0F}, RangeCase{-1.0F, 1.0F},
                                           RangeCase{-100.0F, 250.0F},
                                           RangeCase{0.5F, 2.0F},
                                           RangeCase{-3.0F, -0.5F},
                                           RangeCase{-1e-3F, 1e-3F}));

// ------------------------------------------------------ learning-rate sweep ----

class LearningRateSweep : public ::testing::TestWithParam<float> {};

TEST_P(LearningRateSweep, TrainerConvergesForAnyReasonableLambda) {
  data::Dataset ds = data::generate_synthetic(data::paper_dataset("PAMAP2"), 400);
  data::MinMaxNormalizer norm;
  norm.fit(ds);
  norm.apply(ds);

  core::HdConfig cfg;
  cfg.dim = 1024;
  cfg.epochs = 10;
  cfg.learning_rate = GetParam();
  core::Encoder encoder(static_cast<std::uint32_t>(ds.num_features()), cfg.dim, cfg.seed);
  const core::Trainer trainer(cfg);
  const auto result = trainer.fit(encoder, ds);
  EXPECT_GT(result.history.back().train_accuracy, 0.9)
      << "lambda = " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Lambdas, LearningRateSweep,
                         ::testing::Values(0.1F, 0.5F, 1.0F, 2.0F, 5.0F));

// --------------------------------------------------------- bagging M sweep ----

class BaggingModelCountSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BaggingModelCountSweep, StackingIdentityHoldsForAnyM) {
  data::Dataset ds = data::generate_synthetic(data::paper_dataset("PAMAP2"), 300);
  data::MinMaxNormalizer norm;
  norm.fit(ds);
  norm.apply(ds);

  core::BaggingConfig cfg;
  cfg.num_models = GetParam();
  cfg.epochs = 3;
  cfg.base.dim = 512;
  cfg.bootstrap.dataset_ratio = 0.6;
  const auto ensemble = core::train_bagged(
      ds, cfg,
      [](std::uint32_t, const core::Trainer& trainer, const core::Encoder& encoder,
         const data::Dataset& subset) { return trainer.fit(encoder, subset); });
  const auto stacked = core::stack(ensemble);

  EXPECT_EQ(ensemble.predict_batch(ds.features),
            stacked.model.predict_batch(stacked.encoder.encode_batch(ds.features),
                                        core::Similarity::kDot))
      << "M = " << GetParam();
  EXPECT_EQ(stacked.encoder.dim(), cfg.base.dim / GetParam() * GetParam());
}

INSTANTIATE_TEST_SUITE_P(ModelCounts, BaggingModelCountSweep,
                         ::testing::Values(1U, 2U, 4U, 8U));

// --------------------------------------------------------- cost-model sweep ----

struct CostShape {
  std::uint32_t features;
  std::uint32_t dim;
};

class DeviceCostSweep : public ::testing::TestWithParam<CostShape> {};

TEST_P(DeviceCostSweep, TimingInvariantsHoldAcrossShapes) {
  const auto [features, dim] = GetParam();
  const runtime::CostModel cost;
  const auto host = platform::host_cpu_profile();

  // Monotone in samples.
  EXPECT_LT(cost.encode_tpu(100, features, dim).to_seconds(),
            cost.encode_tpu(200, features, dim).to_seconds());
  // Monotone in width.
  EXPECT_LE(cost.encode_tpu(100, features, dim).to_seconds(),
            cost.encode_tpu(100, features, dim * 2).to_seconds());
  // CPU encode is exactly linear in samples.
  EXPECT_NEAR(cost.encode_cpu(200, features, dim, host).to_seconds(),
              2.0 * cost.encode_cpu(100, features, dim, host).to_seconds(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DeviceCostSweep,
                         ::testing::Values(CostShape{20, 1000}, CostShape{27, 10000},
                                           CostShape{617, 2500}, CostShape{784, 10000}));

// ---------------------------------------------------------- level count sweep ----

class LevelCountSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LevelCountSweep, ChainDistanceMonotoneForAnyLevelCount) {
  core::LevelEncoderConfig cfg;
  cfg.dim = 1024;
  cfg.levels = GetParam();
  const core::LevelEncoder enc(4, cfg);
  std::uint32_t previous = 0;
  for (std::uint32_t level = 1; level < cfg.levels; ++level) {
    std::uint32_t distance = 0;
    const auto v0 = enc.level_vector(0);
    const auto vl = enc.level_vector(level);
    for (std::size_t j = 0; j < v0.size(); ++j) {
      distance += v0[j] != vl[j] ? 1 : 0;
    }
    EXPECT_GT(distance, previous) << "levels = " << cfg.levels << ", level " << level;
    previous = distance;
  }
}

INSTANTIATE_TEST_SUITE_P(LevelCounts, LevelCountSweep,
                         ::testing::Values(2U, 4U, 16U, 64U, 256U));

// ---------------------------------------------------------- rng uniformity ----

class NextBelowSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NextBelowSweep, RoughlyUniformForAnyBound) {
  const std::uint64_t bound = GetParam();
  Rng rng(bound * 2654435761ULL + 1);
  const int draws_per_bucket = 400;
  const auto total = static_cast<int>(bound) * draws_per_bucket;
  std::vector<int> hits(bound, 0);
  for (int i = 0; i < total; ++i) {
    ++hits[rng.next_below(bound)];
  }
  // Chi-square-ish sanity: every bucket within 4 sigma of the expectation.
  const double expected = draws_per_bucket;
  const double sigma = std::sqrt(expected * (1.0 - 1.0 / static_cast<double>(bound)));
  for (std::uint64_t b = 0; b < bound; ++b) {
    EXPECT_NEAR(hits[b], expected, 4.5 * sigma) << "bound " << bound << " bucket " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, NextBelowSweep, ::testing::Values(2U, 3U, 7U, 10U, 64U));

// --------------------------------------------------- orthogonality vs width ----

class OrthogonalitySweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(OrthogonalitySweep, BasePairwiseCosineShrinksWithWidth) {
  const std::uint32_t dim = GetParam();
  const core::Encoder enc(8, dim, 13);
  float worst = 0.0F;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i + 1; j < 8; ++j) {
      worst = std::max(worst,
                       std::fabs(tensor::cosine(enc.base().row(i), enc.base().row(j))));
    }
  }
  // |cos| concentrates around 1/sqrt(d); allow a generous constant.
  EXPECT_LT(worst, 6.0F / std::sqrt(static_cast<float>(dim))) << "d = " << dim;
}

INSTANTIATE_TEST_SUITE_P(Widths, OrthogonalitySweep,
                         ::testing::Values(256U, 1024U, 4096U, 10000U));

}  // namespace
}  // namespace hdc

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/error.hpp"
#include "data/dataset.hpp"
#include "data/sampling.hpp"
#include "data/stream.hpp"
#include "data/synthetic.hpp"
#include "tensor/ops.hpp"

namespace hdc::data {
namespace {

Dataset tiny_dataset() {
  Dataset ds;
  ds.name = "tiny";
  ds.num_classes = 2;
  ds.features = tensor::MatrixF{{0.0F, 1.0F}, {2.0F, 3.0F}, {4.0F, 5.0F}, {6.0F, 7.0F}};
  ds.labels = {0, 1, 0, 1};
  return ds;
}

// -------------------------------------------------------------- Dataset ----

TEST(DatasetTest, ValidatePasses) { EXPECT_NO_THROW(tiny_dataset().validate()); }

TEST(DatasetTest, ValidateCatchesRowMismatch) {
  Dataset ds = tiny_dataset();
  ds.labels.pop_back();
  EXPECT_THROW(ds.validate(), Error);
}

TEST(DatasetTest, ValidateCatchesLabelOutOfRange) {
  Dataset ds = tiny_dataset();
  ds.labels[0] = 5;
  EXPECT_THROW(ds.validate(), Error);
}

TEST(DatasetTest, SelectGathersRows) {
  const Dataset ds = tiny_dataset();
  const Dataset sub = ds.select({2, 0});
  ASSERT_EQ(sub.num_samples(), 2U);
  EXPECT_EQ(sub.features.at(0, 0), 4.0F);
  EXPECT_EQ(sub.features.at(1, 0), 0.0F);
  EXPECT_EQ(sub.labels[0], 0U);
}

TEST(DatasetTest, SelectAllowsDuplicates) {
  const Dataset sub = tiny_dataset().select({1, 1, 1});
  EXPECT_EQ(sub.num_samples(), 3U);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sub.labels[i], 1U);
  }
}

TEST(DatasetTest, SelectOutOfRangeThrows) {
  EXPECT_THROW(tiny_dataset().select({9}), Error);
}

TEST(ShuffleTest, PreservesRowLabelPairs) {
  Dataset ds = tiny_dataset();
  Rng rng(5);
  shuffle_dataset(ds, rng);
  for (std::size_t i = 0; i < ds.num_samples(); ++i) {
    // In tiny_dataset, label == (first feature / 2) mod 2.
    const auto expected = static_cast<std::uint32_t>(ds.features.at(i, 0) / 2.0F) % 2;
    EXPECT_EQ(ds.labels[i], expected);
  }
}

TEST(ShuffleTest, DeterministicForSeed) {
  Dataset a = tiny_dataset();
  Dataset b = tiny_dataset();
  Rng ra(7);
  Rng rb(7);
  shuffle_dataset(a, ra);
  shuffle_dataset(b, rb);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.features, b.features);
}

TEST(SplitTest, PartitionSizes) {
  const SyntheticSpec& spec = paper_dataset("PAMAP2");
  const Dataset ds = generate_synthetic(spec, 1000);
  const auto split = split_dataset(ds, 0.2, 42);
  EXPECT_EQ(split.test.num_samples(), 200U);
  EXPECT_EQ(split.train.num_samples(), 800U);
}

TEST(SplitTest, RejectsDegenerateFractions) {
  const Dataset ds = tiny_dataset();
  EXPECT_THROW(split_dataset(ds, 0.0, 1), Error);
  EXPECT_THROW(split_dataset(ds, 1.0, 1), Error);
}

TEST(SplitTest, ClassesPresentInBothHalves) {
  const Dataset ds = generate_synthetic(paper_dataset("PAMAP2"), 2000);
  const auto split = split_dataset(ds, 0.3, 9);
  std::set<std::uint32_t> train_classes(split.train.labels.begin(), split.train.labels.end());
  std::set<std::uint32_t> test_classes(split.test.labels.begin(), split.test.labels.end());
  EXPECT_EQ(train_classes.size(), 5U);
  EXPECT_EQ(test_classes.size(), 5U);
}

// ----------------------------------------------------------- Normalizer ----

TEST(NormalizerTest, MapsTrainToUnitInterval) {
  Dataset ds = tiny_dataset();
  MinMaxNormalizer norm;
  norm.fit(ds);
  norm.apply(ds);
  const auto [lo, hi] = tensor::min_max(ds.features);
  EXPECT_GE(lo, 0.0F);
  EXPECT_LE(hi, 1.0F);
  EXPECT_EQ(ds.features.at(0, 0), 0.0F);  // per-feature min -> 0
  EXPECT_EQ(ds.features.at(3, 0), 1.0F);  // per-feature max -> 1
}

TEST(NormalizerTest, ClampsOutOfRangeTestValues) {
  Dataset train = tiny_dataset();
  MinMaxNormalizer norm;
  norm.fit(train);

  Dataset test = tiny_dataset();
  test.features.at(0, 0) = -100.0F;
  test.features.at(1, 1) = 100.0F;
  norm.apply(test);
  EXPECT_EQ(test.features.at(0, 0), 0.0F);
  EXPECT_EQ(test.features.at(1, 1), 1.0F);
}

TEST(NormalizerTest, ConstantFeatureMapsToZero) {
  Dataset ds = tiny_dataset();
  for (std::size_t i = 0; i < ds.num_samples(); ++i) {
    ds.features.at(i, 1) = 7.0F;
  }
  MinMaxNormalizer norm;
  norm.fit(ds);
  norm.apply(ds);
  for (std::size_t i = 0; i < ds.num_samples(); ++i) {
    EXPECT_EQ(ds.features.at(i, 1), 0.0F);
  }
}

TEST(NormalizerTest, UseBeforeFitThrows) {
  Dataset ds = tiny_dataset();
  MinMaxNormalizer norm;
  EXPECT_THROW(norm.apply(ds), Error);
}

TEST(NormalizerTest, FeatureCountMismatchThrows) {
  Dataset ds = tiny_dataset();
  MinMaxNormalizer norm;
  norm.fit(ds);
  Dataset wide = ds;
  wide.features = tensor::MatrixF(4, 3);
  EXPECT_THROW(norm.apply(wide), Error);
}

TEST(AccuracyTest, CountsMatches) {
  EXPECT_DOUBLE_EQ(accuracy({1, 2, 3, 4}, {1, 2, 0, 4}), 0.75);
}

TEST(AccuracyTest, SizeMismatchThrows) { EXPECT_THROW(accuracy({1}, {1, 2}), Error); }

// ------------------------------------------------------------ Bootstrap ----

TEST(BootstrapTest, SubsetSizeFollowsAlpha) {
  BootstrapConfig cfg;
  cfg.dataset_ratio = 0.6;
  Rng rng(3);
  const auto sample = draw_bootstrap(1000, 50, cfg, rng);
  EXPECT_EQ(sample.sample_indices.size(), 600U);
}

TEST(BootstrapTest, FeatureMaskFollowsBeta) {
  BootstrapConfig cfg;
  cfg.feature_ratio = 0.4;
  Rng rng(4);
  const auto sample = draw_bootstrap(100, 50, cfg, rng);
  EXPECT_EQ(sample.feature_mask.size(), 50U);
  EXPECT_EQ(sample.active_features(), 20U);
}

TEST(BootstrapTest, FullRatiosKeepEverything) {
  BootstrapConfig cfg;
  cfg.dataset_ratio = 1.0;
  cfg.feature_ratio = 1.0;
  cfg.with_replacement = false;
  Rng rng(5);
  const auto sample = draw_bootstrap(40, 10, cfg, rng);
  EXPECT_EQ(sample.sample_indices.size(), 40U);
  EXPECT_EQ(sample.active_features(), 10U);
}

TEST(BootstrapTest, WithReplacementProducesDuplicatesEventually) {
  BootstrapConfig cfg;
  cfg.dataset_ratio = 1.0;
  cfg.with_replacement = true;
  Rng rng(6);
  const auto sample = draw_bootstrap(50, 5, cfg, rng);
  std::set<std::uint32_t> distinct(sample.sample_indices.begin(),
                                   sample.sample_indices.end());
  EXPECT_LT(distinct.size(), sample.sample_indices.size());
}

TEST(BootstrapTest, WithoutReplacementIsDistinct) {
  BootstrapConfig cfg;
  cfg.dataset_ratio = 0.5;
  cfg.with_replacement = false;
  Rng rng(7);
  const auto sample = draw_bootstrap(100, 5, cfg, rng);
  std::set<std::uint32_t> distinct(sample.sample_indices.begin(),
                                   sample.sample_indices.end());
  EXPECT_EQ(distinct.size(), sample.sample_indices.size());
}

TEST(BootstrapTest, AtLeastOneSampleAndFeature) {
  BootstrapConfig cfg;
  cfg.dataset_ratio = 0.001;
  cfg.feature_ratio = 0.001;
  Rng rng(8);
  const auto sample = draw_bootstrap(10, 10, cfg, rng);
  EXPECT_GE(sample.sample_indices.size(), 1U);
  EXPECT_GE(sample.active_features(), 1U);
}

TEST(BootstrapTest, InvalidRatiosThrow) {
  BootstrapConfig cfg;
  cfg.dataset_ratio = 0.0;
  Rng rng(9);
  EXPECT_THROW(draw_bootstrap(10, 10, cfg, rng), Error);
  cfg.dataset_ratio = 0.5;
  cfg.feature_ratio = 1.5;
  EXPECT_THROW(draw_bootstrap(10, 10, cfg, rng), Error);
}

// ------------------------------------------------------------ Synthetic ----

TEST(SyntheticTest, PaperDatasetsMatchTableOne) {
  const auto& specs = paper_datasets();
  ASSERT_EQ(specs.size(), 5U);

  const auto& face = paper_dataset("FACE");
  EXPECT_EQ(face.samples, 80854U);
  EXPECT_EQ(face.features, 608U);
  EXPECT_EQ(face.classes, 2U);

  const auto& isolet = paper_dataset("ISOLET");
  EXPECT_EQ(isolet.samples, 7797U);
  EXPECT_EQ(isolet.features, 617U);
  EXPECT_EQ(isolet.classes, 26U);

  const auto& har = paper_dataset("UCIHAR");
  EXPECT_EQ(har.samples, 7667U);
  EXPECT_EQ(har.features, 561U);
  EXPECT_EQ(har.classes, 12U);

  const auto& mnist = paper_dataset("MNIST");
  EXPECT_EQ(mnist.samples, 60000U);
  EXPECT_EQ(mnist.features, 784U);
  EXPECT_EQ(mnist.classes, 10U);

  const auto& pamap = paper_dataset("PAMAP2");
  EXPECT_EQ(pamap.samples, 32768U);
  EXPECT_EQ(pamap.features, 27U);
  EXPECT_EQ(pamap.classes, 5U);
}

TEST(SyntheticTest, UnknownNameThrows) { EXPECT_THROW(paper_dataset("CIFAR"), Error); }

TEST(SyntheticTest, GeneratesRequestedShape) {
  const Dataset ds = generate_synthetic(paper_dataset("ISOLET"), 500);
  EXPECT_EQ(ds.num_samples(), 500U);
  EXPECT_EQ(ds.num_features(), 617U);
  EXPECT_EQ(ds.num_classes, 26U);
  EXPECT_NO_THROW(ds.validate());
}

TEST(SyntheticTest, ZeroCapGeneratesFullCount) {
  SyntheticSpec spec = paper_dataset("PAMAP2");
  spec.samples = 300;  // shrink so the full generation stays fast
  const Dataset ds = generate_synthetic(spec, 0);
  EXPECT_EQ(ds.num_samples(), 300U);
}

TEST(SyntheticTest, DeterministicForSeed) {
  const Dataset a = generate_synthetic(paper_dataset("PAMAP2"), 200);
  const Dataset b = generate_synthetic(paper_dataset("PAMAP2"), 200);
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticSpec spec = paper_dataset("PAMAP2");
  const Dataset a = generate_synthetic(spec, 200);
  spec.seed ^= 0x1234;
  const Dataset b = generate_synthetic(spec, 200);
  EXPECT_NE(a.features, b.features);
}

TEST(SyntheticTest, ClassesRoughlyBalanced) {
  const Dataset ds = generate_synthetic(paper_dataset("PAMAP2"), 1000);
  std::vector<int> counts(ds.num_classes, 0);
  for (const auto label : ds.labels) {
    ++counts[label];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, 200, 1);  // round-robin assignment, then shuffled
  }
}

TEST(SyntheticTest, InvalidSpecThrows) {
  SyntheticSpec spec;
  spec.name = "bad";
  spec.samples = 10;
  spec.features = 4;
  spec.classes = 1;  // needs >= 2
  EXPECT_THROW(generate_synthetic(spec), Error);
}

TEST(SyntheticTest, ClassesAreSeparableInFeatureSpace) {
  // Same-class samples must be closer (on average) than cross-class ones —
  // otherwise every accuracy experiment downstream is meaningless.
  const Dataset ds = generate_synthetic(paper_dataset("PAMAP2"), 400);
  double intra = 0.0;
  double inter = 0.0;
  int intra_n = 0;
  int inter_n = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = i + 1; j < 100; ++j) {
      double dist = 0.0;
      for (std::size_t f = 0; f < ds.num_features(); ++f) {
        const double diff = ds.features.at(i, f) - ds.features.at(j, f);
        dist += diff * diff;
      }
      if (ds.labels[i] == ds.labels[j]) {
        intra += dist;
        ++intra_n;
      } else {
        inter += dist;
        ++inter_n;
      }
    }
  }
  ASSERT_GT(intra_n, 0);
  ASSERT_GT(inter_n, 0);
  EXPECT_LT(intra / intra_n, inter / inter_n);
}

// -------------------------------------------- DriftStream edge cases ----

namespace {

StreamConfig small_stream() {
  StreamConfig cfg;
  cfg.spec = paper_dataset("PAMAP2");
  cfg.chunk_size = 16;
  return cfg;
}

}  // namespace

TEST(DriftStreamEdgeTest, ProgressClampsAtStartAndEnd) {
  StreamConfig cfg = small_stream();
  cfg.drift_start_chunk = 3;
  cfg.drift_duration_chunks = 2;
  DriftStream stream(cfg);
  // Progress is evaluated from chunks already emitted: exactly 0 through the
  // drift-start chunk, exactly 1 from completion onward — never outside.
  const double expected[] = {0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0};
  for (const double want : expected) {
    EXPECT_DOUBLE_EQ(stream.drift_progress(), want)
        << "after " << stream.chunks_emitted() << " chunks";
    stream.next_chunk();
  }
}

TEST(DriftStreamEdgeTest, DriftFromChunkZero) {
  StreamConfig cfg = small_stream();
  cfg.drift_start_chunk = 0;
  cfg.drift_duration_chunks = 4;
  DriftStream stream(cfg);
  // The very first chunk is still pre-drift (progress counts *emitted*
  // chunks), then progress ramps linearly.
  EXPECT_DOUBLE_EQ(stream.drift_progress(), 0.0);
  stream.next_chunk();
  EXPECT_DOUBLE_EQ(stream.drift_progress(), 0.25);
  stream.next_chunk();
  EXPECT_DOUBLE_EQ(stream.drift_progress(), 0.5);
}

TEST(DriftStreamEdgeTest, SingleChunkDriftIsAStepFunction) {
  StreamConfig cfg = small_stream();
  cfg.drift_start_chunk = 2;
  cfg.drift_duration_chunks = 1;
  DriftStream stream(cfg);
  stream.next_chunk();
  stream.next_chunk();
  EXPECT_DOUBLE_EQ(stream.drift_progress(), 0.0);  // old concept up to here
  stream.next_chunk();
  EXPECT_DOUBLE_EQ(stream.drift_progress(), 1.0);  // fully drifted immediately
}

TEST(DriftStreamEdgeTest, ZeroDurationRejected) {
  StreamConfig cfg = small_stream();
  cfg.drift_start_chunk = 2;
  cfg.drift_duration_chunks = 0;
  EXPECT_THROW(DriftStream{cfg}, Error);
}

TEST(DriftStreamEdgeTest, ChunkCountAccounting) {
  StreamConfig cfg = small_stream();
  DriftStream stream(cfg);
  EXPECT_EQ(stream.chunks_emitted(), 0U);
  for (std::uint32_t i = 1; i <= 5; ++i) {
    const Dataset chunk = stream.next_chunk();
    EXPECT_EQ(stream.chunks_emitted(), i);
    EXPECT_EQ(chunk.num_samples(), cfg.chunk_size);
    // The chunk name carries the pre-increment index (chunk 0 first).
    EXPECT_NE(chunk.name.find("@chunk" + std::to_string(i - 1)), std::string::npos);
  }
}

TEST(DriftStreamEdgeTest, NeverDriftingStreamStaysAtZero) {
  StreamConfig cfg = small_stream();  // drift_start_chunk = UINT32_MAX
  DriftStream stream(cfg);
  for (int i = 0; i < 8; ++i) {
    stream.next_chunk();
  }
  EXPECT_DOUBLE_EQ(stream.drift_progress(), 0.0);
}

}  // namespace
}  // namespace hdc::data

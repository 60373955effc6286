#include <gtest/gtest.h>

#include "common/byte_io.hpp"
#include "common/error.hpp"
#include <cmath>

#include "core/online.hpp"
#include "core/trainer.hpp"
#include "data/stream.hpp"
#include "tensor/ops.hpp"
#include "data/synthetic.hpp"

namespace hdc::core {
namespace {

data::SyntheticSpec task_spec() {
  data::SyntheticSpec spec = data::paper_dataset("PAMAP2");
  spec.samples = 4000;
  return spec;
}

OnlineConfig small_online() {
  OnlineConfig cfg;
  cfg.dim = 1024;
  cfg.seed = 7;
  return cfg;
}

// --------------------------------------------------------------- stream ----

TEST(DriftStreamTest, ChunksHaveRequestedShape) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 64;
  data::DriftStream stream(cfg);
  const data::Dataset chunk = stream.next_chunk();
  EXPECT_EQ(chunk.num_samples(), 64U);
  EXPECT_EQ(chunk.num_features(), cfg.spec.features);
  EXPECT_EQ(stream.chunks_emitted(), 1U);
}

TEST(DriftStreamTest, NoDriftByDefault) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  data::DriftStream stream(cfg);
  for (int i = 0; i < 5; ++i) {
    stream.next_chunk();
  }
  EXPECT_EQ(stream.drift_progress(), 0.0);
}

TEST(DriftStreamTest, DriftProgressesToCompletion) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.drift_start_chunk = 2;
  cfg.drift_duration_chunks = 4;
  data::DriftStream stream(cfg);
  EXPECT_EQ(stream.drift_progress(), 0.0);
  for (int i = 0; i < 3; ++i) {
    stream.next_chunk();
  }
  EXPECT_GT(stream.drift_progress(), 0.0);
  EXPECT_LT(stream.drift_progress(), 1.0);
  for (int i = 0; i < 5; ++i) {
    stream.next_chunk();
  }
  EXPECT_EQ(stream.drift_progress(), 1.0);
}

TEST(DriftStreamTest, DeterministicForSeed) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  data::DriftStream a(cfg);
  data::DriftStream b(cfg);
  EXPECT_EQ(a.next_chunk().features, b.next_chunk().features);
}

TEST(DriftStreamTest, DriftChangesDistribution) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.drift_start_chunk = 1;
  cfg.drift_duration_chunks = 1;
  cfg.chunk_size = 256;

  data::DriftStream drifting(cfg);
  const data::Dataset before = drifting.next_chunk();
  drifting.next_chunk();  // crosses the drift window
  const data::Dataset after = drifting.next_chunk();

  // Per-class feature means must move substantially across the drift.
  double total_shift = 0.0;
  for (std::uint32_t cls = 0; cls < cfg.spec.classes; ++cls) {
    double shift = 0.0;
    for (std::size_t f = 0; f < 5; ++f) {  // a few features suffice
      double mean_before = 0.0;
      double mean_after = 0.0;
      int n_before = 0;
      int n_after = 0;
      for (std::size_t i = 0; i < before.num_samples(); ++i) {
        if (before.labels[i] == cls) {
          mean_before += before.features.at(i, f);
          ++n_before;
        }
      }
      for (std::size_t i = 0; i < after.num_samples(); ++i) {
        if (after.labels[i] == cls) {
          mean_after += after.features.at(i, f);
          ++n_after;
        }
      }
      if (n_before > 0 && n_after > 0) {
        shift += std::fabs(mean_after / n_after - mean_before / n_before);
      }
    }
    total_shift += shift;
  }
  EXPECT_GT(total_shift, 1.0);
}

TEST(DriftStreamTest, InvalidConfigRejected) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 0;
  EXPECT_THROW(data::DriftStream{cfg}, Error);
}

// --------------------------------------------------------------- online ----

TEST(OnlineLearnerTest, SinglePassLearnsStationaryTask) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 200;
  data::DriftStream stream(cfg);

  OnlineLearner learner(cfg.spec.features, cfg.spec.classes, small_online());
  // Warm up on a few chunks, then check prequential accuracy on the next.
  for (int i = 0; i < 4; ++i) {
    learner.learn_batch(stream.next_chunk());
  }
  const double accuracy = learner.learn_batch(stream.next_chunk());
  EXPECT_GT(accuracy, 0.85);
}

TEST(OnlineLearnerTest, PrequentialStatsTrackErrors) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  data::DriftStream stream(cfg);
  OnlineLearner learner(cfg.spec.features, cfg.spec.classes, small_online());
  learner.learn_batch(stream.next_chunk());
  EXPECT_EQ(learner.stats().samples_seen, cfg.chunk_size);
  EXPECT_GT(learner.stats().errors, 0U);  // the cold model cannot be perfect
  EXPECT_GT(learner.stats().error_rate(), 0.0);
  learner.reset_stats();
  EXPECT_EQ(learner.stats().samples_seen, 0U);
}

TEST(OnlineLearnerTest, AdaptiveUpdateScalesWithConfidence) {
  // After a confident wrong prediction the correction must be larger than
  // after a near-miss: verify through the class-hypervector delta norm.
  OnlineLearner learner(4, 2, OnlineConfig{.dim = 64, .seed = 3});

  std::vector<float> sample{0.5F, -0.2F, 0.8F, 0.1F};
  // Cold model: first learn creates a baseline correction.
  learner.learn(sample, 0);
  const float after_first = tensor::l2_norm(learner.model().class_hypervectors().row(0));

  // Re-learning the same sample now: the model already leans to class 0, so
  // either no update happens (correct) or the correction is smaller.
  learner.learn(sample, 0);
  const float after_second = tensor::l2_norm(learner.model().class_hypervectors().row(0));
  EXPECT_LE(after_second - after_first, after_first);
}

TEST(OnlineLearnerTest, RecoversFromConceptDrift) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 200;
  cfg.drift_start_chunk = 5;
  cfg.drift_duration_chunks = 2;
  data::DriftStream stream(cfg);

  OnlineLearner learner(cfg.spec.features, cfg.spec.classes, small_online());
  for (int i = 0; i < 5; ++i) {
    learner.learn_batch(stream.next_chunk());  // pre-drift
  }
  double during_drift = 1.0;
  for (int i = 0; i < 3; ++i) {
    during_drift = std::min(during_drift, learner.learn_batch(stream.next_chunk()));
  }
  double recovered = 0.0;
  for (int i = 0; i < 6; ++i) {
    recovered = learner.learn_batch(stream.next_chunk());  // post-drift adapt
  }
  EXPECT_GT(recovered, during_drift);
  EXPECT_GT(recovered, 0.8);
}

TEST(WindowedRateTest, TracksLastNOutcomes) {
  WindowedRate rate(4);
  EXPECT_EQ(rate.count(), 0U);
  EXPECT_DOUBLE_EQ(rate.rate(), 0.0);
  rate.add(true);
  rate.add(true);
  EXPECT_DOUBLE_EQ(rate.rate(), 1.0);
  rate.add(false);
  rate.add(false);
  EXPECT_DOUBLE_EQ(rate.rate(), 0.5);
  // Two more false outcomes evict the two oldest true ones.
  rate.add(false);
  rate.add(false);
  EXPECT_DOUBLE_EQ(rate.rate(), 0.0);
  EXPECT_EQ(rate.count(), 4U);
  rate.reset();
  EXPECT_EQ(rate.count(), 0U);
}

TEST(WindowedRateTest, ZeroCapacityRejected) { EXPECT_THROW(WindowedRate{0}, Error); }

TEST(OnlineLearnerTest, WindowedErrorRateReactsToDriftLifetimeSmoothsAway) {
  // The lifetime error rate averages over all history, so after enough
  // stationary samples a drift onset barely moves it — while the windowed
  // rate jumps. This is the signal that makes drift *detectable* online.
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 200;
  cfg.drift_start_chunk = 12;
  cfg.drift_duration_chunks = 1;  // abrupt concept switch
  data::DriftStream stream(cfg);

  OnlineConfig ocfg = small_online();
  // Keep the window short relative to how fast the learner self-corrects:
  // the post-onset error burst only lasts a few dozen samples before the
  // online updates absorb the new concept, and a wide window dilutes it.
  ocfg.error_window = 50;
  OnlineLearner learner(cfg.spec.features, cfg.spec.classes, ocfg);

  for (int i = 0; i < 12; ++i) {
    learner.learn_batch(stream.next_chunk());  // long stationary phase
  }
  const double lifetime_before = learner.stats().error_rate();
  const double windowed_before = learner.stats().windowed_error_rate();

  stream.next_chunk();  // crosses the drift window
  // Walk the first fully-drifted chunk sample by sample and track the *peak*
  // windowed rate: the learner adapts online, so by the end of the chunk the
  // spike has already started to heal — exactly why a lifetime average,
  // which never peaks, cannot serve as a drift signal.
  const data::Dataset drifted = stream.next_chunk();
  double windowed_peak = windowed_before;
  double lifetime_at_peak = lifetime_before;
  for (std::size_t i = 0; i < drifted.num_samples(); ++i) {
    learner.learn(drifted.features.row(i), drifted.labels[i]);
    const double windowed_now = learner.stats().windowed_error_rate();
    if (windowed_now > windowed_peak) {
      windowed_peak = windowed_now;
      lifetime_at_peak = learner.stats().error_rate();
    }
  }
  const double lifetime_jump = lifetime_at_peak - lifetime_before;
  const double windowed_jump = windowed_peak - windowed_before;
  EXPECT_GT(windowed_jump, 0.15) << "windowed rate must spike at drift onset";
  EXPECT_LT(lifetime_jump, windowed_jump / 2.0)
      << "lifetime " << lifetime_before << "->" << lifetime_at_peak << ", windowed "
      << windowed_before << "->" << windowed_peak;
}

TEST(OnlineLearnerTest, WindowedRateSurfacedFromLearnBatch) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 64;
  data::DriftStream stream(cfg);
  OnlineConfig ocfg = small_online();
  ocfg.error_window = 32;
  OnlineLearner learner(cfg.spec.features, cfg.spec.classes, ocfg);
  const double accuracy = learner.learn_batch(stream.next_chunk());
  // learn_batch feeds every prequential outcome through the window; with a
  // 32-sample window over a 64-sample batch, the windowed rate reflects the
  // *second half* while 1 - accuracy covers the whole batch.
  EXPECT_EQ(learner.stats().recent.count(), 32U);
  EXPECT_LE(learner.stats().windowed_error_rate(), 1.0 - accuracy + 1e-9)
      << "a cold learner improves within the batch, so the tail cannot be "
         "worse than the whole";
}

TEST(OnlineLearnerTest, DecideMatchesPredictAndOrdersScores) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  data::DriftStream stream(cfg);
  OnlineLearner learner(cfg.spec.features, cfg.spec.classes, small_online());
  learner.learn_batch(stream.next_chunk());
  const data::Dataset probe = stream.next_chunk();
  for (std::size_t i = 0; i < 32; ++i) {
    const auto decision = learner.decide(probe.features.row(i));
    EXPECT_EQ(decision.predicted, learner.predict(probe.features.row(i)));
    EXPECT_GE(decision.top1, decision.top2);
    EXPECT_GE(decision.margin(), 0.0);
  }
}

TEST(OnlineLearnerTest, FrozenClassifierMatchesPredictions) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  data::DriftStream stream(cfg);
  OnlineLearner learner(cfg.spec.features, cfg.spec.classes, small_online());
  for (int i = 0; i < 3; ++i) {
    learner.learn_batch(stream.next_chunk());
  }

  const TrainedClassifier frozen = learner.freeze();
  const data::Dataset probe = stream.next_chunk();
  for (std::size_t i = 0; i < 32; ++i) {
    const auto encoded = frozen.encoder.encode(probe.features.row(i));
    EXPECT_EQ(frozen.model.predict(encoded, Similarity::kCosine),
              learner.predict(probe.features.row(i)));
  }
}

TEST(OnlineLearnerTest, LabelOutOfRangeThrows) {
  OnlineLearner learner(4, 2, OnlineConfig{.dim = 32});
  std::vector<float> sample(4, 0.5F);
  EXPECT_THROW(learner.learn(sample, 2), Error);
}

std::vector<std::uint8_t> serialized(const OnlineLearner& learner) {
  ByteWriter writer;
  learner.serialize(writer);
  return writer.take();
}

TEST(OnlineLearnerTest, LearnEncodedEqualsLearnByteForByte) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 96;
  data::DriftStream stream(cfg);
  const data::Dataset chunk = stream.next_chunk();
  OnlineLearner from_raw(cfg.spec.features, cfg.spec.classes, small_online());
  OnlineLearner from_encoded(cfg.spec.features, cfg.spec.classes, small_online());
  for (std::size_t i = 0; i < chunk.num_samples(); ++i) {
    const std::uint32_t label = chunk.labels[i];
    const std::uint32_t a = from_raw.learn(chunk.features.row(i), label);
    const std::uint32_t b =
        from_encoded.learn_encoded(from_encoded.encode(chunk.features.row(i)), label);
    ASSERT_EQ(a, b) << "sample " << i;
  }
  EXPECT_EQ(serialized(from_raw), serialized(from_encoded));
}

TEST(OnlineLearnerTest, LearnBatchEqualsPerSampleLoopByteForByte) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 77;  // not a multiple of the kernel's row tile
  data::DriftStream stream(cfg);
  OnlineLearner batched(cfg.spec.features, cfg.spec.classes, small_online());
  OnlineLearner looped(cfg.spec.features, cfg.spec.classes, small_online());
  for (int c = 0; c < 3; ++c) {
    const data::Dataset chunk = stream.next_chunk();
    const double accuracy = batched.learn_batch(chunk);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < chunk.num_samples(); ++i) {
      correct += looped.learn(chunk.features.row(i), chunk.labels[i]) == chunk.labels[i];
    }
    EXPECT_EQ(accuracy,
              static_cast<double>(correct) / static_cast<double>(chunk.num_samples()));
  }
  EXPECT_EQ(serialized(batched), serialized(looped));
}

TEST(OnlineLearnerTest, EmptyBatchRejected) {
  OnlineLearner learner(4, 2, OnlineConfig{.dim = 32});
  data::Dataset empty;
  empty.features = tensor::MatrixF(0, 4);
  empty.num_classes = 2;
  EXPECT_NO_THROW(empty.validate());  // well-formed, just empty
  EXPECT_THROW(learner.learn_batch(empty), Error);
  EXPECT_EQ(learner.stats().samples_seen, 0U);
}

TEST(OnlineLearnerTest, LearnEncodedRejectsWrongWidth) {
  OnlineLearner learner(4, 2, OnlineConfig{.dim = 32});
  const std::vector<float> encoded(31, 0.5F);
  EXPECT_THROW(learner.learn_encoded(encoded, 0), Error);
}

TEST(OnlineLearnerTest, SinglePassCompetitiveWithIteratedTraining) {
  // OnlineHD's core claim: one adaptive pass lands near multi-epoch training.
  const data::Dataset ds = data::generate_synthetic(task_spec(), 1200);
  auto split = data::split_dataset(ds, 0.25, 9);
  data::MinMaxNormalizer norm;
  norm.fit(split.train);
  norm.apply(split.train);
  norm.apply(split.test);

  OnlineConfig ocfg = small_online();
  OnlineLearner learner(static_cast<std::uint32_t>(split.train.num_features()),
                        split.train.num_classes, ocfg);
  learner.learn_batch(split.train);  // exactly one pass
  std::size_t correct = 0;
  for (std::size_t i = 0; i < split.test.num_samples(); ++i) {
    correct += learner.predict(split.test.features.row(i)) == split.test.labels[i];
  }
  const double online_acc =
      static_cast<double>(correct) / static_cast<double>(split.test.num_samples());

  HdConfig tcfg;
  tcfg.dim = ocfg.dim;
  tcfg.epochs = 10;
  tcfg.seed = ocfg.seed;
  Encoder encoder(static_cast<std::uint32_t>(split.train.num_features()), tcfg.dim,
                  tcfg.seed);
  const Trainer trainer(tcfg);
  const TrainResult result = trainer.fit(encoder, split.train);
  const auto iterated_predictions =
      result.model.predict_batch(encoder.encode_batch(split.test.features),
                                 Similarity::kCosine);
  const double iterated_acc = data::accuracy(iterated_predictions, split.test.labels);

  EXPECT_GT(online_acc, iterated_acc - 0.08)
      << "single-pass " << online_acc << " vs iterated " << iterated_acc;
}

}  // namespace
}  // namespace hdc::core

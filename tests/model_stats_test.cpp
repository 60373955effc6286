// Tests for the model-quality monitor (src/obs/model_stats): exact counting
// conservation, windowed confusion eviction, calibration/ECE math, dimension
// discriminability ranking, class-count validation at the model boundary,
// alarm detail + quarantine suppression, and checkpoint round-trip
// byte-identity of every exporter.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/byte_io.hpp"
#include "common/error.hpp"
#include "obs/model_stats.hpp"
#include "tensor/matrix.hpp"

namespace hdc::obs {
namespace {

ModelStatsConfig stats_config(std::uint32_t classes = 3, std::uint32_t dim = 0) {
  ModelStatsConfig cfg;
  cfg.num_classes = classes;
  cfg.dim = dim;
  cfg.window.span = SimDuration::seconds(1.0);
  cfg.window.buckets = 4;
  cfg.min_class_samples = 4;
  return cfg;
}

ModelQualityStats::Sample sample_at(double t_s, std::uint32_t predicted,
                                    std::uint32_t label, double top1 = 0.5) {
  ModelQualityStats::Sample s;
  s.at = SimDuration::seconds(t_s);
  s.predicted = predicted;
  s.label = label;
  s.top1 = top1;
  return s;
}

// --------------------------------------------------------- conservation ----

TEST(ModelQualityStatsTest, ConservationTripleHoldsExactly) {
  ModelQualityStats stats(stats_config());
  // 3 of class 0 (one confused as 1), 2 of class 1, 1 of class 2.
  stats.record(sample_at(0.10, 0, 0));
  stats.record(sample_at(0.11, 0, 0));
  stats.record(sample_at(0.12, 1, 0));
  stats.record(sample_at(0.13, 1, 1));
  stats.record(sample_at(0.14, 1, 1));
  stats.record(sample_at(0.15, 2, 2));

  ModelStatsSnapshot snap = stats.snapshot(SimDuration::seconds(0.2));
  ASSERT_EQ(snap.class_served.size(), 3U);
  EXPECT_EQ(snap.class_served[0], 3U);
  EXPECT_EQ(snap.class_served[1], 2U);
  EXPECT_EQ(snap.class_served[2], 1U);
  // Confusion row sums == class_served, and both sum to samples_total.
  std::uint64_t total = 0;
  for (std::size_t a = 0; a < 3; ++a) {
    std::uint64_t row = 0;
    for (std::size_t b = 0; b < 3; ++b) {
      row += snap.confusion[a * 3 + b];
    }
    EXPECT_EQ(row, snap.class_served[a]) << "row " << a;
    total += row;
  }
  EXPECT_EQ(total, snap.samples_total);
  EXPECT_EQ(snap.samples_total, 6U);
  // Calibration bins partition the same samples.
  std::uint64_t binned = 0;
  for (const auto& bin : snap.calibration) {
    binned += bin.count;
  }
  EXPECT_EQ(binned, snap.samples_total);
  // The window saw everything (no eviction yet) and agrees cell-by-cell.
  EXPECT_EQ(snap.window_samples, 6U);
  EXPECT_EQ(snap.window_confusion, snap.confusion);
}

TEST(ModelQualityStatsTest, WindowEvictsButLifetimeCountsNeverDecrease) {
  ModelQualityStats stats(stats_config());
  for (int i = 0; i < 8; ++i) {
    stats.record(sample_at(0.1 + 0.01 * i, 0, 0));
  }
  ModelStatsSnapshot early = stats.snapshot(SimDuration::seconds(0.2));
  EXPECT_EQ(early.window_samples, 8U);
  // Two spans later the window is empty; the lifetime matrix still holds
  // every sample (conservation is a lifetime property).
  ModelStatsSnapshot late = stats.snapshot(SimDuration::seconds(2.5));
  EXPECT_EQ(late.window_samples, 0U);
  EXPECT_EQ(late.samples_total, 8U);
  EXPECT_EQ(late.confusion[0], 8U);
  EXPECT_DOUBLE_EQ(late.window_accuracy, 0.0);  // empty window renders as 0
}

// ----------------------------------------------------------- calibration ----

TEST(ModelQualityStatsTest, EceMatchesHandComputation) {
  ModelQualityStats stats(stats_config());
  // top1 = 0.2 -> confidence 0.6 (bin 6), correct.
  stats.record(sample_at(0.10, 1, 1, 0.2));
  // top1 = 0.0 -> confidence 0.5 (bin 5), wrong.
  stats.record(sample_at(0.11, 0, 1, 0.0));
  ModelStatsSnapshot snap = stats.snapshot(SimDuration::seconds(0.2));
  EXPECT_EQ(snap.calibration[6].count, 1U);
  EXPECT_EQ(snap.calibration[6].correct, 1U);
  EXPECT_EQ(snap.calibration[5].count, 1U);
  EXPECT_EQ(snap.calibration[5].correct, 0U);
  // ECE = |1 - 0.6| * 1/2 + |0 - 0.5| * 1/2 = 0.45.
  EXPECT_NEAR(snap.ece, 0.45, 1e-12);
}

TEST(ModelQualityStatsTest, ConfidenceClampsToUnitInterval) {
  ModelQualityStats stats(stats_config());
  stats.record(sample_at(0.10, 0, 0, 1.0));   // confidence 1.0 -> last bin
  stats.record(sample_at(0.11, 0, 0, -1.0));  // confidence 0.0 -> first bin
  stats.record(sample_at(0.12, 0, 0, 7.0));   // out of range: clamped to 1
  ModelStatsSnapshot snap = stats.snapshot(SimDuration::seconds(0.2));
  EXPECT_EQ(snap.calibration.front().count, 1U);
  EXPECT_EQ(snap.calibration.back().count, 2U);
}

// ------------------------------------------------------- discriminability ----

TEST(ModelQualityStatsTest, DiscriminabilityRanksUninformativeDimensionsLowest) {
  ModelStatsConfig cfg = stats_config(2, 4);
  cfg.bottom_dims = 2;
  ModelQualityStats stats(cfg);
  // dim 0 separates the classes perfectly, dim 1 separates them weakly,
  // dims 2 and 3 carry pure class-independent noise.
  const float noise[] = {0.9F, -1.1F, 1.0F, -0.8F};
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t label = static_cast<std::uint32_t>(i % 2);
    const float sign = label == 0 ? 1.0F : -1.0F;
    // Index the noise by i/2 so consecutive samples of both classes see the
    // same value — the noise dims are genuinely label-independent.
    const std::vector<float> encoded = {sign, 0.1F * sign + noise[(i / 2) % 4],
                                        noise[(i / 2) % 4], noise[((i / 2) + 1) % 4]};
    stats.record(sample_at(0.1 + 0.01 * i, label, label));
    stats.record_dimensions(SimDuration::seconds(0.1 + 0.01 * i), label, encoded);
  }
  ModelStatsSnapshot snap = stats.snapshot(SimDuration::seconds(0.2));
  EXPECT_EQ(snap.dim_window_samples, 8U);
  ASSERT_EQ(snap.bottom_dims.size(), 2U);
  // The noise dims land at the bottom, the separating dim never does.
  for (const auto& entry : snap.bottom_dims) {
    EXPECT_NE(entry.dim, 0U);
    EXPECT_LT(entry.score, 0.5);
  }
  EXPECT_GT(snap.dim_score_mean, 0.0);
}

TEST(ModelQualityStatsTest, DimensionStatsDisabledWhenDimIsZero) {
  ModelQualityStats stats(stats_config(3, 0));
  const std::vector<float> encoded(16, 1.0F);
  stats.record_dimensions(SimDuration::seconds(0.1), 0, encoded);  // no-op
  ModelStatsSnapshot snap = stats.snapshot(SimDuration::seconds(0.2));
  EXPECT_EQ(snap.dim_window_samples, 0U);
  EXPECT_TRUE(snap.bottom_dims.empty());
}

// -------------------------------------------------- model-boundary checks ----

TEST(ModelQualityStatsTest, ObserveModelRejectsClassCountMismatch) {
  ModelQualityStats stats(stats_config(3, 4));
  tensor::MatrixF wrong_rows(2, 4);
  EXPECT_THROW(stats.observe_model(wrong_rows), Error);
  tensor::MatrixF wrong_cols(3, 8);
  EXPECT_THROW(stats.observe_model(wrong_cols), Error);
  tensor::MatrixF ok(3, 4);
  for (std::size_t r = 0; r < 3; ++r) {
    ok(r, r) = 1.0F;  // orthogonal unit rows
  }
  stats.observe_model(ok);
  ModelStatsSnapshot snap = stats.snapshot(SimDuration::seconds(0.1));
  EXPECT_EQ(snap.model_refreshes, 1U);
  EXPECT_DOUBLE_EQ(snap.norm_min, 1.0);
  EXPECT_DOUBLE_EQ(snap.separation_min, 1.0);  // orthogonal: 1 - cos = 1
}

TEST(ModelQualityStatsTest, RecordRejectsOutOfRangeClasses) {
  ModelQualityStats stats(stats_config(3));
  EXPECT_THROW(stats.record(sample_at(0.1, 3, 0)), Error);
  EXPECT_THROW(stats.record(sample_at(0.1, 0, 3)), Error);
  const std::vector<float> encoded(4, 0.0F);
  ModelQualityStats with_dims(stats_config(3, 4));
  EXPECT_THROW(with_dims.record_dimensions(SimDuration::seconds(0.1), 3, encoded),
               Error);
  const std::vector<float> wrong_width(8, 0.0F);
  EXPECT_THROW(with_dims.record_dimensions(SimDuration::seconds(0.1), 0, wrong_width),
               Error);
}

TEST(ModelQualityStatsTest, InvalidConfigsRejected) {
  ModelStatsConfig cfg = stats_config();
  cfg.num_classes = 0;
  EXPECT_THROW(ModelQualityStats{cfg}, Error);
  cfg = stats_config();
  cfg.calibration_bins = 0;
  EXPECT_THROW(ModelQualityStats{cfg}, Error);
  cfg = stats_config();
  cfg.saturation_band = 0.0;
  EXPECT_THROW(ModelQualityStats{cfg}, Error);
}

// ---------------------------------------------------------------- alarms ----

TEST(ModelQualityStatsTest, ClassErrorAlarmNamesTheCollapsedClass) {
  ModelQualityStats stats(stats_config());
  // Class 1 collapses (all predicted as 2); class 0 stays perfect. Both
  // clear the min_class_samples = 4 guard.
  for (int i = 0; i < 6; ++i) {
    stats.record(sample_at(0.1 + 0.01 * i, 0, 0));
    stats.record(sample_at(0.105 + 0.01 * i, 2, 1));
  }
  EXPECT_TRUE(stats.alarms().firing("class_error"));
  bool saw_fire = false;
  for (const auto& event : stats.alarms().events()) {
    if (event.alarm == "class_error" && event.fired) {
      saw_fire = true;
      EXPECT_EQ(event.detail, "class=1");
    }
  }
  EXPECT_TRUE(saw_fire);
  // The snapshot's alarm state carries the same culprit.
  ModelStatsSnapshot snap = stats.snapshot(SimDuration::seconds(0.2));
  ASSERT_EQ(snap.alarms.size(), 2U);
  EXPECT_EQ(snap.alarms[0].name, "class_error");
  EXPECT_EQ(snap.alarms[0].detail, "class=1");
}

TEST(ModelQualityStatsTest, ConfusionPairAlarmNamesTheDominantPair) {
  ModelStatsConfig cfg = stats_config();
  cfg.alarm_confusion_pair = 0.5;
  ModelQualityStats stats(cfg);
  for (int i = 0; i < 8; ++i) {
    stats.record(sample_at(0.1 + 0.01 * i, 2, 1));  // true 1 -> predicted 2
  }
  EXPECT_TRUE(stats.alarms().firing("confusion_pair"));
  bool saw_fire = false;
  for (const auto& event : stats.alarms().events()) {
    if (event.alarm == "confusion_pair" && event.fired) {
      saw_fire = true;
      EXPECT_EQ(event.detail, "pair=1->2");
    }
  }
  EXPECT_TRUE(saw_fire);
}

TEST(ModelQualityStatsTest, CulpritDetailFollowsTheWindowAcrossAResume) {
  // The culprit strings are re-formatted only when the culprit changes; a
  // restored instance must still clear a culprit the window has dropped.
  ModelQualityStats stats(stats_config());
  for (int i = 0; i < 6; ++i) {
    stats.record(sample_at(0.1 + 0.01 * i, 2, 1));
  }
  ByteWriter writer;
  stats.serialize(writer);
  ByteReader reader(writer.bytes());
  ModelQualityStats restored = ModelQualityStats::deserialize(reader);

  // Far past the 1 s window: one class-0 sample, under min_class_samples,
  // so neither alarm has a culprit.
  const ModelQualityStats::Sample late = sample_at(5.0, 0, 0);
  for (ModelQualityStats* instance : {&stats, &restored}) {
    EXPECT_EQ(instance->snapshot(SimDuration::seconds(0.2)).alarms[0].detail, "class=1");
    instance->record(late);
    const ModelStatsSnapshot snap = instance->snapshot(SimDuration::seconds(5.0));
    EXPECT_EQ(snap.alarms[0].detail, "");
    EXPECT_EQ(snap.alarms[1].detail, "");
  }
}

TEST(ModelQualityStatsTest, QuarantineSuppressesFiresAndReplaysOnRecovery) {
  ModelQualityStats stats(stats_config());
  stats.set_quarantined(true, SimDuration::seconds(0.05));
  for (int i = 0; i < 8; ++i) {
    stats.record(sample_at(0.1 + 0.01 * i, 2, 1));
  }
  EXPECT_TRUE(stats.alarms().firing("confusion_pair"));  // computes silently
  EXPECT_TRUE(stats.alarms().events().empty());
  EXPECT_GE(stats.alarms().suppressed_total(), 1U);
  stats.set_quarantined(false, SimDuration::seconds(0.3));
  ASSERT_FALSE(stats.alarms().events().empty());
  for (const auto& event : stats.alarms().events()) {
    EXPECT_TRUE(event.fired);
    EXPECT_EQ(event.at, SimDuration::seconds(0.3));
  }
}

// ------------------------------------------------- checkpoint round-trip ----

TEST(ModelQualityStatsTest, SerializeRoundTripIsByteIdentical) {
  // Two cuts: a plain one, and one taken mid-quarantine with a fire held in
  // the gate, whose replay on leaving quarantine must survive the trip.
  for (const bool mid_quarantine : {false, true}) {
    SCOPED_TRACE(mid_quarantine ? "mid-quarantine cut" : "plain cut");
    ModelStatsConfig cfg = stats_config(3, 4);
    ModelQualityStats stats(cfg);
    tensor::MatrixF model(3, 4);
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        model(r, c) = static_cast<float>(r) - 0.3F * static_cast<float>(c);
      }
    }
    stats.observe_model(model);
    if (mid_quarantine) {
      stats.set_quarantined(true, SimDuration::seconds(0.05));
    }
    for (int i = 0; i < 12; ++i) {
      const auto label = static_cast<std::uint32_t>(i % 3);
      const auto predicted = static_cast<std::uint32_t>(i % 4 == 0 ? (i + 1) % 3 : label);
      stats.record(sample_at(0.1 + 0.01 * i, predicted, label, 0.1 * (i % 7)));
      const std::vector<float> encoded = {static_cast<float>(label), 1.0F,
                                          0.25F * static_cast<float>(i), -1.0F};
      stats.record_dimensions(SimDuration::seconds(0.1 + 0.01 * i), label, encoded);
    }
    if (mid_quarantine) {
      // True 1 -> predicted 0 until the confusion-pair fire is swallowed.
      for (int i = 0; stats.alarms().suppressed_total() == 0; ++i) {
        ASSERT_LT(i, 16);
        stats.record(sample_at(0.22 + 0.001 * i, 0, 1, 0.4));
      }
      ASSERT_TRUE(stats.alarms().events().empty());
    }

    ByteWriter writer;
    stats.serialize(writer);
    ByteReader reader(writer.bytes());
    ModelQualityStats restored = ModelQualityStats::deserialize(reader);
    EXPECT_TRUE(reader.exhausted());

    // Every exporter is byte-identical at snapshot time...
    const SimDuration now = SimDuration::seconds(0.3);
    ModelStatsSnapshot a = stats.snapshot(now);
    ModelStatsSnapshot b = restored.snapshot(now);
    EXPECT_EQ(a.to_json(), b.to_json());
    EXPECT_EQ(a.metrics_json(), b.metrics_json());
    EXPECT_EQ(a.to_prometheus(), b.to_prometheus());

    // ...and stays identical after both instances keep recording (and, for
    // the quarantined cut, leave quarantine): restore is exact state, not a
    // summary.
    for (int i = 0; i < 6; ++i) {
      const ModelQualityStats::Sample s = sample_at(0.35 + 0.01 * i, 0, 1, 0.4);
      stats.record(s);
      restored.record(s);
    }
    if (mid_quarantine) {
      stats.set_quarantined(false, SimDuration::seconds(0.45));
      restored.set_quarantined(false, SimDuration::seconds(0.45));
      EXPECT_FALSE(stats.alarms().events().empty());  // the held fire replays
    }
    const SimDuration later = SimDuration::seconds(0.5);
    EXPECT_EQ(stats.snapshot(later).to_json(), restored.snapshot(later).to_json());
    EXPECT_EQ(stats.snapshot(later).to_prometheus(),
              restored.snapshot(later).to_prometheus());
    EXPECT_EQ(stats.alarms().events(), restored.alarms().events());
  }
}

}  // namespace
}  // namespace hdc::obs

// Tests for the live serving monitor (src/obs/monitor) and the serving loop
// (src/runtime/serve): windowed percentile convergence, exact bucket-boundary
// eviction in simulated time, edge-triggered alarm semantics, monitor
// result-invariance, the end-to-end drift scenario, and snapshot determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "data/synthetic.hpp"
#include "obs/monitor.hpp"
#include "runtime/framework.hpp"
#include "runtime/serve.hpp"

namespace hdc::obs {
namespace {

WindowConfig window(double span_s, std::size_t buckets = 4) {
  WindowConfig cfg;
  cfg.span = SimDuration::seconds(span_s);
  cfg.buckets = buckets;
  return cfg;
}

// ------------------------------------------------------- sliding windows ----

TEST(SlidingCounterTest, CountsWithinWindow) {
  SlidingCounter counter(window(1.0));
  counter.add(SimDuration::seconds(0.1));
  counter.add(SimDuration::seconds(0.4), 2);
  EXPECT_EQ(counter.sum(SimDuration::seconds(0.5)), 3U);
  EXPECT_DOUBLE_EQ(counter.rate(SimDuration::seconds(0.5)), 3.0);
}

TEST(SlidingCounterTest, EvictionIsExactAtBucketBoundaries) {
  // span 1 s over 4 buckets of 0.25 s. An observation in bucket 0 must still
  // be visible at t = 1 - eps and be gone exactly at t = 1.0, when the
  // cursor enters bucket 4 = 0 + #buckets.
  SlidingCounter counter(window(1.0, 4));
  counter.add(SimDuration::seconds(0.1));
  EXPECT_EQ(counter.sum(SimDuration::seconds(0.75)), 1U);
  EXPECT_EQ(counter.sum(SimDuration::seconds(0.999999)), 1U);
  EXPECT_EQ(counter.sum(SimDuration::seconds(1.0)), 0U);
}

TEST(SlidingCounterTest, LongGapClearsEverything) {
  SlidingCounter counter(window(1.0, 4));
  counter.add(SimDuration::seconds(0.1), 7);
  EXPECT_EQ(counter.sum(SimDuration::seconds(500.0)), 0U);
}

TEST(SlidingMeanTest, WindowedMeanTracksRecentValues) {
  SlidingMean mean(window(1.0, 4));
  mean.add(SimDuration::seconds(0.1), 10.0);
  mean.add(SimDuration::seconds(0.3), 20.0);
  EXPECT_DOUBLE_EQ(mean.mean(SimDuration::seconds(0.5)), 15.0);
  EXPECT_EQ(mean.count(SimDuration::seconds(0.5)), 2U);
  // After the first bucket expires only the 20.0 observation remains.
  mean.add(SimDuration::seconds(1.1), 40.0);
  EXPECT_DOUBLE_EQ(mean.mean(SimDuration::seconds(1.2)), 30.0);
  EXPECT_DOUBLE_EQ(mean.mean(SimDuration::seconds(50.0)), 0.0);
}

TEST(SlidingHistogramTest, PercentilesConvergeOnStaticDistribution) {
  // A uniform latency distribution over [1 ms, 2 ms): the exact q-quantile is
  // 1 ms + q * 1 ms. The log-linear bins are ~15% wide, so with in-bin
  // interpolation the windowed estimate must land within 8% of exact.
  SlidingHistogram hist(window(1.0, 8));
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const double latency_s = 0.001 + 0.001 * (static_cast<double>(i) + 0.5) / n;
    hist.observe(SimDuration::seconds(0.4), SimDuration::seconds(latency_s));
  }
  const SimDuration now = SimDuration::seconds(0.5);
  EXPECT_EQ(hist.count(now), static_cast<std::uint64_t>(n));
  for (const double q : {0.50, 0.95, 0.99}) {
    const double exact = 0.001 + q * 0.001;
    const double got = hist.quantile(now, q).to_seconds();
    EXPECT_NEAR(got, exact, 0.08 * exact) << "q=" << q;
  }
  // Quantiles are clamped to the observed window extremes and ordered.
  EXPECT_GE(hist.quantile(now, 0.0).to_seconds(), 0.001);
  EXPECT_LE(hist.quantile(now, 1.0).to_seconds(), 0.002);
  EXPECT_LE(hist.quantile(now, 0.5).to_seconds(), hist.quantile(now, 0.95).to_seconds());
  EXPECT_LE(hist.quantile(now, 0.95).to_seconds(), hist.quantile(now, 0.99).to_seconds());
}

TEST(SlidingHistogramTest, WindowEvictionDropsOldLatencies) {
  SlidingHistogram hist(window(1.0, 4));
  // Slow samples early, fast samples late: once the slow bucket expires the
  // p99 must collapse to the fast population.
  for (int i = 0; i < 100; ++i) {
    hist.observe(SimDuration::seconds(0.1), SimDuration::millis(50));
  }
  for (int i = 0; i < 100; ++i) {
    hist.observe(SimDuration::seconds(0.8), SimDuration::micros(100));
  }
  EXPECT_GT(hist.quantile(SimDuration::seconds(0.9), 0.99).to_seconds(), 0.01);
  // t = 1.0: bucket 0 (the 50 ms samples) has expired, bucket at 0.8 s lives.
  EXPECT_LT(hist.quantile(SimDuration::seconds(1.0), 0.99).to_seconds(), 0.001);
  EXPECT_EQ(hist.count(SimDuration::seconds(1.0)), 100U);
}

TEST(SlidingHistogramTest, EmptyWindowIsZero) {
  SlidingHistogram hist(window(1.0));
  EXPECT_EQ(hist.count(SimDuration::seconds(5.0)), 0U);
  EXPECT_EQ(hist.quantile(SimDuration::seconds(5.0), 0.99).to_seconds(), 0.0);
  EXPECT_EQ(hist.mean(SimDuration::seconds(5.0)).to_seconds(), 0.0);
}

TEST(EwmaTest, DecaysTowardNewValuesOverTime) {
  Ewma ewma(1.0);  // tau = 1 s
  EXPECT_TRUE(ewma.empty());
  ewma.observe(SimDuration::seconds(0.0), 10.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 10.0);  // first observation seeds
  ewma.observe(SimDuration::seconds(1.0), 0.0);
  // alpha = 1 - exp(-1) ~ 0.632 -> value ~ 3.68
  EXPECT_NEAR(ewma.value(), 10.0 * std::exp(-1.0), 1e-9);
  // A long gap makes the next observation dominate.
  ewma.observe(SimDuration::seconds(100.0), 7.0);
  EXPECT_NEAR(ewma.value(), 7.0, 1e-9);
}

// ----------------------------------------------------------------- alarms ----

TEST(ThresholdAlarmTest, EdgeTriggeredFireAndClear) {
  ThresholdAlarm alarm("test", 0.5);
  EXPECT_FALSE(alarm.update(SimDuration::seconds(1), 0.4).has_value());
  // Crossing fires exactly once...
  const auto fire = alarm.update(SimDuration::seconds(2), 0.6);
  ASSERT_TRUE(fire.has_value());
  EXPECT_TRUE(fire->fired);
  EXPECT_EQ(fire->alarm, "test");
  EXPECT_DOUBLE_EQ(fire->value, 0.6);
  // ...and stays silent while the condition holds, even if it worsens.
  EXPECT_FALSE(alarm.update(SimDuration::seconds(3), 0.7).has_value());
  EXPECT_FALSE(alarm.update(SimDuration::seconds(4), 0.9).has_value());
  EXPECT_TRUE(alarm.firing());
  // Recovery clears exactly once.
  const auto clear = alarm.update(SimDuration::seconds(5), 0.5);
  ASSERT_TRUE(clear.has_value());
  EXPECT_FALSE(clear->fired);
  EXPECT_FALSE(alarm.update(SimDuration::seconds(6), 0.1).has_value());
  // A second crossing fires again: one event per crossing, never per sample.
  EXPECT_TRUE(alarm.update(SimDuration::seconds(7), 0.8).has_value());
  EXPECT_EQ(alarm.fired_total(), 2U);
}

// --------------------------------------------------------- ServingMonitor ----

MonitorConfig monitor_config() {
  MonitorConfig cfg;
  cfg.num_classes = 3;
  cfg.window = window(1.0, 8);
  cfg.slo_latency = SimDuration::millis(1);
  cfg.min_samples = 4;
  return cfg;
}

ServingMonitor::Sample sample_at(double t_s, std::uint32_t predicted, bool correct,
                                 double latency_s = 0.0005, double margin = 0.5) {
  ServingMonitor::Sample s;
  s.at = SimDuration::seconds(t_s);
  s.latency = SimDuration::seconds(latency_s);
  s.predicted = predicted;
  s.correct = correct;
  s.margin = margin;
  return s;
}

TEST(ServingMonitorTest, TracksAccuracyAndClassCounts) {
  ServingMonitor monitor(monitor_config());
  for (int i = 0; i < 8; ++i) {
    monitor.record(sample_at(0.1 + 0.01 * i, static_cast<std::uint32_t>(i % 2), i < 6));
  }
  const SimDuration now = SimDuration::seconds(0.2);
  EXPECT_EQ(monitor.window_samples(now), 8U);
  EXPECT_DOUBLE_EQ(monitor.windowed_accuracy(now), 0.75);
  EXPECT_DOUBLE_EQ(monitor.windowed_error_rate(now), 0.25);
  MonitorSnapshot snap = monitor.snapshot(now);
  EXPECT_EQ(snap.samples_total, 8U);
  EXPECT_EQ(snap.class_counts.size(), 3U);
  EXPECT_EQ(snap.class_counts[0], 4U);
  EXPECT_EQ(snap.class_counts[1], 4U);
  EXPECT_EQ(snap.class_counts[2], 0U);
}

TEST(ServingMonitorTest, SloBurnRateFromViolationFraction) {
  MonitorConfig cfg = monitor_config();
  cfg.slo_error_budget = 0.1;
  ServingMonitor monitor(cfg);
  // 2 of 10 samples over the 1 ms SLO -> violation fraction 0.2, burn 2.0.
  for (int i = 0; i < 10; ++i) {
    monitor.record(sample_at(0.1 + 0.01 * i, 0, true, i < 2 ? 0.002 : 0.0005));
  }
  const SimDuration now = SimDuration::seconds(0.2);
  EXPECT_DOUBLE_EQ(monitor.slo_violation_fraction(now), 0.2);
  EXPECT_DOUBLE_EQ(monitor.slo_burn_rate(now), 2.0);
}

TEST(ServingMonitorTest, ErrorAlarmRespectsMinSamplesGuard) {
  MonitorConfig cfg = monitor_config();
  cfg.min_samples = 16;
  ServingMonitor monitor(cfg);
  // 8 straight errors: enough to trip the 50% threshold, but below the
  // warm-up guard, so the alarm must hold its fire.
  for (int i = 0; i < 8; ++i) {
    monitor.record(sample_at(0.1 + 0.01 * i, 0, false));
  }
  EXPECT_FALSE(monitor.alarms().firing("error_rate"));
  for (int i = 8; i < 16; ++i) {
    monitor.record(sample_at(0.1 + 0.01 * i, 0, false));
  }
  EXPECT_TRUE(monitor.alarms().firing("error_rate"));
  EXPECT_EQ(monitor.alarms().fired_total("error_rate"), 1U);
}

TEST(ServingMonitorTest, FallbackAlarmTracksTransportHealth) {
  MonitorConfig cfg = monitor_config();
  cfg.alarm_fallback_rate = 0.25;
  cfg.min_samples = 4;
  ServingMonitor monitor(cfg);
  monitor.record_transport(SimDuration::seconds(0.1), 8, 0, 0);
  EXPECT_FALSE(monitor.alarms().firing("fallback_rate"));
  monitor.record_transport(SimDuration::seconds(0.2), 8, 8, 3);
  EXPECT_TRUE(monitor.alarms().firing("fallback_rate"));
  EXPECT_DOUBLE_EQ(monitor.fallback_rate(SimDuration::seconds(0.2)), 0.5);
}

TEST(ServingMonitorTest, MarginCollapseRaisesDriftScore) {
  MonitorConfig cfg = monitor_config();
  cfg.ewma_tau_short_s = 0.05;
  cfg.ewma_tau_long_s = 10.0;  // reference barely moves within the test
  ServingMonitor monitor(cfg);
  for (int i = 0; i < 50; ++i) {
    monitor.record(sample_at(0.01 * i, 0, true, 0.0005, 0.6));
  }
  EXPECT_LT(monitor.drift_score(), 0.05);
  // Margins collapse: the short EWMA follows, the slow reference does not.
  for (int i = 50; i < 100; ++i) {
    monitor.record(sample_at(0.01 * i, 0, true, 0.0005, 0.06));
  }
  EXPECT_GT(monitor.drift_score(), 0.5);
  EXPECT_TRUE(monitor.alarms().firing("drift"));
}

TEST(ServingMonitorTest, SnapshotJsonIsWellFormedAndStable) {
  ServingMonitor monitor(monitor_config());
  for (int i = 0; i < 8; ++i) {
    monitor.record(sample_at(0.1 + 0.01 * i, 0, true));
  }
  MonitorSnapshot snap = monitor.snapshot(SimDuration::seconds(0.2));
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"schema\":\"hdc-monitor-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"lifetime\":"), std::string::npos);
  EXPECT_NE(json.find("\"window.accuracy\":{\"value\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"alarms\":"), std::string::npos);
  EXPECT_EQ(json, snap.to_json());  // rendering is a pure function

  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("hdc_serve_samples_total 8"), std::string::npos);
  EXPECT_NE(prom.find("hdc_serve_window_accuracy 1"), std::string::npos);
  EXPECT_NE(prom.find("hdc_serve_alarm_firing{alarm=\"drift\"} 0"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE hdc_serve_samples_total counter"), std::string::npos);
}

TEST(ServingMonitorTest, ModelSpliceRendersIntoEveryExporter) {
  ServingMonitor monitor(monitor_config());
  for (int i = 0; i < 4; ++i) {
    monitor.record(sample_at(0.1 + 0.01 * i, 0, true));
  }
  MonitorSnapshot snap = monitor.snapshot(SimDuration::seconds(0.2));

  // Without an attached model-quality monitor there is no model section.
  EXPECT_EQ(snap.to_json().find("\"model\""), std::string::npos);

  // The owning serve loop pre-renders the three splice strings; the snapshot
  // places them verbatim: the model object before the flat metrics map, the
  // gate entries inside it, the hdc_model_* families after hdc_serve_*.
  snap.model_json = "{\"samples\":4}";
  snap.model_metrics_json =
      ",\"model.accuracy\":{\"value\":1,\"unit\":\"fraction\",\"kind\":\"sim\","
      "\"better\":\"higher\"}";
  snap.model_prometheus = "# TYPE hdc_model_samples_total counter\n"
                          "hdc_model_samples_total 4\n";
  const std::string json = snap.to_json();
  const std::size_t model_pos = json.find("\"model\":{\"samples\":4}");
  const std::size_t metrics_pos = json.find("\"metrics\":");
  ASSERT_NE(model_pos, std::string::npos);
  ASSERT_NE(metrics_pos, std::string::npos);
  EXPECT_LT(model_pos, metrics_pos);
  const std::size_t gate_pos = json.find("\"model.accuracy\":{\"value\":1,");
  ASSERT_NE(gate_pos, std::string::npos);
  EXPECT_GT(gate_pos, metrics_pos);  // spliced inside the metrics map

  const std::string prom = snap.to_prometheus();
  const std::size_t serve_pos = prom.find("hdc_serve_samples_total");
  const std::size_t model_fam_pos = prom.find("hdc_model_samples_total 4");
  ASSERT_NE(serve_pos, std::string::npos);
  ASSERT_NE(model_fam_pos, std::string::npos);
  EXPECT_LT(serve_pos, model_fam_pos);
  // The windowed per-class prediction family predates the model splice and
  // keeps exporting alongside it.
  EXPECT_NE(prom.find("hdc_serve_class_predictions{class=\"0\"} 4"), std::string::npos);
}

TEST(ServingMonitorTest, AttributionAggregatesIntoSnapshotAndExporters) {
  ServingMonitor monitor(monitor_config());
  obs::RequestAttribution attribution;
  attribution[obs::Stage::kQueueWait] = SimDuration::millis(1);
  attribution[obs::Stage::kDevice] = SimDuration::millis(2);
  attribution[obs::Stage::kHost] = SimDuration::millis(1);
  for (int i = 0; i < 4; ++i) {
    ServingMonitor::Sample s = sample_at(0.1 + 0.01 * i, 0, true);
    s.request_id = i;
    monitor.record(s);
    monitor.record_attribution(s.at, attribution);
  }

  const SimDuration now = SimDuration::seconds(0.2);
  MonitorSnapshot snap = monitor.snapshot(now);
  EXPECT_DOUBLE_EQ(snap.attribution_total_s, 4 * 0.004);
  EXPECT_DOUBLE_EQ(
      snap.attribution_fractions[static_cast<std::size_t>(obs::Stage::kQueueWait)], 0.25);
  EXPECT_DOUBLE_EQ(
      snap.attribution_fractions[static_cast<std::size_t>(obs::Stage::kDevice)], 0.5);
  EXPECT_DOUBLE_EQ(
      snap.attribution_fractions[static_cast<std::size_t>(obs::Stage::kHost)], 0.25);
  double fraction_sum = 0.0;
  for (const double fraction : snap.attribution_fractions) {
    fraction_sum += fraction;
  }
  EXPECT_DOUBLE_EQ(fraction_sum, 1.0);

  // All four samples share one latency, so "slowest in window" is the
  // earliest recorded — a deterministic tie-break the exemplar id inherits.
  EXPECT_EQ(snap.exemplar_request_id, monitor.slowest_request_id(now));
  EXPECT_GE(snap.exemplar_request_id, 0);

  // Both exporters carry the attribution waterfall and the exemplar id.
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"attribution\""), std::string::npos);
  EXPECT_NE(json.find("\"attribution.queue_wait_fraction\""), std::string::npos);
  EXPECT_NE(json.find("\"exemplar_request_id\""), std::string::npos);
  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("hdc_serve_attribution_fraction{stage=\"device\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("hdc_serve_exemplar_request_id"), std::string::npos);
}

TEST(ServingMonitorTest, AlarmEdgesCarryTheSlowestRequestAsExemplar) {
  MonitorConfig cfg = monitor_config();
  cfg.slo_error_budget = 0.1;
  ServingMonitor monitor(cfg);
  // Samples 5..7 blow the SLO (3/8 over a 10% budget = burn 3.75, past the
  // 2.0 alarm threshold) with sample 6 the slowest; the latency alarm's edge
  // must point at it so the operator can pull its full span chain.
  for (int i = 0; i < 8; ++i) {
    double latency_s = 0.0005;
    if (i == 5) latency_s = 0.002;
    if (i == 6) latency_s = 0.004;
    if (i == 7) latency_s = 0.003;
    ServingMonitor::Sample s = sample_at(0.1 + 0.01 * i, 0, true, latency_s);
    s.request_id = 100 + i;
    monitor.record(s);
  }
  ASSERT_TRUE(monitor.alarms().firing("latency_slo"));
  bool saw_fire = false;
  for (const auto& event : monitor.alarms().events()) {
    if (event.alarm == "latency_slo" && event.fired) {
      saw_fire = true;
      EXPECT_EQ(event.exemplar_request_id, 106);
    }
  }
  EXPECT_TRUE(saw_fire);
}

TEST(ServingMonitorTest, ShedRateAlarmFiresOnAdmissionShedding) {
  MonitorConfig cfg = monitor_config();
  cfg.alarm_shed_rate = 0.5;
  ServingMonitor monitor(cfg);
  monitor.record_admission(SimDuration::seconds(0.1), 8, 0, 0, 0);
  EXPECT_FALSE(monitor.alarms().firing("shed_rate"));
  // 8 of the next 8 offered samples are shed: windowed shed rate 0.5.
  monitor.record_admission(SimDuration::seconds(0.2), 8, 6, 2, 0);
  EXPECT_DOUBLE_EQ(monitor.shed_rate(SimDuration::seconds(0.2)), 0.5);
  monitor.record_admission(SimDuration::seconds(0.3), 8, 8, 0, 0);
  EXPECT_TRUE(monitor.alarms().firing("shed_rate"));
  MonitorSnapshot snap = monitor.snapshot(SimDuration::seconds(0.3));
  EXPECT_EQ(snap.shed_total, 14U);
  EXPECT_EQ(snap.expired_total, 2U);
  EXPECT_EQ(snap.offered_samples, 24U);
}

TEST(ServingMonitorTest, DegradedFractionTracksLadderTiers) {
  // The serving loop reports each batch twice: transport health (the served
  // denominator) and its admission/ladder outcome.
  ServingMonitor monitor(monitor_config());
  monitor.record_transport(SimDuration::seconds(0.1), 8, 0, 0);
  monitor.record_admission(SimDuration::seconds(0.1), 8, 0, 0, 8);
  monitor.record_transport(SimDuration::seconds(0.2), 8, 0, 0);
  monitor.record_admission(SimDuration::seconds(0.2), 8, 0, 0, 0);
  // 8 of 16 served samples ran on a degraded tier.
  EXPECT_DOUBLE_EQ(monitor.degraded_fraction(SimDuration::seconds(0.2)), 0.5);
  MonitorSnapshot snap = monitor.snapshot(SimDuration::seconds(0.2));
  EXPECT_EQ(snap.degraded_total, 8U);
}

TEST(ServingMonitorTest, QuarantineSuppressesFiresAndReplaysOnRecovery) {
  ServingMonitor monitor(monitor_config());
  monitor.set_quarantined(true, SimDuration::seconds(0.05));
  ASSERT_TRUE(monitor.alarms().quarantined());
  // 8 straight errors trip the error-rate alarm, but the device is
  // quarantined: the fire edge is swallowed (counted, not emitted).
  for (int i = 0; i < 8; ++i) {
    monitor.record(sample_at(0.1 + 0.01 * i, 0, false));
  }
  EXPECT_TRUE(monitor.alarms().firing("error_rate"));  // the alarm still computes
  EXPECT_TRUE(monitor.alarms().events().empty());      // ...but stays silent
  EXPECT_EQ(monitor.alarms().suppressed_total(), 1U);

  // Leaving quarantine re-emits the still-firing alarm, stamped at recovery.
  monitor.set_quarantined(false, SimDuration::seconds(0.3));
  ASSERT_EQ(monitor.alarms().events().size(), 1U);
  EXPECT_EQ(monitor.alarms().events()[0].alarm, "error_rate");
  EXPECT_TRUE(monitor.alarms().events()[0].fired);
  EXPECT_EQ(monitor.alarms().events()[0].at, SimDuration::seconds(0.3));
}

TEST(ServingMonitorTest, FireAndClearInsideQuarantineNetsToSilence) {
  ServingMonitor monitor(monitor_config());
  monitor.set_quarantined(true, SimDuration::seconds(0.05));
  for (int i = 0; i < 8; ++i) {
    monitor.record(sample_at(0.1 + 0.01 * i, 0, false));  // fire (suppressed)
  }
  for (int i = 0; i < 24; ++i) {
    monitor.record(sample_at(0.2 + 0.01 * i, 0, true));  // recovers: clear
  }
  EXPECT_FALSE(monitor.alarms().firing("error_rate"));
  monitor.set_quarantined(false, SimDuration::seconds(0.6));
  // The whole episode happened inside the quarantine: net silence, though
  // the suppression itself is still accounted.
  EXPECT_TRUE(monitor.alarms().events().empty());
  EXPECT_EQ(monitor.alarms().suppressed_total(), 1U);
}

TEST(ServingMonitorTest, ClearOfPreQuarantineFireIsEmittedExactly) {
  ServingMonitor monitor(monitor_config());
  for (int i = 0; i < 8; ++i) {
    monitor.record(sample_at(0.1 + 0.01 * i, 0, false));
  }
  ASSERT_EQ(monitor.alarms().events().size(), 1U);  // fire emitted before quarantine

  monitor.set_quarantined(true, SimDuration::seconds(0.19));
  for (int i = 0; i < 24; ++i) {
    monitor.record(sample_at(0.2 + 0.01 * i, 0, true));
  }
  // The matching fire predates the quarantine, so its clear stays exact —
  // operators must see the recovery of an alarm they saw fire.
  ASSERT_EQ(monitor.alarms().events().size(), 2U);
  EXPECT_EQ(monitor.alarms().events()[1].alarm, "error_rate");
  EXPECT_FALSE(monitor.alarms().events()[1].fired);
  monitor.set_quarantined(false, SimDuration::seconds(0.6));
  EXPECT_EQ(monitor.alarms().events().size(), 2U);  // nothing to replay
  EXPECT_EQ(monitor.alarms().suppressed_total(), 0U);
}

TEST(ServingMonitorTest, SerializeRoundTripMidQuarantineIsByteIdentical) {
  ServingMonitor monitor(monitor_config());
  // A fallback fire emitted before the quarantine...
  monitor.record_transport(SimDuration::seconds(0.02), 8, 8, 2);
  ASSERT_EQ(monitor.alarms().events().size(), 1U);
  // ...then an error-rate fire held in the gate by it.
  monitor.set_quarantined(true, SimDuration::seconds(0.05));
  for (int i = 0; monitor.alarms().suppressed_total() == 0; ++i) {
    ASSERT_LT(i, 16);
    ServingMonitor::Sample s =
        sample_at(0.1 + 0.01 * i, static_cast<std::uint32_t>(i % 3), false);
    s.request_id = i;
    monitor.record(s);
  }

  ByteWriter writer;
  monitor.serialize(writer);
  ByteReader reader(writer.bytes());
  ServingMonitor restored = ServingMonitor::deserialize(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(monitor.snapshot(SimDuration::seconds(0.2)).to_json(),
            restored.snapshot(SimDuration::seconds(0.2)).to_json());

  // Both keep recording, then leave quarantine: the held fire replays on
  // each, and every exporter and the event history stay byte-identical.
  for (int i = 0; i < 4; ++i) {
    const ServingMonitor::Sample s = sample_at(0.25 + 0.01 * i, 1, false);
    monitor.record(s);
    restored.record(s);
  }
  monitor.set_quarantined(false, SimDuration::seconds(0.3));
  restored.set_quarantined(false, SimDuration::seconds(0.3));
  EXPECT_EQ(monitor.alarms().events().size(), 2U);
  const SimDuration later = SimDuration::seconds(0.35);
  EXPECT_EQ(monitor.snapshot(later).to_json(), restored.snapshot(later).to_json());
  EXPECT_EQ(monitor.snapshot(later).to_prometheus(),
            restored.snapshot(later).to_prometheus());
  EXPECT_EQ(monitor.alarms().events(), restored.alarms().events());
}

TEST(ServingMonitorTest, InvalidConfigsRejected) {
  MonitorConfig cfg = monitor_config();
  cfg.num_classes = 0;
  EXPECT_THROW(ServingMonitor{cfg}, Error);
  cfg = monitor_config();
  cfg.window.span = SimDuration();
  EXPECT_THROW(ServingMonitor{cfg}, Error);
  cfg = monitor_config();
  cfg.slo_error_budget = 0.0;
  EXPECT_THROW(ServingMonitor{cfg}, Error);
  ServingMonitor ok(monitor_config());
  EXPECT_THROW(ok.record(sample_at(0.1, 3, true)), Error);  // class out of range
}

}  // namespace
}  // namespace hdc::obs

// ------------------------------------------------------------ serve loop ----

namespace hdc::runtime {
namespace {

namespace fs = std::filesystem;

ServeConfig serve_config() {
  ServeConfig config;
  config.stream.spec = data::paper_dataset("PAMAP2");
  config.stream.spec.seed = 0x5E44E;
  config.stream.chunk_size = 48;
  config.learner.dim = 256;
  config.learner.seed = 11;
  config.warmup_chunks = 2;
  config.serve_chunks = 6;
  return config;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ServeTest, ServesAllChunksWithSaneTelemetry) {
  const CoDesignFramework framework;
  const ServeResult result = serve(framework, serve_config());
  EXPECT_EQ(result.predictions.size(), 6U * 48U);
  EXPECT_EQ(result.samples_served, 6U * 48U);
  EXPECT_EQ(result.chunks.size(), 6U);
  EXPECT_GT(result.lifetime_accuracy, 0.6);  // warm learner on a stationary task
  EXPECT_GT(result.t_end, SimDuration());
  // Chunk clocks are strictly increasing.
  for (std::size_t i = 1; i < result.chunks.size(); ++i) {
    EXPECT_GT(result.chunks[i].t_end, result.chunks[i - 1].t_end);
  }
  const auto& snap = result.final_snapshot;
  EXPECT_EQ(snap.samples_total, result.samples_served);
  EXPECT_GT(snap.latency_p50_s, 0.0);
  EXPECT_EQ(snap.alarms.size(), 5U);  // + shed_rate since admission control
}

TEST(ServeTest, MonitorConfigurationCannotChangeResults) {
  // Result-invariance (the serving analog of --profile): window sizing,
  // alarm thresholds and exporters are strictly observational, so any
  // monitor configuration must reproduce identical predictions and clocks.
  const CoDesignFramework framework;
  const ServeResult base = serve(framework, serve_config());

  ServeConfig tweaked = serve_config();
  tweaked.monitor.window.span = SimDuration::millis(7);
  tweaked.monitor.window.buckets = 3;
  tweaked.monitor.slo_latency = SimDuration::nanos(1);  // everything violates
  tweaked.monitor.alarm_drift_score = 0.0001;           // alarms fire constantly
  tweaked.monitor.alarm_error_rate = 0.0001;
  tweaked.monitor.min_samples = 1;
  const fs::path dir = fs::temp_directory_path() / "hdc_serve_invariance";
  fs::create_directories(dir);
  tweaked.snapshot_dir = dir.string();
  tweaked.snapshot_every_chunks = 1;
  tweaked.prometheus_path = (dir / "prom.txt").string();
  const ServeResult noisy = serve(framework, tweaked);
  fs::remove_all(dir);

  EXPECT_EQ(base.predictions, noisy.predictions);
  EXPECT_EQ(base.t_end, noisy.t_end);
  ASSERT_EQ(base.chunks.size(), noisy.chunks.size());
  for (std::size_t i = 0; i < base.chunks.size(); ++i) {
    EXPECT_EQ(base.chunks[i].t_end, noisy.chunks[i].t_end) << "chunk " << i;
    EXPECT_DOUBLE_EQ(base.chunks[i].chunk_accuracy, noisy.chunks[i].chunk_accuracy);
  }
  // The tweaked monitor *observed* differently (that's its job)...
  EXPECT_GT(noisy.events.size(), base.events.size());
  // ...but lifetime facts agree exactly.
  EXPECT_EQ(base.final_snapshot.samples_total, noisy.final_snapshot.samples_total);
  EXPECT_EQ(base.final_snapshot.errors_total, noisy.final_snapshot.errors_total);
}

ServeConfig drift_config(bool online) {
  ServeConfig config = serve_config();
  config.serve_chunks = 12;
  // Stream chunk counting includes the 2 warmup chunks: drift begins at
  // served chunk 2 and completes by served chunk 4.
  config.stream.drift_start_chunk = 4;
  config.stream.drift_duration_chunks = 2;
  config.online_updates = online;
  config.model_refresh_chunks = 2;
  // Pin the margin EWMAs explicitly: the reference tau spans the whole run
  // (so it holds the pre-drift margin level) while the short tau tracks
  // roughly ten samples. With these the drift score cleanly separates the
  // stationary regime from the collapsed one at a 0.5 threshold.
  config.monitor.ewma_tau_short_s = 0.005;
  config.monitor.ewma_tau_long_s = 100.0;
  config.monitor.alarm_drift_score = 0.5;
  config.monitor.min_samples = 16;
  return config;
}

TEST(ServeTest, DriftScenarioRaisesAlarmAndOnlineUpdatesRecover) {
  const CoDesignFramework framework;
  const ServeResult frozen = serve(framework, drift_config(false));
  const ServeResult adaptive = serve(framework, drift_config(true));

  // The drift alarm fired, and only after the drift actually began (no
  // false positive while the concept was stationary).
  EXPECT_GE(frozen.final_snapshot.alarms[3].fired_total, 1U);
  const SimDuration drift_begins = frozen.chunks[2].t_end - SimDuration::nanos(1);
  bool saw_drift_fire = false;
  for (const auto& event : frozen.events) {
    if (event.alarm == "drift" && event.fired) {
      EXPECT_GT(event.at, drift_begins);
      saw_drift_fire = true;
    }
  }
  EXPECT_TRUE(saw_drift_fire);

  // Without updates the model decays and stays down; with host-side online
  // updates the windowed accuracy recovers after the drift completes.
  const double frozen_end = frozen.chunks.back().windowed_accuracy;
  const double adaptive_end = adaptive.chunks.back().windowed_accuracy;
  EXPECT_GT(adaptive_end, frozen_end + 0.15)
      << "frozen " << frozen_end << " vs adaptive " << adaptive_end;
  EXPECT_GT(adaptive_end, 0.6);
  EXPECT_LT(frozen_end, 0.6);
}

TEST(ServeTest, SnapshotsAreByteIdenticalAcrossRuns) {
  const CoDesignFramework framework;
  const fs::path dir_a = fs::temp_directory_path() / "hdc_serve_det_a";
  const fs::path dir_b = fs::temp_directory_path() / "hdc_serve_det_b";
  ServeConfig config = drift_config(true);
  config.serve_chunks = 5;
  config.snapshot_every_chunks = 2;

  config.snapshot_dir = dir_a.string();
  serve(framework, config);
  config.snapshot_dir = dir_b.string();
  serve(framework, config);

  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir_a)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  // 2 interval snapshots + final + exemplars.jsonl, all byte-identical.
  ASSERT_EQ(names.size(), 4U);
  EXPECT_NE(std::find(names.begin(), names.end(), "exemplars.jsonl"), names.end());
  for (const auto& name : names) {
    const std::string a = read_file(dir_a / name);
    const std::string b = read_file(dir_b / name);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << name << " differs across identical runs";
  }
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

TEST(ServeTest, ModelQualityTelemetryRidesTheServeLoop) {
  const CoDesignFramework framework;
  const ServeResult result = serve(framework, serve_config());
  const obs::ModelStatsSnapshot& model = result.final_model;

  // Conservation triple on the lifetime counts: every confusion row sums to
  // its class's served count, and the served counts sum to the sample total,
  // which equals the serve loop's own served-sample accumulator exactly.
  ASSERT_EQ(model.num_classes, 5U);  // PAMAP2
  EXPECT_EQ(model.samples_total, result.samples_served);
  std::uint64_t served_sum = 0;
  for (std::uint32_t r = 0; r < model.num_classes; ++r) {
    std::uint64_t row = 0;
    for (std::uint32_t c = 0; c < model.num_classes; ++c) {
      row += model.confusion[r * model.num_classes + c];
    }
    EXPECT_EQ(row, model.class_served[r]) << "row " << r;
    served_sum += model.class_served[r];
  }
  EXPECT_EQ(served_sum, model.samples_total);
  std::uint64_t bins = 0;
  for (const auto& bin : model.calibration) {
    bins += bin.count;
  }
  EXPECT_EQ(bins, model.samples_total);

  // The deployed classifier was observed (health populated, dim stats live).
  EXPECT_GE(model.model_refreshes, 1U);
  EXPECT_GT(model.norm_min, 0.0);
  EXPECT_GT(model.separation_min, 0.0);
  EXPECT_EQ(model.dim, 256U);
  EXPECT_GT(model.dim_window_samples, 0U);
  EXPECT_FALSE(model.bottom_dims.empty());

  // The splice reached all three exporters of the final snapshot.
  const std::string json = result.final_snapshot.to_json();
  EXPECT_NE(json.find("\"model\":{\"samples\":" +
                      std::to_string(model.samples_total)),
            std::string::npos);
  EXPECT_NE(json.find("\"model.accuracy\":{"), std::string::npos);
  EXPECT_NE(json.find("\"model.ece\":{"), std::string::npos);
  const std::string prom = result.final_snapshot.to_prometheus();
  EXPECT_NE(prom.find("hdc_model_samples_total"), std::string::npos);
  EXPECT_NE(prom.find("hdc_model_class_served_total{class=\"0\"}"), std::string::npos);
  EXPECT_NE(prom.find("hdc_serve_class_predictions{class=\"0\"}"), std::string::npos);

  // Model-quality monitoring is strictly observational: results match the
  // invariance contract checked above, and the monitor itself saw exactly
  // the served samples.
  EXPECT_EQ(result.final_snapshot.samples_total, model.samples_total);
}

TEST(ServeTest, LabelSwapDriftFiresConfusionPairAlarmNamingThePair) {
  const CoDesignFramework framework;
  ServeConfig config = serve_config();
  config.serve_chunks = 14;
  config.stream.drift_start_chunk = 6;  // stream chunks, warmup included
  config.stream.drift_duration_chunks = 2;
  config.stream.drift_swap_a = 1;
  config.stream.drift_swap_b = 3;
  config.model_stats.min_class_samples = 8;
  const ServeResult result = serve(framework, config);

  // The confusion-pair alarm fired and named exactly the swapped pair
  // (either direction — both rows collapse identically).
  bool saw_pair = false;
  for (const auto& event : result.model_events) {
    if (event.alarm != "confusion_pair" || !event.fired) {
      continue;
    }
    saw_pair = true;
    EXPECT_TRUE(event.detail == "pair=1->3" || event.detail == "pair=3->1")
        << event.detail;
  }
  EXPECT_TRUE(saw_pair);

  // The windowed top confusable pair is the swap itself.
  const obs::ModelStatsSnapshot& model = result.final_model;
  ASSERT_FALSE(model.top_pairs.empty());
  const auto& top = model.top_pairs.front();
  const bool is_swap = (top.actual == 1 && top.predicted == 3) ||
                       (top.actual == 3 && top.predicted == 1);
  EXPECT_TRUE(is_swap) << "top pair " << top.actual << "->" << top.predicted;
}

TEST(ServeTest, InvalidConfigsRejected) {
  ServeConfig config = serve_config();
  config.warmup_chunks = 0;
  EXPECT_THROW(config.validate(), Error);
  config = serve_config();
  config.serve_chunks = 0;
  EXPECT_THROW(config.validate(), Error);
  config = serve_config();
  config.stream.chunk_size = 0;
  EXPECT_THROW(config.validate(), Error);
}

}  // namespace
}  // namespace hdc::runtime

// Tests for the overload-protection layer (src/runtime/health) and its
// integration with the serving loop (src/runtime/serve): the device health
// state machine's transition table and half-open probing, admission/health
// config validation, tracker serialization, bounded-latency load shedding
// under sustained overload, the tiered degradation ladder's recovery after
// fault injection, and checkpoint/restore byte-identity.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/byte_io.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/sim_time.hpp"
#include "data/synthetic.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "runtime/framework.hpp"
#include "runtime/health.hpp"
#include "runtime/serve.hpp"

namespace hdc::runtime {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------- health state machine ----

HealthConfig health_config() {
  HealthConfig cfg;
  cfg.degrade_after_faults = 2;
  cfg.quarantine_after_faults = 4;
  cfg.recover_after_successes = 3;
  cfg.probe_interval = SimDuration::millis(2);
  cfg.probe_successes = 2;
  return cfg;
}

SimDuration at_ms(double ms) { return SimDuration::millis(ms); }

TEST(DeviceHealthTest, NamesCoverEveryStateAndTier) {
  EXPECT_STREQ(health_name(DeviceHealth::kHealthy), "healthy");
  EXPECT_STREQ(health_name(DeviceHealth::kDegraded), "degraded");
  EXPECT_STREQ(health_name(DeviceHealth::kQuarantined), "quarantined");
  EXPECT_STREQ(health_name(DeviceHealth::kProbing), "probing");
  EXPECT_STREQ(tier_name(ServeTier::kFull), "full");
  EXPECT_STREQ(tier_name(ServeTier::kReduced), "reduced");
  EXPECT_STREQ(tier_name(ServeTier::kHost), "host");
}

TEST(DeviceHealthTest, FullLifecycleWalksTheLadderAndRecovers) {
  DeviceHealthTracker tracker(health_config());
  EXPECT_EQ(tracker.state(), DeviceHealth::kHealthy);

  // Two consecutive faulty batches degrade; the count carries on toward
  // quarantine (faults 3 and 4 while degraded).
  tracker.on_batch(at_ms(1), true, false);
  EXPECT_EQ(tracker.state(), DeviceHealth::kHealthy);
  tracker.on_batch(at_ms(2), true, false);
  EXPECT_EQ(tracker.state(), DeviceHealth::kDegraded);
  tracker.on_batch(at_ms(3), true, false);
  EXPECT_EQ(tracker.state(), DeviceHealth::kDegraded);
  tracker.on_batch(at_ms(4), true, false);
  EXPECT_EQ(tracker.state(), DeviceHealth::kQuarantined);
  EXPECT_EQ(tracker.quarantines(), 1U);

  // Quarantined: batches route to the host tier until the probe interval
  // elapses, then one half-open probe on the reduced tier.
  EXPECT_EQ(tracker.admit_tier(at_ms(5), 0, 2), ServeTier::kHost);
  EXPECT_EQ(tracker.state(), DeviceHealth::kQuarantined);
  EXPECT_EQ(tracker.admit_tier(at_ms(6.5), 0, 2), ServeTier::kReduced);
  EXPECT_EQ(tracker.state(), DeviceHealth::kProbing);
  EXPECT_EQ(tracker.probes_attempted(), 1U);

  // Two clean probe batches re-admit the device.
  tracker.on_batch(at_ms(7), false, false);
  EXPECT_EQ(tracker.state(), DeviceHealth::kProbing);
  tracker.on_batch(at_ms(8), false, false);
  EXPECT_EQ(tracker.state(), DeviceHealth::kHealthy);

  // The transition log records each edge in order, stamped in simulated time.
  const auto& log = tracker.transitions();
  ASSERT_EQ(log.size(), 4U);
  EXPECT_EQ(log[0].from, DeviceHealth::kHealthy);
  EXPECT_EQ(log[0].to, DeviceHealth::kDegraded);
  EXPECT_EQ(log[0].at, at_ms(2));
  EXPECT_EQ(log[1].to, DeviceHealth::kQuarantined);
  EXPECT_EQ(log[2].to, DeviceHealth::kProbing);
  EXPECT_EQ(log[3].to, DeviceHealth::kHealthy);
  EXPECT_EQ(log[3].at, at_ms(8));
}

TEST(DeviceHealthTest, DegradedRecoversWithoutQuarantine) {
  DeviceHealthTracker tracker(health_config());
  tracker.on_batch(at_ms(1), true, false);
  tracker.on_batch(at_ms(2), true, false);
  ASSERT_EQ(tracker.state(), DeviceHealth::kDegraded);
  // A fault resets the clean streak: recovery needs *consecutive* successes.
  tracker.on_batch(at_ms(3), false, false);
  tracker.on_batch(at_ms(4), false, false);
  tracker.on_batch(at_ms(5), true, false);
  tracker.on_batch(at_ms(6), false, false);
  tracker.on_batch(at_ms(7), false, false);
  EXPECT_EQ(tracker.state(), DeviceHealth::kDegraded);
  tracker.on_batch(at_ms(8), false, false);
  EXPECT_EQ(tracker.state(), DeviceHealth::kHealthy);
  EXPECT_EQ(tracker.quarantines(), 0U);
}

TEST(DeviceHealthTest, FailedProbeReturnsToQuarantine) {
  DeviceHealthTracker tracker(health_config());
  tracker.on_batch(at_ms(0), true, true);  // circuit trip: straight to quarantine
  ASSERT_EQ(tracker.state(), DeviceHealth::kQuarantined);
  EXPECT_EQ(tracker.quarantines(), 1U);

  ASSERT_EQ(tracker.admit_tier(at_ms(3), 0, 2), ServeTier::kReduced);
  ASSERT_EQ(tracker.state(), DeviceHealth::kProbing);
  // Any fault during the probe sends the device straight back.
  tracker.on_batch(at_ms(4), true, false);
  EXPECT_EQ(tracker.state(), DeviceHealth::kQuarantined);
  EXPECT_EQ(tracker.quarantines(), 2U);
  // The probe interval restarts from the re-quarantine time.
  EXPECT_EQ(tracker.admit_tier(at_ms(5), 0, 2), ServeTier::kHost);
  EXPECT_EQ(tracker.admit_tier(at_ms(6), 0, 2), ServeTier::kReduced);
  EXPECT_EQ(tracker.probes_attempted(), 2U);
}

TEST(DeviceHealthTest, CircuitTripQuarantinesFromAnyActiveState) {
  DeviceHealthTracker healthy(health_config());
  healthy.on_batch(at_ms(1), true, true);
  EXPECT_EQ(healthy.state(), DeviceHealth::kQuarantined);

  DeviceHealthTracker degraded(health_config());
  degraded.on_batch(at_ms(1), true, false);
  degraded.on_batch(at_ms(2), true, false);
  ASSERT_EQ(degraded.state(), DeviceHealth::kDegraded);
  degraded.on_batch(at_ms(3), false, true);
  EXPECT_EQ(degraded.state(), DeviceHealth::kQuarantined);
}

TEST(DeviceHealthTest, BatchesAreIgnoredWhileQuarantined) {
  DeviceHealthTracker tracker(health_config());
  tracker.on_batch(at_ms(0), true, true);
  ASSERT_EQ(tracker.state(), DeviceHealth::kQuarantined);
  const std::size_t transitions = tracker.transitions().size();
  // Nothing ran on the device, so outcomes cannot move the state machine.
  tracker.on_batch(at_ms(1), false, false);
  tracker.on_batch(at_ms(1.5), true, false);
  EXPECT_EQ(tracker.state(), DeviceHealth::kQuarantined);
  EXPECT_EQ(tracker.transitions().size(), transitions);
}

TEST(DeviceHealthTest, BacklogPressureDegradesAHealthyDevice) {
  DeviceHealthTracker tracker(health_config());
  EXPECT_EQ(tracker.admit_tier(at_ms(1), 0, 2), ServeTier::kFull);
  EXPECT_EQ(tracker.admit_tier(at_ms(1), 1, 2), ServeTier::kFull);
  // At the backlog threshold a healthy device pre-emptively serves the
  // cheaper tier to drain the queue faster — without any state transition.
  EXPECT_EQ(tracker.admit_tier(at_ms(1), 2, 2), ServeTier::kReduced);
  EXPECT_EQ(tracker.state(), DeviceHealth::kHealthy);
  EXPECT_TRUE(tracker.transitions().empty());
}

TEST(DeviceHealthTest, SerializationRoundTripsAndEvolvesIdentically) {
  DeviceHealthTracker tracker(health_config());
  tracker.on_batch(at_ms(1), true, false);
  tracker.on_batch(at_ms(2), true, false);
  tracker.on_batch(at_ms(3), true, false);
  tracker.on_batch(at_ms(4), true, false);
  (void)tracker.admit_tier(at_ms(7), 0, 2);  // mid-probe: the trickiest state
  ASSERT_EQ(tracker.state(), DeviceHealth::kProbing);
  tracker.on_batch(at_ms(8), false, false);  // one clean probe of the two needed

  ByteWriter writer;
  tracker.serialize(writer);
  const std::vector<std::uint8_t> bytes = writer.take();
  ByteReader reader{std::span<const std::uint8_t>(bytes)};
  DeviceHealthTracker restored = DeviceHealthTracker::deserialize(reader, health_config());
  EXPECT_TRUE(reader.exhausted());

  EXPECT_EQ(restored.state(), tracker.state());
  EXPECT_EQ(restored.entered_at(), tracker.entered_at());
  EXPECT_EQ(restored.quarantines(), tracker.quarantines());
  EXPECT_EQ(restored.probes_attempted(), tracker.probes_attempted());
  ASSERT_EQ(restored.transitions().size(), tracker.transitions().size());
  for (std::size_t i = 0; i < tracker.transitions().size(); ++i) {
    EXPECT_EQ(restored.transitions()[i].from, tracker.transitions()[i].from);
    EXPECT_EQ(restored.transitions()[i].to, tracker.transitions()[i].to);
    EXPECT_EQ(restored.transitions()[i].at, tracker.transitions()[i].at);
  }

  // The restored machine must carry the partial clean-probe streak: one more
  // clean batch completes recovery on both, in lock-step.
  tracker.on_batch(at_ms(9), false, false);
  restored.on_batch(at_ms(9), false, false);
  EXPECT_EQ(tracker.state(), DeviceHealth::kHealthy);
  EXPECT_EQ(restored.state(), DeviceHealth::kHealthy);
  EXPECT_EQ(restored.transitions().size(), tracker.transitions().size());
}

TEST(DeviceHealthTest, ConfigValidationRejectsDegenerateThresholds) {
  HealthConfig cfg = health_config();
  cfg.degrade_after_faults = 0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = health_config();
  cfg.quarantine_after_faults = cfg.degrade_after_faults - 1;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = health_config();
  cfg.recover_after_successes = 0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = health_config();
  cfg.probe_interval = SimDuration();
  EXPECT_THROW(cfg.validate(), Error);
  cfg = health_config();
  cfg.probe_successes = 0;
  EXPECT_THROW(cfg.validate(), Error);
  EXPECT_NO_THROW(health_config().validate());
}

// ---------------------------------------------------- admission control ----

TEST(AdmissionConfigTest, ValidationRejectsDegenerateValues) {
  AdmissionConfig cfg;
  cfg.offered_load = -0.5;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = {};
  cfg.queue_capacity = 0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = {};
  cfg.deadline = SimDuration::micros(-1);
  EXPECT_THROW(cfg.validate(), Error);
  cfg = {};
  cfg.degrade_backlog = 0;
  EXPECT_THROW(cfg.validate(), Error);
  EXPECT_NO_THROW(AdmissionConfig{}.validate());
}

TEST(AdmissionConfigTest, ShedPolicyNamesRoundTrip) {
  EXPECT_EQ(parse_shed_policy("reject-newest"), ShedPolicy::kRejectNewest);
  EXPECT_EQ(parse_shed_policy("drop-oldest"), ShedPolicy::kDropOldest);
  EXPECT_STREQ(shed_policy_name(ShedPolicy::kRejectNewest), "reject-newest");
  EXPECT_STREQ(shed_policy_name(ShedPolicy::kDropOldest), "drop-oldest");
  EXPECT_THROW(parse_shed_policy("oldest-first"), Error);
}

// ------------------------------------------------ serve loop integration ----

ServeConfig serve_config() {
  ServeConfig config;
  config.stream.spec = data::paper_dataset("PAMAP2");
  config.stream.spec.seed = 0x5E44E;
  config.stream.chunk_size = 48;
  config.learner.dim = 256;
  config.learner.seed = 11;
  config.warmup_chunks = 2;
  config.serve_chunks = 12;
  return config;
}

/// The recovery scenario: a mid-stream detach window with an open-loop
/// arrival schedule (arrivals pace the simulated clock, so the quarantined
/// device's probe interval actually elapses — in the closed loop the cheap
/// host tier would crawl time forward too slowly to probe).
ServeConfig recovery_config() {
  ServeConfig config = serve_config();
  config.serve_chunks = 16;
  config.online_updates = true;
  config.model_refresh_chunks = 4;
  config.faults.detach_at = {SimDuration::seconds(0.03)};
  config.faults.reattach_after = SimDuration::seconds(0.02);
  config.faults.seed = 7;
  config.admission.offered_load = 1.0;
  config.admission.queue_capacity = 4;
  // Longer than the inter-chunk gap, so the quarantined device actually sits
  // out chunks on the host tier before its half-open probe.
  config.health.probe_interval = SimDuration::millis(30);
  return config;
}

TEST(ServeOverloadTest, SustainedOverloadShedsInsteadOfQueueingUnboundedly) {
  const CoDesignFramework framework;

  // Calibrate the deadline from a fault-free closed-loop run, so the test
  // scales with the cost model instead of hard-coding simulated seconds.
  ServeConfig base = serve_config();
  const ServeResult reference = serve(framework, base);
  const SimDuration mean_chunk =
      reference.t_end * (1.0 / static_cast<double>(base.serve_chunks));

  ServeConfig over = serve_config();
  over.admission.offered_load = 2.0;  // 2x sustained overload
  // Capacity 3 lets the backlog behind a serving chunk reach the
  // degrade_backlog threshold (2), so backlog pressure engages the ladder.
  over.admission.queue_capacity = 3;
  over.admission.deadline = mean_chunk * 1.5;
  const ServeResult result = serve(framework, over);

  // The excess is shed or expired — never served late and never queued
  // unboundedly — while a healthy fraction still completes.
  EXPECT_GT(result.shed_chunks + result.expired_chunks, 0U);
  EXPECT_GT(result.samples_served, 0U);
  EXPECT_EQ(result.samples_served + result.shed_samples + result.expired_samples,
            static_cast<std::uint64_t>(over.serve_chunks) * over.stream.chunk_size);

  // Every served sample met its deadline: p99 latency (queue wait included)
  // stays within the configured budget.
  EXPECT_GT(result.final_snapshot.latency_p99_s, 0.0);
  EXPECT_LE(result.final_snapshot.latency_p99_s, over.admission.deadline.to_seconds());
  for (const auto& chunk : result.chunks) {
    EXPECT_LE(chunk.queue_wait, over.admission.deadline) << "chunk " << chunk.index;
  }

  // Chunk indices are the offered indices: gaps are exactly the dropped ones.
  std::uint32_t served_entries = 0;
  for (const auto& chunk : result.chunks) {
    EXPECT_LT(chunk.index, over.serve_chunks);
    ++served_entries;
  }
  EXPECT_EQ(served_entries + result.shed_chunks + result.expired_chunks,
            over.serve_chunks);

  // Backlog pressure engaged the reduced tier (healthy device, no faults).
  EXPECT_GT(result.degraded_samples, 0U);
  EXPECT_EQ(result.quarantines, 0U);
  EXPECT_EQ(result.final_health, DeviceHealth::kHealthy);

  // Deterministic: the same overload config reproduces the run exactly.
  const ServeResult again = serve(framework, over);
  EXPECT_EQ(result.predictions, again.predictions);
  EXPECT_EQ(result.t_end, again.t_end);
  EXPECT_EQ(result.shed_samples, again.shed_samples);
  EXPECT_EQ(result.expired_samples, again.expired_samples);
}

TEST(ServeOverloadTest, DropOldestPrefersFreshArrivals) {
  const CoDesignFramework framework;
  ServeConfig config = serve_config();
  config.admission.offered_load = 4.0;
  config.admission.queue_capacity = 2;
  config.admission.policy = ShedPolicy::kDropOldest;
  const ServeResult result = serve(framework, config);

  EXPECT_GT(result.shed_chunks, 0U);
  // Drop-oldest keeps the newest arrivals: the final offered chunk is always
  // served (it can never be the stalest entry when the queue overflows).
  ASSERT_FALSE(result.chunks.empty());
  EXPECT_EQ(result.chunks.back().index, config.serve_chunks - 1);
}

TEST(ServeRecoveryTest, QuarantinedDeviceRecoversViaProbing) {
  const CoDesignFramework framework;
  const ServeResult result = serve(framework, recovery_config());

  // The detach window quarantined the device at least once, probing brought
  // it back, and the session ends healthy — never terminally benched.
  EXPECT_GE(result.quarantines, 1U);
  EXPECT_GE(result.probes, 1U);
  EXPECT_EQ(result.final_health, DeviceHealth::kHealthy);

  // The ladder actually degraded during the outage...
  EXPECT_GT(result.degraded_samples, 0U);
  bool saw_host_tier = false;
  for (const auto& chunk : result.chunks) {
    saw_host_tier = saw_host_tier || chunk.tier == ServeTier::kHost;
  }
  EXPECT_TRUE(saw_host_tier);

  // ...and the degraded fraction decays to zero after recovery: the tail of
  // the stream is served on the full tier by a healthy device.
  ASSERT_GE(result.chunks.size(), 3U);
  for (std::size_t i = result.chunks.size() - 3; i < result.chunks.size(); ++i) {
    EXPECT_EQ(result.chunks[i].tier, ServeTier::kFull) << "chunk entry " << i;
    EXPECT_EQ(result.chunks[i].health, DeviceHealth::kHealthy) << "chunk entry " << i;
  }

  // Tier accounting is exact: per-tier samples partition the served total.
  std::uint64_t tier_sum = 0;
  for (const auto& tier : result.tiers) {
    tier_sum += tier.samples;
  }
  EXPECT_EQ(tier_sum, result.samples_served);
  EXPECT_EQ(result.degraded_samples, result.tiers[1].samples + result.tiers[2].samples);

  // Every health transition is stamped within the run and ends at healthy.
  ASSERT_FALSE(result.health_transitions.empty());
  EXPECT_EQ(result.health_transitions.back().to, DeviceHealth::kHealthy);
  for (const auto& transition : result.health_transitions) {
    EXPECT_LE(transition.at, result.t_end);
  }
}

std::string read_binary(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ServeCheckpointTest, ResumeIsByteIdenticalToUninterruptedRun) {
  const CoDesignFramework framework;
  const fs::path dir = fs::temp_directory_path() / "hdc_serve_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ServeConfig full = recovery_config();
  full.checkpoint_path = (dir / "full.ck").string();
  full.checkpoint_every_chunks = 6;
  const ServeResult uninterrupted = serve(framework, full);
  ASSERT_GE(uninterrupted.checkpoints_written, 3U);  // 2 periodic + final

  // Restart mid-stream from the first periodic cut, as a crash-recovery
  // would: the resumed session must replay into the exact same bytes.
  ServeConfig resumed_config = recovery_config();
  resumed_config.checkpoint_path = (dir / "resumed.ck").string();
  resumed_config.checkpoint_every_chunks = 6;
  resumed_config.resume_from = (dir / "full.ck.0006").string();
  const ServeResult resumed = serve(framework, resumed_config);

  EXPECT_EQ(resumed.predictions, uninterrupted.predictions);
  EXPECT_EQ(resumed.t_end, uninterrupted.t_end);
  EXPECT_EQ(resumed.samples_served, uninterrupted.samples_served);
  EXPECT_DOUBLE_EQ(resumed.lifetime_accuracy, uninterrupted.lifetime_accuracy);
  EXPECT_EQ(resumed.quarantines, uninterrupted.quarantines);
  EXPECT_EQ(resumed.probes, uninterrupted.probes);
  ASSERT_EQ(resumed.health_transitions.size(), uninterrupted.health_transitions.size());
  for (std::size_t i = 0; i < resumed.health_transitions.size(); ++i) {
    EXPECT_EQ(resumed.health_transitions[i].to, uninterrupted.health_transitions[i].to);
    EXPECT_EQ(resumed.health_transitions[i].at, uninterrupted.health_transitions[i].at);
  }

  // The monitor rides in the checkpoint (HDSV v3), so the resumed run's
  // telemetry is the uninterrupted run's: the full alarm-edge history —
  // including edges fired *before* the cut — and the final snapshot must
  // match byte-for-byte, not just statistically.
  ASSERT_EQ(resumed.events.size(), uninterrupted.events.size());
  for (std::size_t i = 0; i < resumed.events.size(); ++i) {
    EXPECT_EQ(resumed.events[i].alarm, uninterrupted.events[i].alarm) << "event " << i;
    EXPECT_EQ(resumed.events[i].fired, uninterrupted.events[i].fired) << "event " << i;
    EXPECT_EQ(resumed.events[i].at, uninterrupted.events[i].at) << "event " << i;
    EXPECT_EQ(resumed.events[i].value, uninterrupted.events[i].value) << "event " << i;
    EXPECT_EQ(resumed.events[i].threshold, uninterrupted.events[i].threshold)
        << "event " << i;
    EXPECT_EQ(resumed.events[i].exemplar_request_id,
              uninterrupted.events[i].exemplar_request_id)
        << "event " << i;
  }
  EXPECT_EQ(resumed.final_snapshot.to_json(), uninterrupted.final_snapshot.to_json());
  // Per-chunk monitor-derived telemetry is checkpointed too (v3), so the
  // windowed-accuracy/drift columns agree across the cut as well.
  ASSERT_EQ(resumed.chunks.size(), uninterrupted.chunks.size());
  for (std::size_t i = 0; i < resumed.chunks.size(); ++i) {
    EXPECT_EQ(resumed.chunks[i].windowed_accuracy,
              uninterrupted.chunks[i].windowed_accuracy)
        << "chunk entry " << i;
    EXPECT_EQ(resumed.chunks[i].drift_score, uninterrupted.chunks[i].drift_score)
        << "chunk entry " << i;
  }

  // Byte-identity of the checkpoints themselves: the later periodic cut and
  // the final one must not betray that the resumed session ever restarted.
  const std::string periodic_full = read_binary(dir / "full.ck.0012");
  const std::string periodic_resumed = read_binary(dir / "resumed.ck.0012");
  ASSERT_FALSE(periodic_full.empty());
  EXPECT_EQ(periodic_full, periodic_resumed);
  const std::string final_full = read_binary(dir / "full.ck");
  const std::string final_resumed = read_binary(dir / "resumed.ck");
  ASSERT_FALSE(final_full.empty());
  EXPECT_EQ(final_full, final_resumed);

  fs::remove_all(dir);
}

TEST(ServeOverloadTest, ModelConservationCountsServedSamplesOnly) {
  // The model-quality monitor's conservation contract under pressure: shed
  // and expired requests never reach record(), so the confusion-matrix row
  // sums track the *served* per-class counts exactly — not the offered ones.
  const CoDesignFramework framework;
  ServeConfig base = serve_config();
  const ServeResult reference = serve(framework, base);
  const SimDuration mean_chunk =
      reference.t_end * (1.0 / static_cast<double>(base.serve_chunks));

  ServeConfig over = serve_config();
  over.admission.offered_load = 2.0;
  over.admission.queue_capacity = 3;
  over.admission.deadline = mean_chunk * 1.5;
  const ServeResult result = serve(framework, over);
  ASSERT_GT(result.shed_samples + result.expired_samples, 0U);

  const obs::ModelStatsSnapshot& model = result.final_model;
  EXPECT_EQ(model.samples_total, result.samples_served);
  EXPECT_LT(model.samples_total,
            static_cast<std::uint64_t>(over.serve_chunks) * over.stream.chunk_size);
  std::uint64_t served_sum = 0;
  for (std::uint32_t r = 0; r < model.num_classes; ++r) {
    std::uint64_t row = 0;
    for (std::uint32_t c = 0; c < model.num_classes; ++c) {
      row += model.confusion[r * model.num_classes + c];
    }
    EXPECT_EQ(row, model.class_served[r]) << "row " << r;
    served_sum += row;
  }
  EXPECT_EQ(served_sum, model.samples_total);
}

TEST(ServeCheckpointTest, ModelStatsResumeIsByteIdentical) {
  // The model-quality block rides the HDSV checkpoint (v4): a run resumed
  // from a mid-stream cut renders the same model JSON, gate entries and
  // Prometheus families byte-for-byte, and the checkpoint inspector's
  // hdc-modelstats-v1 wrapper agrees across the restart.
  const CoDesignFramework framework;
  const fs::path dir = fs::temp_directory_path() / "hdc_serve_ckpt_model";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ServeConfig full = recovery_config();
  full.checkpoint_path = (dir / "full.ck").string();
  full.checkpoint_every_chunks = 6;
  const ServeResult uninterrupted = serve(framework, full);

  ServeConfig resumed_config = recovery_config();
  resumed_config.checkpoint_path = (dir / "resumed.ck").string();
  resumed_config.checkpoint_every_chunks = 6;
  resumed_config.resume_from = (dir / "full.ck.0006").string();
  const ServeResult resumed = serve(framework, resumed_config);

  EXPECT_EQ(resumed.final_model.to_json(), uninterrupted.final_model.to_json());
  EXPECT_EQ(resumed.final_model.metrics_json(), uninterrupted.final_model.metrics_json());
  EXPECT_EQ(resumed.final_model.to_prometheus(),
            uninterrupted.final_model.to_prometheus());

  // Model alarm-edge history survives the cut, including pre-cut edges.
  ASSERT_EQ(resumed.model_events.size(), uninterrupted.model_events.size());
  for (std::size_t i = 0; i < resumed.model_events.size(); ++i) {
    EXPECT_EQ(resumed.model_events[i].alarm, uninterrupted.model_events[i].alarm);
    EXPECT_EQ(resumed.model_events[i].at, uninterrupted.model_events[i].at);
    EXPECT_EQ(resumed.model_events[i].detail, uninterrupted.model_events[i].detail);
  }

  EXPECT_EQ(checkpoint_model_stats_json((dir / "full.ck").string()),
            checkpoint_model_stats_json((dir / "resumed.ck").string()));

  fs::remove_all(dir);
}

TEST(ServeCheckpointTest, ResumeRejectsMismatchedConfigAndCorruptBytes) {
  const CoDesignFramework framework;
  const fs::path dir = fs::temp_directory_path() / "hdc_serve_ckpt_guard";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ServeConfig config = serve_config();
  config.serve_chunks = 4;
  config.checkpoint_path = (dir / "guard.ck").string();
  serve(framework, config);

  // A different learner dimension is a different session: the config
  // fingerprint must refuse the resume with an actionable message.
  ServeConfig mismatched = config;
  mismatched.learner.dim = 512;
  mismatched.resume_from = config.checkpoint_path;
  try {
    serve(framework, mismatched);
    FAIL() << "expected a fingerprint mismatch";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("does not match this serving config"),
              std::string::npos);
  }

  // Flipping one payload byte must trip the CRC trailer.
  std::string bytes = read_binary(dir / "guard.ck");
  ASSERT_GT(bytes.size(), 64U);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  const fs::path corrupt = dir / "corrupt.ck";
  std::ofstream(corrupt, std::ios::binary) << bytes;
  ServeConfig resumed = config;
  resumed.resume_from = corrupt.string();
  try {
    serve(framework, resumed);
    FAIL() << "expected a checksum failure";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("checksum"), std::string::npos);
  }

  fs::remove_all(dir);
}

// A session builds its monitor, model-quality stats and energy accountant
// before the first arrival, so every checkpoint carries all three, each
// after a u8 presence flag that is always 1. Only a crafted file can hold a
// 0 there; with its CRC made valid again, reading it is still refused.
TEST(ServeCheckpointTest, ZeroTelemetryFlagIsRejected) {
  const CoDesignFramework framework;
  const fs::path dir = fs::temp_directory_path() / "hdc_serve_ckpt_flags";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ServeConfig config = serve_config();
  config.serve_chunks = 2;
  config.checkpoint_path = (dir / "flags.ck").string();
  serve(framework, config);
  const ServeCheckpoint state = verify_checkpoint(config.checkpoint_path, config);

  // The sections close the payload (monitor, model stats, energy), then the
  // CRC32 trailer: walk back to each section's flag.
  std::vector<std::uint8_t> bytes = read_file(config.checkpoint_path);
  ByteWriter monitor, model, energy;
  state.monitor->serialize(monitor);
  state.model_stats->serialize(model);
  state.energy->serialize(energy);
  const std::size_t energy_flag = bytes.size() - sizeof(std::uint32_t) - energy.size() - 1;
  const std::size_t model_flag = energy_flag - model.size() - 1;
  const std::size_t monitor_flag = model_flag - monitor.size() - 1;
  for (const std::size_t flag : {monitor_flag, model_flag, energy_flag}) {
    SCOPED_TRACE(flag);
    std::vector<std::uint8_t> crafted = bytes;
    ASSERT_EQ(crafted[flag], 1U);
    crafted[flag] = 0;
    const std::size_t trailer = crafted.size() - sizeof(std::uint32_t);
    const std::uint32_t crc = crc32(crafted.data(), trailer);
    std::memcpy(crafted.data() + trailer, &crc, sizeof(crc));
    const fs::path path = dir / "crafted.ck";
    write_file(path.string(), crafted);
    try {
      checkpoint_model_stats_json(path.string());
      FAIL() << "expected the zero presence flag to be refused";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find("carries no telemetry state"),
                std::string::npos)
          << error.what();
    }
  }

  fs::remove_all(dir);
}

// -------------------------- per-request tracing / latency attribution ----

/// The acceptance scenario: sustained 2x overload *and* a detach window, so
/// one run exercises every request path — served on the full tier, served
/// degraded, host fallback, shed, and deadline-expired.
ServeConfig overloaded_faulty_config(const CoDesignFramework& framework) {
  ServeConfig base = serve_config();
  const ServeResult reference = serve(framework, base);
  const SimDuration mean_chunk =
      reference.t_end * (1.0 / static_cast<double>(base.serve_chunks));

  ServeConfig config = recovery_config();
  config.admission.offered_load = 2.0;
  config.admission.queue_capacity = 3;
  config.admission.deadline = mean_chunk * 1.5;
  return config;
}

TEST(ServeTraceTest, AttributionSumsExactlyToLatencyOnEveryPath) {
  const CoDesignFramework framework;
  const ServeConfig config = overloaded_faulty_config(framework);
  const ServeResult result = serve(framework, config);

  // Every offered chunk — served, shed or expired — produced a request record.
  ASSERT_EQ(result.requests.size(), config.serve_chunks);
  EXPECT_EQ(result.requests_traced, config.serve_chunks);

  bool served = false, shed = false, expired = false;
  bool degraded = false, faulty = false;
  obs::RequestAttribution recomputed;
  for (const auto& request : result.requests) {
    // The invariant under test: stage durations sum *bit-exactly* (not
    // approximately) to the measured end-to-end latency, on every path.
    EXPECT_EQ(request.attribution.total(), request.latency())
        << "request " << request.request_id;
    EXPECT_GE(request.end, request.arrival);
    switch (request.outcome) {
      case obs::RequestOutcome::kServed:
        served = true;
        degraded = degraded || request.tier != 0;
        break;
      case obs::RequestOutcome::kShed:
        shed = true;
        break;
      case obs::RequestOutcome::kExpired:
        expired = true;
        break;
    }
    faulty = faulty || request.faulty;
    recomputed += request.attribution;
  }
  EXPECT_TRUE(served);
  EXPECT_TRUE(shed);
  EXPECT_TRUE(expired);
  EXPECT_TRUE(degraded);
  EXPECT_TRUE(faulty);

  // The session-wide accumulator (the one that gets checkpointed) is exactly
  // the per-request sum.
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    EXPECT_EQ(result.attribution_total.stages[i], recomputed.stages[i])
        << obs::stage_name(static_cast<obs::Stage>(i));
  }
}

TEST(ServeTraceTest, ExemplarsStayBoundedAndAlarmExemplarsResolve) {
  const CoDesignFramework framework;
  const ServeConfig config = overloaded_faulty_config(framework);
  const ServeResult result = serve(framework, config);

  // The overloaded faulty run retains exemplars, and their peak footprint
  // honors the configured hard bound.
  ASSERT_FALSE(result.exemplar_records.empty());
  EXPECT_LE(result.exemplar_bytes, result.exemplar_bytes_peak);
  EXPECT_LE(result.exemplar_bytes_peak, config.exemplars.max_bytes);

  // At least one alarm edge carries an exemplar request id, and every id any
  // alarm carries resolves to a retained full span chain.
  ASSERT_FALSE(result.events.empty());
  bool resolved_any = false;
  for (const auto& event : result.events) {
    if (event.exemplar_request_id < 0) {
      continue;
    }
    bool found = false;
    for (const auto& exemplar : result.exemplar_records) {
      found = found || exemplar.trace.request_id ==
                           static_cast<std::uint64_t>(event.exemplar_request_id);
    }
    EXPECT_TRUE(found) << "alarm '" << event.alarm << "' exemplar "
                       << event.exemplar_request_id << " not retained";
    resolved_any = true;
  }
  EXPECT_TRUE(resolved_any);

  // A tight bound forces deterministic eviction, still never exceeds the cap,
  // and — exemplars being strictly observational — cannot change the run.
  ServeConfig tight = config;
  tight.exemplars.max_bytes = 1024;
  const ServeResult bounded = serve(framework, tight);
  EXPECT_LE(bounded.exemplar_bytes_peak, tight.exemplars.max_bytes);
  EXPECT_GT(bounded.exemplars_evicted, 0U);
  EXPECT_EQ(bounded.predictions, result.predictions);
  EXPECT_EQ(bounded.t_end, result.t_end);
}

TEST(ServeCheckpointTest, ResumedTraceMatchesUninterruptedRunsSpans) {
  const fs::path dir = fs::temp_directory_path() / "hdc_serve_trace_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ServeConfig full = recovery_config();
  full.checkpoint_path = (dir / "full.ck").string();
  full.checkpoint_every_chunks = 6;
  obs::TraceContext full_trace;
  CoDesignFramework full_framework;
  full_framework.set_trace(&full_trace);
  const ServeResult uninterrupted = serve(full_framework, full);

  ServeConfig resumed_config = recovery_config();
  resumed_config.resume_from = (dir / "full.ck.0006").string();
  obs::TraceContext resumed_trace;
  CoDesignFramework resumed_framework;
  resumed_framework.set_trace(&resumed_trace);
  const ServeResult resumed = serve(resumed_framework, resumed_config);
  EXPECT_EQ(resumed.predictions, uninterrupted.predictions);

  // The requests the resumed session processed (the post-resume suffix).
  std::set<std::int64_t> resumed_ids;
  for (const auto& event : resumed_trace.events()) {
    if (event.request_id >= 0) {
      resumed_ids.insert(event.request_id);
    }
  }
  ASSERT_FALSE(resumed_ids.empty());

  // Their request-scoped span subsequence must be identical to the
  // uninterrupted run's — same names, tracks, absolute simulated start times
  // and durations, in the same order.
  const auto request_events = [&resumed_ids](const obs::TraceContext& trace) {
    std::vector<const obs::TraceEvent*> out;
    for (const auto& event : trace.events()) {
      if (event.request_id >= 0 && resumed_ids.count(event.request_id) > 0) {
        out.push_back(&event);
      }
    }
    return out;
  };
  const auto full_events = request_events(full_trace);
  const auto resumed_events = request_events(resumed_trace);
  if (full_events.size() != resumed_events.size()) {
    std::map<std::int64_t, int> full_counts, resumed_counts;
    for (const auto* e : full_events) ++full_counts[e->request_id];
    for (const auto* e : resumed_events) ++resumed_counts[e->request_id];
    for (const auto& [id, n] : resumed_counts) {
      if (full_counts[id] != n) {
        std::fprintf(stderr, "id %lld: full=%d resumed=%d\n",
                     static_cast<long long>(id), full_counts[id], n);
        for (const auto* e : full_events)
          if (e->request_id == id)
            std::fprintf(stderr, "  full: %s @%g dur=%g\n", e->name.c_str(),
                         e->start.to_seconds(), e->duration.to_seconds());
        for (const auto* e : resumed_events)
          if (e->request_id == id)
            std::fprintf(stderr, "  resumed: %s @%g dur=%g\n", e->name.c_str(),
                         e->start.to_seconds(), e->duration.to_seconds());
      }
    }
  }
  ASSERT_EQ(full_events.size(), resumed_events.size());
  for (std::size_t i = 0; i < full_events.size(); ++i) {
    EXPECT_EQ(full_events[i]->name, resumed_events[i]->name) << "event " << i;
    EXPECT_EQ(full_events[i]->track, resumed_events[i]->track) << "event " << i;
    EXPECT_EQ(full_events[i]->start, resumed_events[i]->start) << "event " << i;
    EXPECT_EQ(full_events[i]->duration, resumed_events[i]->duration)
        << "event " << i;
    EXPECT_EQ(full_events[i]->request_id, resumed_events[i]->request_id)
        << "event " << i;
  }

  // The request records agree span-for-span too.
  ASSERT_FALSE(resumed.requests.empty());
  std::map<std::uint64_t, const obs::RequestTrace*> full_by_id;
  for (const auto& request : uninterrupted.requests) {
    full_by_id[request.request_id] = &request;
  }
  for (const auto& request : resumed.requests) {
    const auto it = full_by_id.find(request.request_id);
    ASSERT_NE(it, full_by_id.end()) << "request " << request.request_id;
    const obs::RequestTrace& reference = *it->second;
    EXPECT_EQ(request.outcome, reference.outcome);
    EXPECT_EQ(request.arrival, reference.arrival);
    EXPECT_EQ(request.end, reference.end);
    ASSERT_EQ(request.spans.size(), reference.spans.size());
    for (std::size_t i = 0; i < request.spans.size(); ++i) {
      EXPECT_EQ(request.spans[i].stage, reference.spans[i].stage);
      EXPECT_EQ(request.spans[i].start, reference.spans[i].start);
      EXPECT_EQ(request.spans[i].duration, reference.spans[i].duration);
    }
  }

  // The checkpointed attribution accumulators cover the whole session: the
  // resumed run restores the pre-cut sums and lands on the same totals.
  EXPECT_EQ(resumed.requests_traced, uninterrupted.requests_traced);
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    EXPECT_EQ(resumed.attribution_total.stages[i],
              uninterrupted.attribution_total.stages[i])
        << obs::stage_name(static_cast<obs::Stage>(i));
  }

  fs::remove_all(dir);
}

TEST(ServeConfigTest, ValidationCoversAdmissionHealthAndCheckpointing) {
  ServeConfig config = serve_config();
  config.admission.queue_capacity = 0;
  EXPECT_THROW(config.validate(), Error);
  config = serve_config();
  config.health.probe_interval = SimDuration();
  EXPECT_THROW(config.validate(), Error);
  config = serve_config();
  config.admission.offered_load = -1.0;
  EXPECT_THROW(config.validate(), Error);
  config = serve_config();
  config.checkpoint_every_chunks = 4;  // interval without a path
  EXPECT_THROW(config.validate(), Error);
  config = serve_config();
  config.snapshot_every_chunks = 4;  // interval with nowhere to write
  EXPECT_THROW(config.validate(), Error);
  config = serve_config();
  config.learner.dim = 512;
  config.reduced_dim = 4096;  // a reduced tier wider than the full one
  EXPECT_THROW(config.validate(), Error);
  config.reduced_dim = 512;
  EXPECT_NO_THROW(config.validate());
  config = serve_config();
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.effective_reduced_dim(), 64U);  // max(64, 256 / 8)
  config.reduced_dim = 100;
  EXPECT_EQ(config.effective_reduced_dim(), 100U);
  // The automatic width never exceeds the full tier's.
  config = serve_config();
  config.learner.dim = 32;
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.effective_reduced_dim(), 32U);
}

}  // namespace
}  // namespace hdc::runtime

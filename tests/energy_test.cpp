// Tests for the energy accountant (src/obs/energy): the power-profile
// derivation pinned to the paper's component vocabulary, exactness of the
// integer-picojoule conservation ledgers (stage/component partitions, outcome
// sums, per-request atoms) on every outcome path, the joules-per-inference
// window and energy_budget alarm, byte-identical serialization, and the
// runtime integrations — serve-run conservation, checkpoint/resume byte
// identity, fleet shard/tenant ledger sums, and reconciliation against the
// paper-facing platform::EnergyModel codesign costs.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "common/byte_io.hpp"
#include "common/sim_time.hpp"
#include "data/synthetic.hpp"
#include "obs/energy.hpp"
#include "obs/request_trace.hpp"
#include "platform/energy.hpp"
#include "runtime/framework.hpp"
#include "runtime/router.hpp"
#include "runtime/serve.hpp"

namespace hdc::obs {
namespace {

namespace fs = std::filesystem;

/// Attribution with distinct non-trivial time in every stage, so partition
/// bugs (a stage dropped or double-counted) cannot cancel out.
RequestAttribution full_attribution(double scale) {
  RequestAttribution a;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    a.stages[i] = SimDuration::seconds(scale * (0.001 * static_cast<double>(i + 1)));
  }
  return a;
}

EnergyConfig accountant_config() {
  EnergyConfig config;
  config.window.span = SimDuration::seconds(2);
  config.window.buckets = 16;
  config.min_samples = 1;
  return config;
}

EnergyAccountant::Request request_at(double t_s, RequestOutcome outcome,
                                     std::uint64_t samples, bool degraded = false) {
  EnergyAccountant::Request req;
  req.at = SimDuration::seconds(t_s);
  req.attribution = full_attribution(1.0 + t_s);
  req.outcome = outcome;
  req.samples = outcome == RequestOutcome::kServed ? samples : 0;
  req.degraded = degraded;
  req.request_id = static_cast<std::int64_t>(t_s * 1000.0);
  return req;
}

TEST(PowerProfileTest, DefaultsEqualTheComponentDerivation) {
  // The defaults document themselves as from_components(15.0, 2.0, 0.3) —
  // the paper's ~15 W host + ~2 W USB accelerator with a 30% idle floor.
  const PowerProfile defaults;
  const PowerProfile derived = PowerProfile::from_components(15.0, 2.0, 0.3);
  EXPECT_DOUBLE_EQ(defaults.idle_watts, derived.idle_watts);
  EXPECT_DOUBLE_EQ(defaults.mxu_active_watts, derived.mxu_active_watts);
  EXPECT_DOUBLE_EQ(defaults.link_watts, derived.link_watts);
  EXPECT_DOUBLE_EQ(defaults.sram_write_watts, derived.sram_write_watts);
  EXPECT_DOUBLE_EQ(defaults.host_busy_watts, derived.host_busy_watts);
  EXPECT_DOUBLE_EQ(defaults.backoff_watts, derived.backoff_watts);
  EXPECT_NO_THROW(defaults.validate());
}

TEST(PowerProfileTest, StageWattsCoverTheWholeTaxonomy) {
  const PowerProfile p;
  EXPECT_DOUBLE_EQ(p.stage_watts(Stage::kQueueWait), p.idle_watts);
  EXPECT_DOUBLE_EQ(p.stage_watts(Stage::kBatchWait), p.idle_watts);
  EXPECT_DOUBLE_EQ(p.stage_watts(Stage::kOther), p.idle_watts);
  EXPECT_DOUBLE_EQ(p.stage_watts(Stage::kBackoff), p.backoff_watts);
  EXPECT_DOUBLE_EQ(p.stage_watts(Stage::kSwap), p.sram_write_watts);
  EXPECT_DOUBLE_EQ(p.stage_watts(Stage::kTransfer), p.link_watts);
  EXPECT_DOUBLE_EQ(p.stage_watts(Stage::kDevice), p.mxu_active_watts);
  EXPECT_DOUBLE_EQ(p.stage_watts(Stage::kDeviceHost), p.host_busy_watts);
  EXPECT_DOUBLE_EQ(p.stage_watts(Stage::kHost), p.host_busy_watts);
  EXPECT_DOUBLE_EQ(p.stage_watts(Stage::kUpdate), p.host_busy_watts);
}

TEST(PowerProfileTest, NonPhysicalProfilesAreRejected) {
  PowerProfile p;
  p.mxu_active_watts = 0.0;
  EXPECT_THROW(p.validate(), Error);
  p = PowerProfile{};
  p.host_busy_watts = -1.0;
  EXPECT_THROW(p.validate(), Error);
  p = PowerProfile{};
  p.idle_watts = -0.5;
  EXPECT_THROW(p.validate(), Error);
}

TEST(AttributeEnergyTest, StageAtomsAreTheRoundedWattSeconds) {
  const PowerProfile profile;
  const RequestAttribution attribution = full_attribution(1.0);
  const RequestEnergy energy = attribute_energy(attribution, profile);
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const Stage stage = static_cast<Stage>(i);
    const std::int64_t expected = static_cast<std::int64_t>(std::llround(
        profile.stage_watts(stage) * attribution.stages[i].to_seconds() * 1e12));
    EXPECT_EQ(energy.stage_pj[i], expected) << stage_name(stage);
  }
  EXPECT_GT(energy.total_pj(), 0);
  EXPECT_DOUBLE_EQ(energy.total_joules(),
                   static_cast<double>(energy.total_pj()) * 1e-12);

  // Deterministic: the same attribution prices to identical atoms, which is
  // what lets per-shard and per-tenant ledgers recompute a request's energy
  // and still sum exactly to the fleet accountant's total.
  const RequestEnergy again = attribute_energy(attribution, profile);
  EXPECT_EQ(energy.stage_pj, again.stage_pj);
}

TEST(AttributeEnergyTest, ComponentRollupIsAPartitionOfTheStages) {
  // Every stage maps to exactly one component; summing atoms grouped by
  // component must regroup — not re-round — the stage ledger.
  const RequestEnergy energy = attribute_energy(full_attribution(3.7), PowerProfile{});
  std::array<std::int64_t, kNumEnergyComponents> component{};
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const EnergyComponent c = stage_component(static_cast<Stage>(i));
    ASSERT_LT(static_cast<std::size_t>(c), kNumEnergyComponents);
    component[static_cast<std::size_t>(c)] += energy.stage_pj[i];
  }
  std::int64_t component_sum = 0;
  for (const std::int64_t pj : component) component_sum += pj;
  EXPECT_EQ(component_sum, energy.total_pj());

  EXPECT_EQ(stage_component(Stage::kDevice), EnergyComponent::kMxuActive);
  EXPECT_EQ(stage_component(Stage::kTransfer), EnergyComponent::kUsbLink);
  EXPECT_EQ(stage_component(Stage::kSwap), EnergyComponent::kSramSwap);
  EXPECT_EQ(stage_component(Stage::kUpdate), EnergyComponent::kHostBusy);
  EXPECT_EQ(stage_component(Stage::kBackoff), EnergyComponent::kRetryWaste);
  EXPECT_EQ(stage_component(Stage::kQueueWait), EnergyComponent::kIdle);
  EXPECT_STREQ(component_name(EnergyComponent::kMxuActive), "mxu_active");
  EXPECT_STREQ(component_name(EnergyComponent::kIdle), "idle");
}

TEST(EnergyAccountantTest, OutcomeLedgersAreExactOnEveryPath) {
  EnergyAccountant accountant(accountant_config());

  // One request per outcome shape: served, served-degraded, shed, expired.
  // Fold the returned atoms into an external ledger exactly as the router's
  // per-shard/per-tenant ledgers do.
  std::int64_t external_pj = 0;
  std::array<std::int64_t, kNumStages> external_stage{};
  const std::vector<EnergyAccountant::Request> requests = {
      request_at(0.1, RequestOutcome::kServed, 32),
      request_at(0.2, RequestOutcome::kServed, 32, /*degraded=*/true),
      request_at(0.3, RequestOutcome::kShed, 0),
      request_at(0.4, RequestOutcome::kExpired, 0),
  };
  for (const EnergyAccountant::Request& req : requests) {
    const RequestEnergy atoms = accountant.record(req);
    external_pj += atoms.total_pj();
    for (std::size_t i = 0; i < kNumStages; ++i) {
      external_stage[i] += atoms.stage_pj[i];
    }
  }

  const EnergySnapshot snap = accountant.snapshot(SimDuration::seconds(0.5));
  EXPECT_EQ(snap.requests_total, 4U);
  EXPECT_EQ(snap.samples_served, 64U);
  EXPECT_GT(snap.total_pj, 0);

  // External fold == accountant ledgers, bit-exactly.
  EXPECT_EQ(external_pj, snap.total_pj);
  EXPECT_EQ(external_stage, snap.stage_pj);

  // Stage and component ledgers are partitions of the total.
  std::int64_t stage_sum = 0, component_sum = 0;
  for (const std::int64_t pj : snap.stage_pj) stage_sum += pj;
  for (const std::int64_t pj : snap.component_pj) component_sum += pj;
  EXPECT_EQ(stage_sum, snap.total_pj);
  EXPECT_EQ(component_sum, snap.total_pj);

  // Outcome ledgers partition the total; degraded overlays served.
  EXPECT_EQ(snap.served_pj + snap.shed_pj + snap.expired_pj, snap.total_pj);
  EXPECT_GT(snap.served_pj, 0);
  EXPECT_GT(snap.shed_pj, 0);
  EXPECT_GT(snap.expired_pj, 0);
  EXPECT_GT(snap.degraded_pj, 0);
  EXPECT_LE(snap.degraded_pj, snap.served_pj);

  // The shed/expired joules count in the window numerator (waste is cost)
  // but contribute no served samples to the denominator.
  EXPECT_EQ(snap.window_pj, snap.total_pj);
  EXPECT_EQ(snap.window_samples, 64U);
  EXPECT_DOUBLE_EQ(snap.window_joules_per_inference,
                   static_cast<double>(snap.window_pj) * 1e-12 / 64.0);
}

TEST(EnergyAccountantTest, BudgetAlarmFiresOnTheWindowedFigure) {
  EnergyConfig config = accountant_config();
  config.alarm_joules_per_inference = 1e-9;  // far below any real request
  config.min_samples = 32;
  EnergyAccountant accountant(config);

  // Below min_samples: no alarm yet even though jpi is over threshold.
  accountant.record(request_at(0.1, RequestOutcome::kServed, 16));
  EXPECT_FALSE(accountant.alarms().firing("energy_budget"));

  accountant.record(request_at(0.2, RequestOutcome::kServed, 32));
  EXPECT_TRUE(accountant.alarms().firing("energy_budget"));
  EXPECT_EQ(accountant.alarms().fired_total("energy_budget"), 1U);

  // Edge-triggered: staying above threshold does not re-fire.
  accountant.record(request_at(0.3, RequestOutcome::kServed, 32));
  EXPECT_EQ(accountant.alarms().fired_total("energy_budget"), 1U);

  const EnergySnapshot snap = accountant.snapshot(SimDuration::seconds(0.4));
  EXPECT_EQ(snap.alarms.front().name, "energy_budget");
  EXPECT_TRUE(snap.alarms.front().firing);
  EXPECT_GT(snap.alarms.front().value, config.alarm_joules_per_inference);
  EXPECT_NE(snap.alarms.front().detail->find("jpi="), std::string::npos);
  ASSERT_FALSE(accountant.alarms().events().empty());
  EXPECT_EQ(accountant.alarms().events().front().alarm, "energy_budget");
}

TEST(EnergyAccountantTest, QuarantineSuppressesAndSummarizes) {
  EnergyConfig config = accountant_config();
  config.alarm_joules_per_inference = 1e-9;
  config.min_samples = 1;
  EnergyAccountant accountant(config);

  accountant.set_quarantined(true, SimDuration::seconds(0.05));
  accountant.record(request_at(0.1, RequestOutcome::kServed, 32));
  EXPECT_TRUE(accountant.alarms().events().empty());  // edge swallowed by the gate

  accountant.set_quarantined(false, SimDuration::seconds(0.2));
  const EnergySnapshot snap = accountant.snapshot(SimDuration::seconds(0.3));
  EXPECT_GT(snap.suppressed_alarms_total, 0U);
}

TEST(EnergyAccountantTest, SerializationRoundTripsByteIdentically) {
  // Two cuts: a plain one, and one taken mid-quarantine with the budget fire
  // held in the gate, whose replay on leaving quarantine must survive.
  for (const bool mid_quarantine : {false, true}) {
    SCOPED_TRACE(mid_quarantine ? "mid-quarantine cut" : "plain cut");
    EnergyConfig config = accountant_config();
    config.alarm_joules_per_inference = 1e-9;
    EnergyAccountant original(config);
    if (mid_quarantine) {
      original.set_quarantined(true, SimDuration::seconds(0.05));
    }
    original.record(request_at(0.1, RequestOutcome::kServed, 32));
    original.record(request_at(0.2, RequestOutcome::kShed, 0));
    if (mid_quarantine) {
      ASSERT_EQ(original.alarms().suppressed_total(), 1U);
      ASSERT_TRUE(original.alarms().events().empty());
    }

    ByteWriter writer;
    original.serialize(writer);
    ByteReader reader(writer.bytes());
    EnergyAccountant restored = EnergyAccountant::deserialize(reader);

    // The restored accountant's snapshot bytes match, and so does every
    // subsequent observation: record the same request on both (and, for the
    // quarantined cut, leave quarantine) and compare again — the live path
    // after resume is indistinguishable.
    EXPECT_EQ(original.snapshot(SimDuration::seconds(0.3)).to_json(),
              restored.snapshot(SimDuration::seconds(0.3)).to_json());
    original.record(request_at(0.4, RequestOutcome::kServed, 32, true));
    restored.record(request_at(0.4, RequestOutcome::kServed, 32, true));
    if (mid_quarantine) {
      original.set_quarantined(false, SimDuration::seconds(0.45));
      restored.set_quarantined(false, SimDuration::seconds(0.45));
      EXPECT_EQ(original.alarms().events().size(), 1U);  // the held fire replays
    }
    const SimDuration later = SimDuration::seconds(0.5);
    EXPECT_EQ(original.snapshot(later).to_json(), restored.snapshot(later).to_json());
    EXPECT_EQ(original.snapshot(later).to_prometheus(),
              restored.snapshot(later).to_prometheus());
    EXPECT_EQ(original.alarms().fired_total("energy_budget"),
              restored.alarms().fired_total("energy_budget"));
    EXPECT_EQ(original.alarms().events(), restored.alarms().events());
  }
}

TEST(EnergySnapshotTest, JsonCarriesExactIntegerLedgers) {
  EnergyAccountant accountant(accountant_config());
  accountant.record(request_at(0.1, RequestOutcome::kServed, 32));
  const EnergySnapshot snap = accountant.snapshot(SimDuration::seconds(0.2));

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"schema\":\"hdc-energy-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"total_pj\":" + std::to_string(snap.total_pj)),
            std::string::npos);
  EXPECT_NE(json.find("\"mxu_active\""), std::string::npos);
  EXPECT_NE(json.find("\"energy_budget\""), std::string::npos);

  const std::string metrics = snap.metrics_json();
  EXPECT_NE(metrics.find("\"energy.joules_per_inference\""), std::string::npos);
  const std::string prometheus = snap.to_prometheus();
  EXPECT_NE(prometheus.find("hdc_energy_joules_total"), std::string::npos);
}

// ------------------------------------------------- runtime integration ----

runtime::ServeConfig serve_config() {
  runtime::ServeConfig config;
  config.stream.spec = data::paper_dataset("PAMAP2");
  config.stream.spec.seed = 0xE4E46;
  config.stream.chunk_size = 32;
  config.learner.dim = 256;
  config.learner.seed = 11;
  config.warmup_chunks = 2;
  config.serve_chunks = 12;
  return config;
}

TEST(ServeEnergyTest, ServeRunConservesAndReconcilesWithTheTraces) {
  const runtime::CoDesignFramework framework;
  const runtime::ServeConfig config = serve_config();
  const runtime::ServeResult result = runtime::serve(framework, config);

  const EnergySnapshot& energy = result.final_energy;
  EXPECT_GT(energy.total_pj, 0);
  EXPECT_EQ(energy.requests_total, result.requests.size());
  EXPECT_EQ(energy.samples_served, result.samples_served);

  std::int64_t stage_sum = 0, component_sum = 0;
  for (const std::int64_t pj : energy.stage_pj) stage_sum += pj;
  for (const std::int64_t pj : energy.component_pj) component_sum += pj;
  EXPECT_EQ(stage_sum, energy.total_pj);
  EXPECT_EQ(component_sum, energy.total_pj);
  EXPECT_EQ(energy.served_pj + energy.shed_pj + energy.expired_pj, energy.total_pj);

  // Re-price every request trace under the session profile and sum the
  // atoms: on a fresh run this reproduces the lifetime stage ledger
  // bit-exactly (pricing is per request, so this is the *only* exact
  // reconstruction — summing durations first would round differently).
  std::array<std::int64_t, kNumStages> repriced{};
  for (const RequestTrace& rt : result.requests) {
    const RequestEnergy atoms = attribute_energy(rt.attribution, config.energy.profile);
    for (std::size_t i = 0; i < kNumStages; ++i) {
      repriced[i] += atoms.stage_pj[i];
    }
  }
  EXPECT_EQ(repriced, energy.stage_pj);
  EXPECT_GT(energy.window_joules_per_inference, 0.0);
}

TEST(ServeEnergyTest, CheckpointResumeReproducesEnergyBytesExactly) {
  const runtime::CoDesignFramework framework;
  const fs::path dir = fs::temp_directory_path() / "hdc_energy_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);

  runtime::ServeConfig full = serve_config();
  full.serve_chunks = 16;
  full.online_updates = true;
  full.checkpoint_path = (dir / "full.ck").string();
  full.checkpoint_every_chunks = 6;
  const runtime::ServeResult uninterrupted = runtime::serve(framework, full);
  ASSERT_GE(uninterrupted.checkpoints_written, 3U);

  // Restart from the first periodic cut: the energy accountant rides in the
  // checkpoint (HDSV v5), so the resumed run's final energy view — integer
  // ledgers, window, EWMA and alarm state alike — renders to the same bytes.
  runtime::ServeConfig resumed_config = serve_config();
  resumed_config.serve_chunks = 16;
  resumed_config.online_updates = true;
  resumed_config.checkpoint_path = (dir / "resumed.ck").string();
  resumed_config.checkpoint_every_chunks = 6;
  resumed_config.resume_from = (dir / "full.ck.0006").string();
  const runtime::ServeResult resumed = runtime::serve(framework, resumed_config);

  EXPECT_EQ(resumed.final_energy.to_json(), uninterrupted.final_energy.to_json());
  EXPECT_EQ(resumed.final_energy.total_pj, uninterrupted.final_energy.total_pj);
  EXPECT_EQ(resumed.final_energy.requests_total,
            uninterrupted.final_energy.requests_total);

  // And the checkpoint inspection surface agrees byte for byte.
  EXPECT_EQ(runtime::checkpoint_energy_json(resumed_config.checkpoint_path),
            runtime::checkpoint_energy_json(full.checkpoint_path));
  fs::remove_all(dir);
}

TEST(FleetEnergyTest, ShardAndTenantLedgersSumToTheFleetTotalUnderOverload) {
  const runtime::CoDesignFramework framework;

  // Overloaded and deadline-bound (the router_test attribution scenario) so
  // the ledger mixes served, shed and expired joules.
  runtime::ServeConfig base = serve_config();
  base.serve_chunks = 24;
  base.admission.offered_load = 2.0;
  base.fleet.num_devices = 2;
  base.fleet.num_tenants = 3;
  base.fleet.tenant_skew = 0.8;
  base.fleet.batch_max_chunks = 4;
  const runtime::FleetResult reference = runtime::serve_fleet(framework, base);
  ASSERT_GT(reference.served_requests, 0U);
  const SimDuration mean_request =
      reference.t_end * (1.0 / static_cast<double>(reference.served_requests));

  // One unbatched device at 6x load with a tight queue and deadline: the
  // interactive path cannot keep up, so the ledger must carry shed and
  // expired joules (same shape as the router conservation test).
  runtime::ServeConfig over = base;
  over.admission.offered_load = 6.0;
  over.admission.queue_capacity = 2;
  over.admission.deadline = mean_request * 1.5;
  over.fleet.num_devices = 1;
  over.fleet.batch_max_chunks = 1;
  const runtime::FleetResult result = runtime::serve_fleet(framework, over);
  ASSERT_GT(result.shed_requests + result.expired_requests, 0U);

  const EnergySnapshot& fleet = result.fleet_energy;
  EXPECT_GT(fleet.total_pj, 0);
  EXPECT_GT(fleet.shed_pj + fleet.expired_pj, 0);
  EXPECT_EQ(fleet.served_pj + fleet.shed_pj + fleet.expired_pj, fleet.total_pj);
  EXPECT_EQ(fleet.requests_total, result.offered_requests);

  // Per-shard ledgers (folded from independently re-priced atoms) sum to the
  // fleet accountant's total bit-exactly.
  std::int64_t shard_sum = 0;
  for (const runtime::FleetShardResult& shard : result.shards) {
    EXPECT_GE(shard.energy_pj, 0);
    shard_sum += shard.energy_pj;
  }
  EXPECT_EQ(shard_sum, fleet.total_pj);

  // Per-tenant ledgers partition the same total.
  ASSERT_EQ(result.tenant_energy_pj.size(), over.fleet.num_tenants);
  std::int64_t tenant_sum = 0;
  for (const std::int64_t pj : result.tenant_energy_pj) {
    EXPECT_GE(pj, 0);
    tenant_sum += pj;
  }
  EXPECT_EQ(tenant_sum, fleet.total_pj);

  // Re-pricing the request traces reproduces the total a third way.
  std::int64_t repriced = 0;
  for (const RequestTrace& rt : result.requests) {
    repriced += attribute_energy(rt.attribution, over.energy.profile).total_pj();
  }
  EXPECT_EQ(repriced, fleet.total_pj);
}

TEST(ReconciliationTest, CodesignInferenceJoulesMatchTheDeviceStage) {
  // codesign_inference prices the whole run at (tpu_active + host * idle)
  // watts — exactly the default profile's mxu_active_watts. A pure-kDevice
  // attribution priced by the accountant must land within one picojoule of
  // quantization per request.
  const platform::EnergyModel model;
  const SimDuration busy = SimDuration::seconds(1.2345);
  const double report_joules = model.codesign_inference(busy).joules;

  RequestAttribution attribution;
  attribution[Stage::kDevice] = busy;
  const RequestEnergy energy = attribute_energy(attribution, PowerProfile{});
  EXPECT_NEAR(energy.total_joules(), report_joules, 1e-9);
}

TEST(ReconciliationTest, CodesignTrainingJoulesMatchTheStageSplit) {
  // codesign_training: encode runs at the accelerator-active draw (kDevice),
  // update + model_gen at the full host draw (kUpdate). The live accountant
  // reproduces the paper-facing figure from its component ledgers.
  const platform::EnergyModel model;
  runtime::TrainTimings timings;
  timings.encode = SimDuration::seconds(10);
  timings.update = SimDuration::seconds(5);
  timings.model_gen = SimDuration::seconds(1);
  const double report_joules = model.codesign_training(timings).joules;

  RequestAttribution attribution;
  attribution[Stage::kDevice] = timings.encode;
  attribution[Stage::kUpdate] = timings.update + timings.model_gen;
  const RequestEnergy energy = attribute_energy(attribution, PowerProfile{});
  EXPECT_NEAR(energy.total_joules(), report_joules, 1e-9);

  // The same reconciliation holds component-wise: the kDevice atom is the
  // accelerator-phase joules, the kUpdate atom the host-phase joules.
  const double encode_joules =
      (model.tpu_active_watts + model.host.power_watts * model.host_idle_fraction) *
      timings.encode.to_seconds();
  const double host_joules =
      model.host.power_watts * (timings.update + timings.model_gen).to_seconds();
  EXPECT_NEAR(
      static_cast<double>(energy.stage_pj[static_cast<std::size_t>(Stage::kDevice)]) * 1e-12,
      encode_joules, 1e-9);
  EXPECT_NEAR(
      static_cast<double>(energy.stage_pj[static_cast<std::size_t>(Stage::kUpdate)]) * 1e-12,
      host_joules, 1e-9);
}

}  // namespace
}  // namespace hdc::obs

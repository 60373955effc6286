// Tests for the fleet router (src/runtime/router): determinism of the
// multi-device serving loop, bit-identity of predictions across the
// batched/unbatched paths, the offered == served + shed + expired
// conservation invariant under overload, cache-aware placement's hit-rate
// advantage over round-robin under skewed tenant traffic, per-request
// latency-attribution exactness through the router/batching stages, and
// fleet/shard accounting consistency, the rules of the one event loop
// (runtime/shard) that both serving loops run on, and the sizing of every
// auto-sized monitor before the first arrival.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/sim_time.hpp"
#include "core/online.hpp"
#include "data/stream.hpp"
#include "data/synthetic.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "runtime/framework.hpp"
#include "runtime/router.hpp"
#include "runtime/serve.hpp"
#include "runtime/shard.hpp"
#include "tpu/faults.hpp"

namespace hdc::runtime {
namespace {

/// Small-but-real fleet: two devices, three tenants, mild skew, micro-batches
/// of up to four chunks, open-loop at 2x the single-device full-tier rate.
ServeConfig fleet_config() {
  ServeConfig config;
  config.stream.spec = data::paper_dataset("PAMAP2");
  config.stream.spec.seed = 0xF1EE7;
  config.stream.chunk_size = 32;
  config.learner.dim = 256;
  config.learner.seed = 11;
  config.warmup_chunks = 2;
  config.serve_chunks = 24;  // total offered requests across the fleet
  config.admission.offered_load = 2.0;
  config.admission.queue_capacity = 8;
  config.fleet.num_devices = 2;
  config.fleet.num_tenants = 3;
  config.fleet.tenant_skew = 0.8;
  config.fleet.batch_max_chunks = 4;
  return config;
}

void expect_shard_equal(const FleetShardResult& a, const FleetShardResult& b) {
  EXPECT_EQ(a.device_index, b.device_index);
  EXPECT_EQ(a.requests_served, b.requests_served);
  EXPECT_EQ(a.samples_served, b.samples_served);
  EXPECT_EQ(a.shed_requests, b.shed_requests);
  EXPECT_EQ(a.expired_requests, b.expired_requests);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.cache_lookups, b.cache_lookups);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.swaps, b.swaps);
  EXPECT_EQ(a.swap_time, b.swap_time);
  EXPECT_EQ(a.busy, b.busy);
  EXPECT_EQ(a.t_end, b.t_end);
  EXPECT_EQ(a.final_health, b.final_health);
}

TEST(FleetServeTest, IdenticalConfigsReproduceBitIdenticalFleets) {
  const CoDesignFramework framework;
  const ServeConfig config = fleet_config();

  const FleetResult first = serve_fleet(framework, config);
  const FleetResult second = serve_fleet(framework, config);

  EXPECT_EQ(first.predictions, second.predictions);
  EXPECT_EQ(first.t_end, second.t_end);
  EXPECT_EQ(first.served_requests, second.served_requests);
  EXPECT_EQ(first.shed_requests, second.shed_requests);
  EXPECT_EQ(first.expired_requests, second.expired_requests);
  EXPECT_EQ(first.batches, second.batches);
  EXPECT_EQ(first.swaps, second.swaps);
  EXPECT_EQ(first.lifetime_accuracy, second.lifetime_accuracy);
  EXPECT_EQ(first.events.size(), second.events.size());

  ASSERT_EQ(first.shards.size(), second.shards.size());
  for (std::size_t s = 0; s < first.shards.size(); ++s) {
    expect_shard_equal(first.shards[s], second.shards[s]);
  }

  ASSERT_EQ(first.requests.size(), second.requests.size());
  for (std::size_t r = 0; r < first.requests.size(); ++r) {
    EXPECT_EQ(first.requests[r].outcome, second.requests[r].outcome);
    EXPECT_EQ(first.requests[r].arrival, second.requests[r].arrival);
    EXPECT_EQ(first.requests[r].end, second.requests[r].end);
    EXPECT_EQ(first.requests[r].attribution.total(),
              second.requests[r].attribution.total());
  }
}

TEST(FleetServeTest, BatchingPreservesPredictionsBitExactly) {
  const CoDesignFramework framework;

  // Ample queue and no deadline, fault-free: every offered request is served
  // under both configurations, so the prediction streams are comparable
  // end to end.
  ServeConfig unbatched = fleet_config();
  unbatched.admission.queue_capacity = 64;
  unbatched.fleet.batch_max_chunks = 1;

  ServeConfig batched = unbatched;
  batched.fleet.batch_max_chunks = 8;

  const FleetResult one = serve_fleet(framework, unbatched);
  const FleetResult many = serve_fleet(framework, batched);

  EXPECT_EQ(one.served_requests, one.offered_requests);
  EXPECT_EQ(many.served_requests, many.offered_requests);

  // Batching is a pure latency/throughput trade: the functional math is
  // per-sample, so coalescing chunks into one invocation must not move a
  // single prediction.
  EXPECT_EQ(one.predictions, many.predictions);
  EXPECT_EQ(one.lifetime_accuracy, many.lifetime_accuracy);
}

TEST(FleetServeTest, HighLoadCoalescesBatchesAndFinishesSooner) {
  const CoDesignFramework framework;

  // One device, one tenant, a deep queue, and a 40x offered load: the queue
  // builds while batches serve, so the router has same-tenant runs to
  // coalesce.
  ServeConfig batched = fleet_config();
  batched.serve_chunks = 32;
  batched.admission.offered_load = 40.0;
  batched.admission.queue_capacity = 64;
  batched.fleet.num_devices = 1;
  batched.fleet.num_tenants = 1;
  batched.fleet.tenant_skew = 0.0;
  batched.fleet.batch_max_chunks = 8;

  ServeConfig unbatched = batched;
  unbatched.fleet.batch_max_chunks = 1;

  const FleetResult many = serve_fleet(framework, batched);
  const FleetResult one = serve_fleet(framework, unbatched);

  ASSERT_EQ(many.served_requests, many.offered_requests);
  ASSERT_EQ(one.served_requests, one.offered_requests);

  // Real coalescing happened: fewer device invocations than requests, and a
  // mean batch meaningfully above one chunk.
  EXPECT_LT(many.batches, many.served_requests);
  EXPECT_GT(many.mean_batch_chunks, 1.5);
  EXPECT_EQ(one.batches, one.served_requests);

  // Amortizing the per-invoke overhead through the pipelined path drains the
  // same offered stream sooner.
  EXPECT_LT(many.t_end, one.t_end);
}

TEST(FleetServeTest, OverloadConservesEveryOfferedRequestAndSample) {
  const CoDesignFramework framework;

  // Calibrate a per-request deadline from a fault-free run so the overload
  // scenario scales with the cost model instead of hard-coding seconds.
  ServeConfig base = fleet_config();
  const FleetResult reference = serve_fleet(framework, base);
  ASSERT_GT(reference.served_requests, 0U);
  const SimDuration mean_request =
      reference.t_end * (1.0 / static_cast<double>(reference.served_requests));

  // One unbatched device at 6x load: the interactive invoke path cannot keep
  // up, so the bounded queue must shed (and the deadline expire) requests.
  ServeConfig over = fleet_config();
  over.admission.offered_load = 6.0;
  over.admission.queue_capacity = 2;
  over.admission.deadline = mean_request * 1.5;
  over.fleet.num_devices = 1;
  over.fleet.batch_max_chunks = 1;
  const FleetResult result = serve_fleet(framework, over);

  EXPECT_EQ(result.offered_requests,
            static_cast<std::uint64_t>(over.serve_chunks));
  EXPECT_EQ(result.offered_samples,
            static_cast<std::uint64_t>(over.serve_chunks) * over.stream.chunk_size);

  // Conservation: every offered request (and every sample) is accounted for
  // exactly once — served, shed, or expired.
  EXPECT_EQ(result.served_requests + result.shed_requests + result.expired_requests,
            result.offered_requests);
  EXPECT_EQ(result.samples_served + result.shed_samples + result.expired_samples,
            result.offered_samples);
  EXPECT_GT(result.shed_requests + result.expired_requests, 0U);
  EXPECT_GT(result.served_requests, 0U);

  // The same ledger balances shard by shard.
  std::uint64_t shard_served = 0, shard_shed = 0, shard_expired = 0;
  for (const FleetShardResult& shard : result.shards) {
    shard_served += shard.requests_served;
    shard_shed += shard.shed_requests;
    shard_expired += shard.expired_requests;
  }
  EXPECT_EQ(shard_served, result.served_requests);
  EXPECT_EQ(shard_shed, result.shed_requests);
  EXPECT_EQ(shard_expired, result.expired_requests);
}

TEST(FleetServeTest, CacheAwarePlacementBeatsRoundRobinUnderSkew) {
  const CoDesignFramework framework;

  // More tenants than devices and strongly skewed popularity: round-robin
  // scatters each tenant across all shards (a swap almost every batch) while
  // cache-aware placement keeps hot tenants pinned to the shard already
  // holding their parameters.
  ServeConfig config = fleet_config();
  config.serve_chunks = 48;
  config.admission.offered_load = 3.0;
  config.fleet.num_devices = 4;
  config.fleet.num_tenants = 6;
  config.fleet.tenant_skew = 1.5;
  config.fleet.batch_max_chunks = 4;

  config.fleet.placement = PlacementPolicy::kCacheAware;
  const FleetResult cache_aware = serve_fleet(framework, config);
  config.fleet.placement = PlacementPolicy::kRoundRobin;
  const FleetResult round_robin = serve_fleet(framework, config);

  // Parameter-cache telemetry balances: every dispatched batch either hit in
  // SRAM or paid a charged swap.
  EXPECT_EQ(cache_aware.cache_hits + cache_aware.swaps, cache_aware.cache_lookups);
  EXPECT_EQ(round_robin.cache_hits + round_robin.swaps, round_robin.cache_lookups);
  ASSERT_GT(cache_aware.cache_lookups, 0U);
  ASSERT_GT(round_robin.cache_lookups, 0U);

  EXPECT_GT(cache_aware.cache_hit_rate, round_robin.cache_hit_rate);
}

TEST(FleetServeTest, AttributionSumsBitExactlyThroughRouterStages) {
  const CoDesignFramework framework;

  // Overloaded and deadline-bound so the trace set mixes served, shed, and
  // expired outcomes — attribution must be exact for all three shapes.
  ServeConfig base = fleet_config();
  const FleetResult reference = serve_fleet(framework, base);
  const SimDuration mean_request =
      reference.t_end * (1.0 / static_cast<double>(reference.served_requests));

  ServeConfig over = fleet_config();
  over.admission.offered_load = 5.0;
  over.admission.queue_capacity = 3;
  over.admission.deadline = mean_request * 2.0;
  const FleetResult result = serve_fleet(framework, over);

  ASSERT_EQ(result.requests.size(), result.offered_requests);
  std::uint64_t served = 0, shed = 0, expired = 0;
  for (const obs::RequestTrace& rt : result.requests) {
    // The invariant `hdc trace analyze --assert-attribution` checks: summing
    // the stage ledger in fixed order reproduces the latency bit-exactly,
    // including the kBatchWait and kSwap stages only the router emits.
    EXPECT_EQ(rt.attribution.total(), rt.latency());
    switch (rt.outcome) {
      case obs::RequestOutcome::kServed: ++served; break;
      case obs::RequestOutcome::kShed: ++shed; break;
      case obs::RequestOutcome::kExpired: ++expired; break;
    }
  }
  EXPECT_EQ(served, result.served_requests);
  EXPECT_EQ(shed, result.shed_requests);
  EXPECT_EQ(expired, result.expired_requests);

  // At least one served batch waited behind another (the router actually
  // queued work under 5x overload), so kBatchWait/kQueueWait carry time.
  const SimDuration waited =
      result.attribution_total[obs::Stage::kQueueWait] +
      result.attribution_total[obs::Stage::kBatchWait];
  EXPECT_GT(waited.to_seconds(), 0.0);
}

TEST(FleetServeTest, ShardAccountingSumsToFleetTotals) {
  const CoDesignFramework framework;
  ServeConfig config = fleet_config();
  config.fleet.num_devices = 3;
  const FleetResult result = serve_fleet(framework, config);

  std::uint64_t samples = 0, batches = 0, lookups = 0, hits = 0, swaps = 0;
  SimDuration latest;
  for (const FleetShardResult& shard : result.shards) {
    samples += shard.samples_served;
    batches += shard.batches;
    lookups += shard.cache_lookups;
    hits += shard.cache_hits;
    swaps += shard.swaps;
    latest = std::max(latest, shard.t_end);
  }
  EXPECT_EQ(samples, result.samples_served);
  EXPECT_EQ(batches, result.batches);
  EXPECT_EQ(lookups, result.cache_lookups);
  EXPECT_EQ(hits, result.cache_hits);
  EXPECT_EQ(swaps, result.swaps);
  EXPECT_EQ(latest, result.t_end);

  // One prediction per served sample, and the fleet monitor saw all of them.
  EXPECT_EQ(result.predictions.size(), result.samples_served);
  EXPECT_EQ(result.fleet_snapshot.samples_total, result.samples_served);
}

TEST(FleetServeTest, TenantModelStatsSumExactlyToTheFleetAggregate) {
  const CoDesignFramework framework;
  ServeConfig config = fleet_config();
  const FleetResult result = serve_fleet(framework, config);

  // The fleet aggregate counts every served sample, and the per-tenant
  // monitors partition it exactly — same conservation triple
  // `hdc model inspect` gates on the emitted snapshot.
  EXPECT_EQ(result.fleet_model.samples_total, result.samples_served);
  EXPECT_EQ(result.fleet_model.dim, 0U);  // cross-tenant dims are meaningless
  ASSERT_EQ(result.tenant_models.size(), config.fleet.num_tenants);
  std::uint64_t tenant_sum = 0;
  for (const obs::ModelStatsSnapshot& tenant : result.tenant_models) {
    std::uint64_t served_sum = 0;
    for (std::uint32_t r = 0; r < tenant.num_classes; ++r) {
      std::uint64_t row = 0;
      for (std::uint32_t c = 0; c < tenant.num_classes; ++c) {
        row += tenant.confusion[r * tenant.num_classes + c];
      }
      EXPECT_EQ(row, tenant.class_served[r]);
      served_sum += row;
    }
    EXPECT_EQ(served_sum, tenant.samples_total);
    // No dimension window: the served hidden layer never leaves the device,
    // and reading it back would cost d bytes per sample over the link.
    EXPECT_EQ(tenant.dim, 0U);
    tenant_sum += tenant.samples_total;
  }
  EXPECT_EQ(tenant_sum, result.fleet_model.samples_total);

  // The fleet snapshot splices the aggregate plus a tenants array.
  const std::string json = result.fleet_snapshot.to_json();
  EXPECT_NE(json.find("\"model\":{"), std::string::npos);
  EXPECT_NE(json.find("\"tenants\":[{\"tenant\":0,"), std::string::npos);
  EXPECT_NE(json.find("\"model.accuracy\":{"), std::string::npos);
}

// A fleet of one device, one tenant and no batching is `serve` with frozen
// models: the same stream, learner, arrival schedule, interactive invoke and
// device path. The one difference is the load: serve's first tier switch is
// uncharged, the fleet's first swap is a charged upload. The offered loads
// stay below 1 because at higher loads serve's ladder drops to the reduced
// tier, which the fleet does not have.
TEST(FleetServeTest, FleetOfOneMatchesServe) {
  const CoDesignFramework framework;
  for (const double load : {0.5, 0.9}) {
    SCOPED_TRACE(load);
    ServeConfig config;
    config.stream.spec = data::paper_dataset("PAMAP2");
    config.stream.chunk_size = 32;
    config.learner.dim = 512;
    config.warmup_chunks = 2;
    config.serve_chunks = 24;
    config.admission.offered_load = load;
    config.fleet.num_devices = 1;
    config.fleet.num_tenants = 1;
    config.fleet.batch_max_chunks = 1;
    const ServeResult single = serve(framework, config);
    const FleetResult fleet = serve_fleet(framework, config);

    ASSERT_EQ(single.predictions.size(), 24U * 32U);
    EXPECT_EQ(fleet.predictions, single.predictions);
    EXPECT_EQ(fleet.swaps, 1U);
    ASSERT_EQ(single.requests.size(), 24U);
    ASSERT_EQ(fleet.requests.size(), 24U);
    std::vector<const obs::RequestTrace*> by_id(24, nullptr);
    for (const obs::RequestTrace& rt : single.requests) {
      by_id.at(rt.request_id) = &rt;
    }
    std::size_t swap_spans = 0;
    for (const obs::RequestTrace& got : fleet.requests) {
      SCOPED_TRACE(got.request_id);
      const obs::RequestTrace& want = *by_id.at(got.request_id);
      EXPECT_EQ(got.outcome, want.outcome);
      std::vector<obs::StageSpan> spans = got.spans;
      const auto swap = std::find_if(spans.begin(), spans.end(), [](const obs::StageSpan& s) {
        return s.stage == obs::Stage::kSwap;
      });
      const bool swapped = swap != spans.end();
      if (swapped) {
        ++swap_spans;
        spans.erase(swap);
      }
      ASSERT_EQ(spans.size(), want.spans.size());
      for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].stage, want.spans[i].stage);
        EXPECT_EQ(spans[i].duration, want.spans[i].duration);
        EXPECT_EQ(spans[i].sample, want.spans[i].sample);
        EXPECT_EQ(spans[i].attempt, want.spans[i].attempt);
        if (!swapped) {
          EXPECT_EQ(spans[i].start, want.spans[i].start);
        }
      }
      if (!swapped) {
        EXPECT_EQ(got.latency(), want.latency());
      }
    }
    EXPECT_EQ(swap_spans, 1U);

    // Both loops take confidence from the served class scores through one
    // definition, so the tenant's view equals serve's model quality.
    ASSERT_EQ(fleet.tenant_models.size(), 1U);
    const obs::ModelStatsSnapshot& tenant = fleet.tenant_models.front();
    EXPECT_EQ(tenant.confusion, single.final_model.confusion);
    ASSERT_EQ(tenant.calibration.size(), single.final_model.calibration.size());
    for (std::size_t b = 0; b < tenant.calibration.size(); ++b) {
      EXPECT_EQ(tenant.calibration[b].count, single.final_model.calibration[b].count) << b;
      EXPECT_EQ(tenant.calibration[b].correct, single.final_model.calibration[b].correct) << b;
    }
    EXPECT_EQ(tenant.ece, single.final_model.ece);
  }
}

// The aggregate monitor is the session's and every shard's records go to it
// after the shard's own, so in a fleet of one device it sees exactly what
// the shard's monitor sees: batched, faulty and multi-tenant as the run is,
// the two snapshots agree once the session's spliced sections are cleared.
TEST(FleetServeTest, FleetOfOneAggregateEqualsItsShard) {
  const CoDesignFramework framework;
  ServeConfig config = fleet_config();
  config.fleet.num_devices = 1;
  config.admission.offered_load = 60.0;
  const SimDuration span = serve_fleet(framework, config).t_end;
  config.faults.detach_at = {span * 0.2, span * 0.6};
  config.faults.reattach_after = span * 0.1;
  const FleetResult result = serve_fleet(framework, config);
  ASSERT_EQ(result.shards.size(), 1U);
  EXPECT_GT(result.mean_batch_chunks, 1.0);
  EXPECT_GT(result.shed_requests, 0U);
  EXPECT_GT(result.degraded_samples, 0U);
  EXPECT_FALSE(result.events.empty());

  obs::MonitorSnapshot aggregate = result.fleet_snapshot;
  EXPECT_FALSE(aggregate.model_json.empty());
  EXPECT_FALSE(aggregate.energy_json.empty());
  for (std::string* spliced :
       {&aggregate.model_json, &aggregate.model_metrics_json, &aggregate.model_prometheus,
        &aggregate.energy_json, &aggregate.energy_metrics_json, &aggregate.energy_prometheus}) {
    spliced->clear();
  }
  EXPECT_EQ(aggregate.to_json(), result.shards[0].final_snapshot.to_json());
}

// The session-wide telemetry (the aggregate monitor, model-quality stats and
// energy accountant) is quarantined while every shard is. One request meets
// a permanent detach: its device trips, serves it on the host and is
// quarantined before any sample is recorded, and alarms set to fire on every
// request show the gate. Alone, that device gates the session; beside a
// second, idle and healthy device it does not.
TEST(FleetServeTest, SessionTelemetryIsQuarantinedWhileEveryShardIs) {
  const CoDesignFramework framework;
  ServeConfig config = fleet_config();
  config.serve_chunks = 1;
  config.fleet.placement = PlacementPolicy::kRoundRobin;
  config.faults.detach_at = {SimDuration()};  // never reattaches
  config.model_stats.alarm_class_error_rate = 0.0;
  config.model_stats.min_class_samples = 1;
  config.energy.alarm_joules_per_inference = 1e-12;
  config.energy.min_samples = 1;
  for (const std::uint32_t devices : {1U, 2U}) {
    SCOPED_TRACE(devices);
    config.fleet.num_devices = devices;
    const FleetResult result = serve_fleet(framework, config);
    ASSERT_EQ(result.served_requests, 1U);
    EXPECT_EQ(result.shards[0].final_health, DeviceHealth::kQuarantined);
    EXPECT_TRUE(result.shards[0].final_snapshot.quarantined);
    const bool all_out = devices == 1;
    if (!all_out) {
      EXPECT_EQ(result.shards[1].final_health, DeviceHealth::kHealthy);
    }
    EXPECT_EQ(result.fleet_snapshot.quarantined, all_out);
    EXPECT_EQ(result.fleet_model.quarantined, all_out);
    EXPECT_EQ(result.fleet_energy.quarantined, all_out);
    EXPECT_EQ(result.fleet_model.suppressed_alarms_total > 0, all_out);
    EXPECT_EQ(result.fleet_energy.suppressed_alarms_total > 0, all_out);
    EXPECT_EQ(result.model_events.empty(), all_out);
    EXPECT_EQ(result.energy_events.empty(), all_out);
  }
}

// ---- auto-sized telemetry ---------------------------------------------------
// A monitor config with no window span and no SLO target is sized, before
// the first arrival, off the fault-free full-tier per-sample price: span 4x
// a chunk at that price, 16 buckets, SLO 1.5x it. Every monitor of a session
// shares it, whatever its first batch cost or whether anything is served.

/// The fault-free full-tier per-sample price of the model `serve` deploys
/// (the fleet's tenant 0 too): the same warm-up and deploy, replayed here.
SimDuration full_tier_price(const CoDesignFramework& framework, const ServeConfig& config) {
  data::DriftStream stream(config.stream);
  core::OnlineLearner learner(config.stream.spec.features, config.stream.spec.classes,
                              config.learner);
  data::Dataset representative;
  for (std::uint32_t w = 0; w < config.warmup_chunks; ++w) {
    data::Dataset chunk = stream.next_chunk();
    learner.learn_batch(chunk);
    if (w == 0) {
      representative = std::move(chunk);
    }
  }
  ServingEndpoint endpoint(framework, tpu::FaultProfile{}, config.retry);
  endpoint.deploy(ServeTier::kFull, learner.freeze(), representative);
  return endpoint.nominal_per_sample(endpoint.model(ServeTier::kFull), ServeTier::kFull);
}

void expect_sized_off_the_price(const obs::MonitorSnapshot& snap, SimDuration price,
                                std::uint32_t chunk_size) {
  EXPECT_EQ(snap.window_span_s, (price * (4.0 * chunk_size)).to_seconds());
  EXPECT_EQ(snap.slo_latency_s, (price * 1.5).to_seconds());
}

ServeConfig auto_sized(ServeConfig config) {
  config.monitor.window.span = SimDuration();
  config.monitor.slo_latency = SimDuration();
  return config;
}

// Batched, overloaded, and every device detached for its first batches:
// those batches all cost different amounts, yet every shard's monitor and
// the aggregate share one window and SLO.
TEST(FleetServeTest, AutoSizedMonitorsShareOneWindowAndSlo) {
  const CoDesignFramework framework;
  ServeConfig config = auto_sized(fleet_config());
  config.fleet.num_devices = 3;
  config.admission.offered_load = 30.0;
  config.faults.detach_at = {SimDuration()};
  config.faults.reattach_after = SimDuration::micros(300);
  const FleetResult result = serve_fleet(framework, config);
  EXPECT_GT(result.mean_batch_chunks, 1.0);
  EXPECT_GT(result.attribution_total[obs::Stage::kBackoff], SimDuration());
  const SimDuration price = full_tier_price(framework, config);
  expect_sized_off_the_price(result.fleet_snapshot, price, config.stream.chunk_size);
  for (const FleetShardResult& shard : result.shards) {
    SCOPED_TRACE(shard.device_index);
    EXPECT_GT(shard.batches, 0U);
    expect_sized_off_the_price(shard.final_snapshot, price, config.stream.chunk_size);
  }
}

// The first chunk meets a detached device and retries until it comes back:
// its cost does not move the window or the SLO.
TEST(ServeTest, AutoSizedWindowIgnoresTheFirstChunksRetries) {
  const CoDesignFramework framework;
  ServeConfig config = auto_sized(fleet_config());
  config.admission.offered_load = 0.0;
  config.serve_chunks = 4;
  config.faults.detach_at = {SimDuration()};
  config.faults.reattach_after = SimDuration::micros(300);
  const ServeResult result = serve(framework, config);
  ASSERT_EQ(result.samples_served, 4U * config.stream.chunk_size);
  EXPECT_GT(result.requests[0].attribution[obs::Stage::kBackoff], SimDuration());
  expect_sized_off_the_price(result.final_snapshot, full_tier_price(framework, config),
                             config.stream.chunk_size);
}

// Every request expires, so nothing is ever served: the window and SLO are
// still the price's.
TEST(ServeTest, AutoSizedWindowNeedsNothingServed) {
  const CoDesignFramework framework;
  ServeConfig config = auto_sized(fleet_config());
  config.serve_chunks = 6;
  config.admission.deadline = SimDuration::micros(1);
  const ServeResult result = serve(framework, config);
  ASSERT_EQ(result.samples_served, 0U);
  ASSERT_EQ(result.expired_chunks, 6U);
  expect_sized_off_the_price(result.final_snapshot, full_tier_price(framework, config),
                             config.stream.chunk_size);
}

// Alarm records carry their event time in the structured log, including
// those replayed when the telemetry is sized: here every request expires,
// nothing is served, and the admission records replayed at the end fire
// the shed-rate alarm. Each JSONL `t_s` must equal the `t_s=` its message
// names, in serve and in a fleet.
TEST(ServeLogTest, ReplayedAlarmsLogAtTheirEventTime) {
  const CoDesignFramework framework;
  const std::filesystem::path sink =
      std::filesystem::temp_directory_path() / "hdc_router_test_alarm_times.jsonl";
  for (const std::uint32_t devices : {0U, 2U}) {
    SCOPED_TRACE(devices);
    ServeConfig config;
    config.stream.spec = data::paper_dataset("PAMAP2");
    config.stream.chunk_size = 16;
    config.learner.dim = 128;
    config.warmup_chunks = 1;
    config.serve_chunks = 40;
    config.admission.offered_load = 50.0;
    config.admission.deadline = SimDuration::micros(1);
    log::set_json_sink(sink.string());
    std::uint64_t served = 0;
    if (devices == 0) {
      served = serve(framework, config).samples_served;
    } else {
      config.fleet.num_devices = devices;
      config.fleet.num_tenants = 2;
      served = serve_fleet(framework, config).samples_served;
    }
    log::close_json_sink();
    EXPECT_EQ(served, 0U);

    std::ifstream in(sink);
    std::size_t alarms = 0;
    for (std::string line; std::getline(in, line);) {
      const std::size_t named = line.rfind(" t_s=");
      if (line.find("alarm=") == std::string::npos || named == std::string::npos) {
        continue;
      }
      ++alarms;
      const std::string prefix = "{\"t_s\":";
      ASSERT_EQ(line.rfind(prefix, 0), 0U) << line;
      const std::string logged =
          line.substr(prefix.size(), line.find(',') - prefix.size());
      const std::string event = line.substr(named + 5, line.find('"', named) - named - 5);
      EXPECT_EQ(logged, event) << line;
    }
    EXPECT_GT(alarms, 0U);
  }
  std::filesystem::remove(sink);
}

// ---- the one event loop (runtime/shard) ------------------------------------
// Stub callbacks that do no device work: `arrive` queues request `id` on the
// shard `place(id)` picks, as tenant `tenant(id)`; `dispatch` pops the head
// run and keeps the device busy for `service`. Times are whole seconds,
// exact in binary, so every tie is exact. An event reads "a<id>@<t>" (an
// arrival) or "d<shard>@<t>:<ids>" (a dispatch and the requests it served).

using Events = std::vector<std::string>;

SimDuration sec(double s) { return SimDuration::seconds(s); }

std::string at_string(SimDuration t) {
  std::ostringstream os;
  os << t.to_seconds();
  return os.str();
}

struct StubLoop {
  StubLoop(std::uint32_t devices, std::uint32_t requests) {
    config.serve_chunks = requests;
    config.admission.queue_capacity = 16;
    shards.reserve(devices);
    for (std::uint32_t d = 0; d < devices; ++d) {
      shards.emplace_back(framework, config.faults, config, DeviceHealthTracker(config.health));
    }
  }

  Events run(std::uint32_t batch_max, SimDuration period, SimDuration service,
             std::uint64_t first_id = 0) {
    Events events;
    run_event_loop(
        config, shards, first_id, batch_max, period,
        [&](std::uint64_t id, SimDuration at) {
          events.push_back("a" + std::to_string(id) + "@" + at_string(at));
          EXPECT_FALSE(shards[place(id)].admit({id, tenant(id), at, {}}, session).has_value());
        },
        [&](std::size_t index, SimDuration at) {
          Shard& shard = shards[index];
          std::string served;
          for (std::size_t k = shard.head_run(batch_max); k > 0; --k) {
            served += served.empty() ? "" : ",";
            served += std::to_string(shard.pop().id);
          }
          events.push_back("d" + std::to_string(index) + "@" + at_string(at) + ":" + served);
          shard.free_at = at + service;
        });
    return events;
  }

  ServeConfig config = [] {
    ServeConfig c;
    c.stream.spec.classes = 2;
    return c;
  }();
  CoDesignFramework framework;
  ServingSession session{config, resolve_monitor_config(config, sec(1)), 0};
  std::vector<Shard> shards;
  std::function<std::size_t(std::uint64_t)> place = [](std::uint64_t) { return std::size_t{0}; };
  std::function<std::uint32_t(std::uint64_t)> tenant = [](std::uint64_t) { return 0U; };
};

TEST(EventLoopTest, ArrivalAtAReadyTimeIsOfferedFirst) {
  // Request 1's run (held: it can still grow) is ready when the device
  // frees at 4; request 2 lands at 4 too and joins that batch.
  StubLoop loop(1, 4);
  loop.config.fleet.batch_max_age = sec(0);
  EXPECT_EQ(loop.run(2, sec(2), sec(4)),
            (Events{"a0@0", "d0@0:0", "a1@2", "a2@4", "d0@4:1,2", "a3@6", "d0@8:3"}));
}

TEST(EventLoopTest, GrowableRunIsHeldForTheBatchAge) {
  // Request 0's run waits until 0 + 3 s and takes request 1 on the way; the
  // last request's run cannot grow (nothing is left to arrive), so it goes
  // as soon as the device is free.
  StubLoop loop(1, 3);
  loop.config.fleet.batch_max_age = sec(3);
  EXPECT_EQ(loop.run(4, sec(2), sec(1)), (Events{"a0@0", "a1@2", "d0@3:0,1", "a2@4", "d0@4:2"}));
}

TEST(EventLoopTest, FullOrBlockedRunDispatchesAtFreeTimeOrHeadArrival) {
  {
    // Full runs on a busy device go when it frees, whatever the age.
    StubLoop loop(1, 5);
    loop.config.fleet.batch_max_age = sec(10);
    loop.shards[0].free_at = sec(3);
    EXPECT_EQ(loop.run(2, sec(1), sec(5)), (Events{"a0@0", "a1@1", "a2@2", "a3@3", "d0@3:0,1",
                                                   "a4@4", "d0@8:2,3", "d0@13:4"}));
  }
  {
    // Another tenant queued behind the head stops its run from growing, so
    // it goes when that tenant's request arrives.
    StubLoop loop(1, 3);
    loop.config.fleet.batch_max_age = sec(10);
    loop.tenant = [](std::uint64_t id) { return static_cast<std::uint32_t>(id % 2); };
    EXPECT_EQ(loop.run(4, sec(1), sec(5)),
              (Events{"a0@0", "a1@1", "d0@1:0", "a2@2", "d0@6:1", "d0@11:2"}));
  }
  {
    // An idle device serves a full run at its head's arrival.
    StubLoop loop(1, 2);
    EXPECT_EQ(loop.run(1, sec(4), sec(1)), (Events{"a0@0", "d0@0:0", "a1@4", "d0@4:1"}));
  }
}

TEST(EventLoopTest, FullRunIsReadyAtItsNewestArrival) {
  // Request 0's run is held for the age; request 1 fills it at 1, so it is
  // served at 1, not at its head's arrival, before request 1 arrived.
  StubLoop loop(1, 3);
  loop.config.fleet.batch_max_age = sec(10);
  EXPECT_EQ(loop.run(2, sec(1), sec(1)), (Events{"a0@0", "a1@1", "d0@1:0,1", "a2@2", "d0@2:2"}));
}

TEST(EventLoopTest, LastArrivalEndsAHold) {
  // Request 0's run is held on shard 0 until request 1, the last, lands on
  // shard 1 at 1: no arrival can join it after that, so both runs go at 1,
  // not at their own arrivals, before the event that made them ready.
  StubLoop loop(2, 2);
  loop.config.fleet.batch_max_age = sec(10);
  loop.place = [](std::uint64_t id) { return static_cast<std::size_t>(id); };
  EXPECT_EQ(loop.run(4, sec(1), sec(5)), (Events{"a0@0", "a1@1", "d0@1:0", "d1@1:1"}));
}

TEST(EventLoopTest, EarliestReadyShardGoesFirstAndTheLowestIndexWinsATie) {
  // Shards 1 and 2 are both ready at 5, shard 0 only at 9.
  StubLoop loop(3, 3);
  loop.place = [](std::uint64_t id) { return static_cast<std::size_t>(2 - id); };
  loop.shards[0].free_at = sec(9);
  loop.shards[1].free_at = sec(5);
  loop.shards[2].free_at = sec(5);
  EXPECT_EQ(loop.run(1, sec(1), sec(1)),
            (Events{"a0@0", "a1@1", "a2@2", "d1@5:1", "d2@5:0", "d0@9:2"}));
}

TEST(EventLoopTest, ClosedLoopOffersNothingWhileAQueueHoldsARequest) {
  // Two requests are queued when the loop starts (a resume mid-stream): the
  // next arrival waits until both are served, and each later one arrives
  // when the device frees.
  StubLoop loop(1, 4);
  Shard& shard = loop.shards[0];
  shard.admit({0, 0, sec(0), {}}, loop.session);
  shard.admit({1, 0, sec(0), {}}, loop.session);
  EXPECT_EQ(loop.run(1, SimDuration(), sec(3), 2),
            (Events{"d0@0:0", "d0@3:1", "a2@6", "d0@6:2", "a3@9", "d0@9:3"}));
}

TEST(FleetConfigTest, ValidationRejectsDegenerateShapes) {
  FleetConfig fleet;
  fleet.num_devices = 0;
  EXPECT_THROW(fleet.validate(), Error);
  fleet = {};
  fleet.num_tenants = 0;
  EXPECT_THROW(fleet.validate(), Error);
  fleet = {};
  fleet.tenant_skew = -0.5;
  EXPECT_THROW(fleet.validate(), Error);
  fleet = {};
  fleet.batch_max_chunks = 0;
  EXPECT_THROW(fleet.validate(), Error);
  fleet = {};
  fleet.batch_max_age = SimDuration::micros(-1);
  EXPECT_THROW(fleet.validate(), Error);
  EXPECT_NO_THROW(FleetConfig{}.validate());

  EXPECT_EQ(parse_placement_policy("cache-aware"), PlacementPolicy::kCacheAware);
  EXPECT_EQ(parse_placement_policy("round-robin"), PlacementPolicy::kRoundRobin);
  EXPECT_EQ(parse_placement_policy("least-loaded"), PlacementPolicy::kLeastLoaded);
  EXPECT_THROW(parse_placement_policy("sticky"), Error);

  // The fleet router is open-loop only and serves frozen models: a closed
  // loop, online updates, or a checkpoint path are config errors.
  const CoDesignFramework framework;
  ServeConfig closed = fleet_config();
  closed.admission.offered_load = 0.0;
  EXPECT_THROW(serve_fleet(framework, closed), Error);
  ServeConfig online = fleet_config();
  online.online_updates = true;
  EXPECT_THROW(serve_fleet(framework, online), Error);
  ServeConfig ckpt = fleet_config();
  ckpt.checkpoint_path = "fleet.hdsv";
  EXPECT_THROW(serve_fleet(framework, ckpt), Error);
  // Nor does it write periodic snapshots, or record a trace, metrics or a
  // profile (the single-device loop does).
  ServeConfig periodic = fleet_config();
  periodic.snapshot_every_chunks = 2;
  periodic.snapshot_dir = "fleet_snapshots";
  EXPECT_THROW(serve_fleet(framework, periodic), Error);
  obs::TraceContext trace;
  CoDesignFramework traced;
  traced.set_trace(&trace);
  EXPECT_THROW(serve_fleet(traced, fleet_config()), Error);
  EXPECT_EQ(trace.size(), 0U);
}

}  // namespace
}  // namespace hdc::runtime

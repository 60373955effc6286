#include "runtime/router.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/online.hpp"
#include "data/stream.hpp"
#include "runtime/resilient.hpp"
#include "runtime/shard.hpp"
#include "tpu/device.hpp"
#include "tpu/faults.hpp"

namespace hdc::runtime {

namespace {

/// One tenant: its own drifting data distribution, its lowered deployment
/// image (whose class scores give the monitors their confidence), and the
/// class hypervectors it was lowered from, for the model-quality stats.
struct Tenant {
  tensor::MatrixF classes;
  ServingEndpoint::Model model;
  data::DriftStream stream;
};

/// Appends `"tenants":[{"tenant":t,<entry(t)>},...]` inside the JSON object
/// `json` (which always ends in '}').
template <typename Entry>
std::string with_tenants(std::string json, std::uint32_t tenants, Entry&& entry) {
  json.pop_back();
  json += ",\"tenants\":[";
  for (std::uint32_t t = 0; t < tenants; ++t) {
    if (t > 0) {
      json += ',';
    }
    json += "{\"tenant\":";
    json += std::to_string(t);
    json += ',';
    json += entry(t);
    json += '}';
  }
  json += "]}";
  return json;
}

}  // namespace

FleetResult serve_fleet(const CoDesignFramework& framework, const ServeConfig& config) {
  config.validate();
  const FleetConfig& fleet = config.fleet;
  const data::SyntheticSpec& spec = config.stream.spec;
  HDC_CHECK(config.admission.offered_load > 0.0,
            "the fleet router is open-loop only: set admission.offered_load > 0");
  HDC_CHECK(!config.online_updates,
            "the fleet serves frozen per-tenant models (no online updates)");
  HDC_CHECK(config.checkpoint_path.empty() && config.resume_from.empty(),
            "fleet serving does not checkpoint");
  HDC_CHECK(config.snapshot_every_chunks == 0,
            "fleet serving writes final snapshots only (no periodic snapshots)");
  HDC_CHECK(framework.trace_context() == nullptr,
            "fleet serving records no trace, metrics or profile (per-device trace "
            "tracks do not exist yet); use single-device serving for them");

  // The fleet-wide session: model quality over outcomes/calibration only.
  // Its dimension is 0: the served hidden layer never leaves the device.
  // Every shard engine also feeds the aggregate monitor over the fleet.
  ServingSession session(config, 0, SimDuration());
  LazyMonitor fleet_monitor;
  FleetResult result;

  // ---- shards: one full simulated accelerator per device -------------------
  // Each device draws faults from its own seed offset, so a flaky fleet does
  // not fail in lockstep; health/quarantine state is per shard.
  std::vector<Shard> shards;
  shards.reserve(fleet.num_devices);
  result.shards.resize(fleet.num_devices);
  for (std::uint32_t d = 0; d < fleet.num_devices; ++d) {
    tpu::FaultProfile profile = config.faults;
    profile.seed += d;
    shards.emplace_back(framework, profile, config, session, &fleet_monitor,
                        DeviceHealthTracker(config.health));
    result.shards[d].device_index = d;
  }

  // ---- tenants: independent streams, independently trained models ----------
  std::vector<Tenant> tenants;
  tenants.reserve(fleet.num_tenants);
  for (std::uint32_t t = 0; t < fleet.num_tenants; ++t) {
    data::StreamConfig stream_config = config.stream;
    stream_config.spec.seed += t;
    core::OnlineConfig learner_config = config.learner;
    learner_config.seed += t;
    data::DriftStream stream(stream_config);
    core::OnlineLearner learner(spec.features, spec.classes, learner_config);
    data::Dataset representative;
    for (std::uint32_t w = 0; w < config.warmup_chunks; ++w) {
      data::Dataset chunk = stream.next_chunk();
      learner.learn_batch(chunk);
      if (w == 0) {
        representative = std::move(chunk);
      }
    }
    ServingEndpoint::Model lowered = framework.lower_classifier(
        learner.freeze(), representative, "tenant_" + std::to_string(t));
    tenants.push_back(
        Tenant{learner.model().class_hypervectors(), std::move(lowered), std::move(stream)});
  }

  // Offered load stays in single-device full-tier service-rate units (tenant
  // 0's interactive per-sample cost), exactly like single-device serving —
  // which is what makes "batched 4-device at load L" and "unbatched 1-device
  // at load L" the same offered stream.
  const SimDuration period =
      arrival_period(config, shards.front().endpoint, tenants.front().model);

  // Zipf(skew) tenant popularity; skew 0 degenerates to uniform.
  std::vector<double> tenant_cdf(fleet.num_tenants);
  {
    double acc = 0.0;
    for (std::uint32_t t = 0; t < fleet.num_tenants; ++t) {
      acc += std::pow(static_cast<double>(t + 1), -fleet.tenant_skew);
      tenant_cdf[t] = acc;
    }
  }
  Rng tenant_rng(fleet.seed);
  const auto draw_tenant = [&]() -> std::uint32_t {
    const double u = tenant_rng.next_double() * tenant_cdf.back();
    const auto it = std::upper_bound(tenant_cdf.begin(), tenant_cdf.end(), u);
    const auto idx = static_cast<std::uint32_t>(it - tenant_cdf.begin());
    return std::min(idx, fleet.num_tenants - 1);
  };

  const std::uint64_t total_offered = config.serve_chunks;
  std::vector<std::vector<std::uint32_t>> preds(total_offered);
  // One full model-quality instance per tenant, sized with the session.
  std::vector<std::optional<obs::ModelQualityStats>> tenant_stats(fleet.num_tenants);

  // Energy: plain integer picojoule ledgers per shard and per tenant beside
  // the session's accountant. The ledgers fold the *same* deterministic
  // `attribute_energy` atoms the accountant records, so they sum
  // bit-exactly to the fleet total on every outcome path.
  std::vector<std::int64_t> tenant_energy(fleet.num_tenants, 0);
  const auto finish = [&](std::size_t shard, std::uint32_t tenant_index, obs::RequestTrace&& rt,
                          std::optional<obs::ExemplarReason> reason) {
    const std::int64_t pj =
        obs::attribute_energy(rt.attribution, config.energy.profile).total_pj();
    result.shards[shard].energy_pj += pj;
    tenant_energy[tenant_index] += pj;
    session.finish(std::move(rt), reason);
  };

  // Each tenant instance shares the session's config (resolved window,
  // dimension 0) and sees its own frozen model once (frozen fleet = one
  // observe_model each, no refreshes).
  const auto init_tenant_stats = [&]() {
    for (std::uint32_t t = 0; t < fleet.num_tenants; ++t) {
      tenant_stats[t].emplace(session.model->config());
      tenant_stats[t]->observe_model(tenants[t].classes);
    }
  };

  // ---- placement -----------------------------------------------------------
  // Fewest queued samples, then the earlier-free device, then the lowest index.
  const auto least_loaded = [&]() -> std::size_t {
    return static_cast<std::size_t>(
        std::min_element(shards.begin(), shards.end(), [](const Shard& a, const Shard& b) {
          return std::tie(a.engine.queued_samples, a.free_at) <
                 std::tie(b.engine.queued_samples, b.free_at);
        }) -
        shards.begin());
  };
  const auto place = [&](std::uint64_t id, std::uint32_t tenant) -> std::size_t {
    switch (fleet.placement) {
      case PlacementPolicy::kRoundRobin:
        return static_cast<std::size_t>(id % shards.size());
      case PlacementPolicy::kLeastLoaded:
        return least_loaded();
      case PlacementPolicy::kCacheAware:
        break;
    }
    // Tenant stickiness via SRAM residency (the parameter cache holds one
    // active model, so "device that last served this tenant" and "device
    // with the tenant's weights warm" coincide). The uncounted residency
    // probe keeps placement from perturbing the cache hit/miss telemetry.
    for (std::size_t d = 0; d < shards.size(); ++d) {
      if (shards[d].engine.queue.size() < config.admission.queue_capacity &&
          shards[d].endpoint.device().memory().is_resident(tenants[tenant].model.compiled.id)) {
        return d;
      }
    }
    return least_loaded();
  };

  // ---- one micro-batch: coalesce, expire, swap, serve, account -------------
  const auto dispatch = [&](std::size_t index, SimDuration td) {
    Shard& shard = shards[index];
    FleetShardResult& shard_result = result.shards[index];
    ShardEngine& engine = shard.engine;
    const SimDuration free_before = shard.free_at;
    const std::uint32_t tenant_index = engine.queue.front().tenant;
    Tenant& tenant = tenants[tenant_index];
    std::vector<QueuedRequest> batch;
    for (std::size_t k = engine.head_run(fleet.batch_max_chunks); k > 0; --k) {
      batch.push_back(engine.pop());
    }
    session.clock.set(td);

    const ServeTier tier = engine.admit_tier(td);
    if (engine.monitor.ready()) {
      engine.monitor->set_quarantined(engine.health.state() == DeviceHealth::kQuarantined, td);
    }

    // Per-member deadline check (the batch dispatches together, but each
    // member's budget runs from its own arrival): members that cannot finish
    // even their first sample expire unserved, the rest still form a batch.
    const SimDuration nominal = shard.endpoint.nominal_per_sample(tenant.model, tier);
    std::vector<QueuedRequest> live;
    live.reserve(batch.size());
    for (QueuedRequest& req : batch) {
      if (engine.expires(td - req.arrival, nominal)) {
        obs::RequestTrace rt = begin_trace(req, free_before, td);
        engine.expire(rt, td, tier);
        finish(index, tenant_index, std::move(rt), obs::ExemplarReason::kExpired);
      } else {
        live.push_back(std::move(req));
      }
    }
    if (live.empty()) {
      shard.free_at = std::max(shard.free_at, td);
      return;
    }

    std::uint64_t n_total = 0;
    for (const QueuedRequest& req : live) {
      n_total += req.data.num_samples();
    }
    tensor::MatrixF inputs(static_cast<std::size_t>(n_total), spec.features);
    float* row = inputs.data();
    for (const QueuedRequest& req : live) {
      row = std::copy_n(req.data.features.data(), req.data.features.size(), row);
    }

    // A tenant swap is a charged, counted upload, unlike single-device
    // serving's uncharged tier switches (see ServingEndpoint). Host-tier
    // batches never touch the device's cache.
    SimDuration swap_upload;
    if (tier != ServeTier::kHost) {
      swap_upload = shard.endpoint.swap(tenant.model, td);
      ++shard_result.cache_lookups;
      if (swap_upload.is_zero()) {
        ++shard_result.cache_hits;
      } else {
        ++shard_result.swaps;
        shard_result.swap_time += swap_upload;
      }
    }
    // Batched fleets stream the whole micro-batch through the pipelined
    // (double-buffered) path, amortizing the per-invoke USB overhead;
    // unbatched fleets keep single-device serving's interactive invoke. The
    // oldest member has the least remaining budget; it bounds the whole
    // batch's per-sample retry watchdog.
    const tpu::InvokeOptions options{.interactive = fleet.batch_max_chunks == 1,
                                     .pipelined = fleet.batch_max_chunks > 1};
    const SimDuration service_start = td + swap_upload;
    const ServingEndpoint::BatchOutcome outcome =
        shard.endpoint.infer(tenant.model, tier, options, inputs, service_start,
                             engine.budget(td - live.front().arrival));
    const ResilienceReport& report = outcome.report;
    const SimDuration service_total = outcome.total;
    const SimDuration end = service_start + service_total;
    const SimDuration per_sample =
        service_total * (1.0 / static_cast<double>(n_total));
    engine.feed_health(tier, end, report);
    if (engine.start_telemetry(swap_upload + service_total, n_total)) {
      init_tenant_stats();
    }
    engine.monitor->set_quarantined(engine.health.state() == DeviceHealth::kQuarantined, end);

    // ---- per-member accounting: traces, monitor samples, predictions ----
    std::size_t g = 0;
    for (const QueuedRequest& req : live) {
      const std::uint64_t n = req.data.num_samples();
      // One batch serves several requests, so each member's chain carries
      // the batch's summed service spans (serve keeps one per sample and
      // attempt instead).
      obs::RequestTrace rt = begin_trace(req, free_before, td);
      if (!swap_upload.is_zero()) {
        rt.append(obs::Stage::kSwap, swap_upload);
      }
      append_stage_spans(rt, report.device_stats, report.cpu_fallback_time);

      const SimDuration member_latency_base = (td - req.arrival) + swap_upload;
      preds[req.id].reserve(static_cast<std::size_t>(n));
      obs::ModelQualityStats& tstats = *tenant_stats[tenant_index];
      for (std::size_t j = 0; j < n; ++j, ++g) {
        const std::uint32_t predicted = outcome.predictions[g];
        const std::uint32_t label = req.data.labels[j];
        const SimDuration at = service_start + per_sample * static_cast<double>(g + 1);
        // The aggregate and this tenant's instance record the same sample.
        tstats.record(engine.record_sample(at, member_latency_base + per_sample, req.id,
                                           predicted, label, outcome.scores.row(g),
                                           tenant.model.hidden_dim()));
        preds[req.id].push_back(predicted);
      }
      const std::optional<obs::ExemplarReason> reason =
          engine.finish_served(rt, end, tier, report, member_latency_base + per_sample);
      finish(index, tenant_index, std::move(rt), reason);
    }
    engine.record_batch(end, n_total, tier, report);

    ++shard_result.batches;
    shard_result.busy += end - td;
    shard.free_at = end;
  };

  // ---- one arrival: draw the tenant, place, maybe shed ---------------------
  const auto arrive = [&](std::uint64_t id, SimDuration at) {
    const std::uint32_t tenant = draw_tenant();
    data::Dataset chunk = tenants[tenant].stream.next_chunk();
    ++result.offered_requests;
    result.offered_samples += chunk.num_samples();
    session.clock.set(at);

    const std::size_t index = place(id, tenant);
    std::optional<ShedRequest> shed =
        shards[index].engine.admit(QueuedRequest{id, tenant, at, std::move(chunk)});
    if (shed.has_value()) {
      finish(index, shed->tenant, std::move(shed->trace), obs::ExemplarReason::kShed);
    }
  };

  run_event_loop(config, shards, 0, fleet.batch_max_chunks, period, arrive, dispatch);

  // ---- finalize ------------------------------------------------------------
  // A shard (or the whole session) that never served a batch takes the
  // fallback sizing.
  for (Shard& shard : shards) {
    if (shard.engine.start_telemetry(SimDuration(), 0)) {
      init_tenant_stats();
    }
  }

  // A shard's last batch ends when the device is next free.
  SimDuration t_end;
  for (const Shard& shard : shards) {
    t_end = std::max(t_end, shard.free_at);
  }
  result.t_end = t_end;

  std::uint64_t correct_total = 0;

  for (std::size_t d = 0; d < shards.size(); ++d) {
    ShardEngine& engine = shards[d].engine;
    const ShardCounters& c = engine.counters;
    FleetShardResult& r = result.shards[d];
    r.t_end = shards[d].free_at;
    r.requests_served = c.served_requests;
    r.samples_served = c.served_samples;
    r.shed_requests = c.shed_requests;
    r.expired_requests = c.expired_requests;
    r.degraded_requests = c.degraded_requests;
    r.final_health = engine.health.state();
    r.quarantines = engine.health.quarantines();
    r.probes = engine.health.probes_attempted();
    r.final_snapshot = engine.monitor->snapshot(t_end);
    result.served_requests += c.served_requests;
    result.samples_served += c.served_samples;
    result.shed_requests += c.shed_requests;
    result.shed_samples += c.shed_samples;
    result.expired_requests += c.expired_requests;
    result.expired_samples += c.expired_samples;
    result.degraded_samples += c.degraded_samples;
    correct_total += c.correct_samples;
    result.batches += r.batches;
    result.cache_lookups += r.cache_lookups;
    result.cache_hits += r.cache_hits;
    result.swaps += r.swaps;
  }
  HDC_CHECK(result.cache_hits + result.swaps == result.cache_lookups,
            "cache telemetry must balance: hits + swaps == lookups");
  HDC_CHECK(result.offered_requests ==
                result.served_requests + result.shed_requests + result.expired_requests,
            "request conservation violated: offered != served + shed + expired");
  HDC_CHECK(result.offered_samples == result.samples_served + result.shed_samples +
                                          result.expired_samples,
            "sample conservation violated: offered != served + shed + expired");

  result.cache_hit_rate = ratio(result.cache_hits, result.cache_lookups);
  result.mean_batch_chunks = ratio(result.served_requests, result.batches);
  result.lifetime_accuracy = ratio(correct_total, result.samples_served);

  result.fleet_snapshot = fleet_monitor->snapshot(t_end);
  result.events = fleet_monitor->alarms().events();

  result.fleet_model = session.model->snapshot(t_end);
  result.model_events = session.model->alarms().events();
  result.tenant_models.reserve(fleet.num_tenants);
  std::uint64_t tenant_sample_sum = 0;
  for (std::uint32_t t = 0; t < fleet.num_tenants; ++t) {
    result.tenant_models.push_back(tenant_stats[t]->snapshot(t_end));
    tenant_sample_sum += result.tenant_models.back().samples_total;
  }
  HDC_CHECK(result.fleet_model.samples_total == result.samples_served,
            "model-quality conservation violated: aggregate samples != served");
  HDC_CHECK(tenant_sample_sum == result.samples_served,
            "model-quality conservation violated: tenant samples don't sum to served");

  result.fleet_energy = session.energy->snapshot(t_end);
  result.energy_events = session.energy->alarms().events();
  result.tenant_energy_pj = std::move(tenant_energy);
  std::int64_t shard_energy_sum = 0;
  for (const FleetShardResult& shard : result.shards) {
    shard_energy_sum += shard.energy_pj;
  }
  std::int64_t tenant_energy_sum = 0;
  for (const std::int64_t pj : result.tenant_energy_pj) {
    tenant_energy_sum += pj;
  }
  HDC_CHECK(shard_energy_sum == result.fleet_energy.total_pj,
            "energy conservation violated: shard ledgers don't sum to fleet total");
  HDC_CHECK(tenant_energy_sum == result.fleet_energy.total_pj,
            "energy conservation violated: tenant ledgers don't sum to fleet total");

  // The fleet snapshot's `model` and `energy` objects are the aggregates
  // with the per-tenant views spliced in as a `tenants` array; gates and
  // Prometheus carry the aggregates only.
  splice_sections(
      result.fleet_snapshot, result.fleet_model,
      with_tenants(result.fleet_model.to_json(), fleet.num_tenants,
                   [&](std::uint32_t t) {
                     return "\"model\":" + result.tenant_models[t].to_json();
                   }),
      result.fleet_energy,
      with_tenants(result.fleet_energy.to_json(), fleet.num_tenants, [&](std::uint32_t t) {
        return "\"total_pj\":" + std::to_string(result.tenant_energy_pj[t]);
      }));

  result.predictions.reserve(static_cast<std::size_t>(result.samples_served));
  for (const auto& chunk_preds : preds) {
    result.predictions.insert(result.predictions.end(), chunk_preds.begin(),
                              chunk_preds.end());
  }
  // Requests finish out of offered order (shedding, batching, expiry);
  // results list them by offered index.
  result.requests.resize(total_offered);
  for (obs::RequestTrace& rt : session.requests) {
    result.requests[rt.request_id] = std::move(rt);
  }
  result.attribution_total = session.attribution_total;
  result.requests_traced = session.requests_traced;
  result.exemplar_records.assign(session.exemplars.exemplars().begin(),
                                 session.exemplars.exemplars().end());

  if (!config.snapshot_dir.empty()) {
    std::filesystem::create_directories(config.snapshot_dir);
    for (const FleetShardResult& shard : result.shards) {
      write_text_file((std::filesystem::path(config.snapshot_dir) /
                       numbered("shard_%02u_snapshot.json", shard.device_index))
                          .string(),
                      shard.final_snapshot.to_json());
    }
  }
  export_snapshot(config, "fleet_snapshot_final.json", result.fleet_snapshot);
  session.write_exemplars();

  session.clock.set(t_end);
  HDC_LOG_INFO << "serve_fleet: " << result.samples_served << " samples over "
               << result.t_end.to_string() << " simulated on " << fleet.num_devices
               << " devices / " << fleet.num_tenants << " tenants ("
               << placement_name(fleet.placement) << "), " << result.batches
               << " batches (mean " << result.mean_batch_chunks
               << " chunks), cache hit rate " << result.cache_hit_rate
               << ", lifetime accuracy " << result.lifetime_accuracy << ", shed "
               << result.shed_requests << " / expired " << result.expired_requests
               << " requests, energy " << result.fleet_energy.total_joules() << " J";
  return result;
}

}  // namespace hdc::runtime

#include "runtime/router.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/online.hpp"
#include "data/stream.hpp"
#include "platform/cpu_executor.hpp"
#include "runtime/resilient.hpp"
#include "tpu/device.hpp"
#include "tpu/faults.hpp"

namespace hdc::runtime {

namespace {

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  HDC_CHECK(out.good(), "cannot open '" + path + "' for writing");
  out << content;
  HDC_CHECK(out.good(), "failed writing '" + path + "'");
}

/// Feeds the router's simulated clock to the structured log for the lifetime
/// of the session (same convention as the single-device serve loop).
class LogClockScope {
 public:
  explicit LogClockScope(const double* clock) {
    log::set_time_provider([clock] { return *clock; });
  }
  ~LogClockScope() { log::set_time_provider(nullptr); }
  LogClockScope(const LogClockScope&) = delete;
  LogClockScope& operator=(const LogClockScope&) = delete;
};

/// A monitor admission record buffered until the (lazily sized) monitor
/// exists; replayed in order at construction.
struct AdmissionRecord {
  SimDuration at;
  std::uint64_t offered = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t degraded = 0;
};

/// A `ServingMonitor` whose window span / SLO target auto-size from the
/// first served batch (the single-device serve loop's lazy convention, one
/// instance per shard plus one fleet-wide aggregate).
struct LazyMonitor {
  std::optional<obs::ServingMonitor> monitor;
  std::vector<AdmissionRecord> pending;

  void record_admission(SimDuration at, std::uint64_t offered, std::uint64_t shed,
                        std::uint64_t expired, std::uint64_t degraded) {
    if (monitor.has_value()) {
      monitor->record_admission(at, offered, shed, expired, degraded);
    } else {
      pending.push_back({at, offered, shed, expired, degraded});
    }
  }

  void init(const obs::MonitorConfig& config) {
    monitor.emplace(config);
    for (const AdmissionRecord& rec : pending) {
      monitor->record_admission(rec.at, rec.offered, rec.shed, rec.expired,
                                rec.degraded);
    }
    pending.clear();
  }
};

/// One tenant: its own drifting data distribution, its frozen scoring model
/// (margins for the drift monitor) and its lowered deployment image.
struct Tenant {
  core::OnlineLearner scorer;
  CoDesignFramework::LoweredModel model;
  data::DriftStream stream;
  SimDuration nominal_device;  ///< fault-free interactive per-sample cost
  SimDuration nominal_host;    ///< float model per-sample cost on the CPU
};

/// One offered request: a chunk of one tenant's stream.
struct FleetRequest {
  std::uint64_t id = 0;
  std::uint32_t tenant = 0;
  SimDuration arrival;
  data::Dataset data;
};

/// One device behind the router: a full simulated accelerator with its own
/// fault stream, health state machine, bounded queue and SLO monitor.
struct Shard {
  Shard(const SystemConfig& system, const tpu::FaultProfile& faults,
        const HealthConfig& health_config)
      : device(system.systolic, system.link, system.sram_bytes),
        health(health_config) {
    device.set_fault_injector(tpu::FaultInjector(faults));
  }

  tpu::EdgeTpuDevice device;
  DeviceHealthTracker health;
  std::deque<FleetRequest> queue;
  std::uint64_t queued_samples = 0;
  SimDuration free_at;
  LazyMonitor monitor;
  FleetShardResult result;
};

/// Splits a member's pre-service wait into the device-busy portion
/// (`kQueueWait`, the time the shard was still serving earlier batches) and
/// the batching hold (`kBatchWait`, time spent waiting for the micro-batch
/// to coalesce or age out). The two spans sum exactly to the wait.
void append_wait_spans(obs::RequestTrace& rt, SimDuration arrival,
                       SimDuration free_before, SimDuration dispatch) {
  const SimDuration wait = dispatch - arrival;
  if (wait.is_zero()) {
    return;
  }
  SimDuration queue_wait;
  if (free_before > arrival) {
    queue_wait = std::min(wait, free_before - arrival);
  }
  const SimDuration batch_wait = wait - queue_wait;
  if (!queue_wait.is_zero()) {
    rt.append(obs::Stage::kQueueWait, queue_wait);
  }
  if (!batch_wait.is_zero()) {
    rt.append(obs::Stage::kBatchWait, batch_wait);
  }
}

/// Appends the batch's service-stage spans from the resilience report. The
/// appended durations sum exactly to `report.total()`: pipelined batches
/// report `weight_upload + pipelined_makespan + retry_backoff`, serial ones
/// the plain stage sum (mirrors the resilient executor's own span shapes).
void append_service_spans(obs::RequestTrace& rt, const ResilienceReport& report) {
  const tpu::ExecutionStats& d = report.device_stats;
  if (!d.pipelined_makespan.is_zero()) {
    if (!d.weight_upload.is_zero()) {
      rt.append(obs::Stage::kTransfer, d.weight_upload);
    }
    rt.append(obs::Stage::kDevice, d.pipelined_makespan);
    if (!d.retry_backoff.is_zero()) {
      rt.append(obs::Stage::kBackoff, d.retry_backoff);
    }
  } else {
    if (!d.retry_backoff.is_zero()) {
      rt.append(obs::Stage::kBackoff, d.retry_backoff);
    }
    if (!d.transfer.is_zero()) {
      rt.append(obs::Stage::kTransfer, d.transfer);
    }
    if (!d.weight_upload.is_zero()) {
      rt.append(obs::Stage::kTransfer, d.weight_upload);
    }
    if (!d.device_compute.is_zero()) {
      rt.append(obs::Stage::kDevice, d.device_compute);
    }
    if (!d.host_compute.is_zero()) {
      rt.append(obs::Stage::kDeviceHost, d.host_compute);
    }
  }
  if (!report.cpu_fallback_time.is_zero()) {
    rt.append(obs::Stage::kHost, report.cpu_fallback_time);
  }
}

std::string shard_snapshot_path(const std::string& dir, std::uint32_t index) {
  char name[48];
  std::snprintf(name, sizeof(name), "shard_%02u_snapshot.json", index);
  return (std::filesystem::path(dir) / name).string();
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

  const platform::CpuExecutor cpu(framework.config().host);
  tpu::InvokeOptions nominal_options;
  nominal_options.mode = tpu::ExecutionMode::kFunctional;
  nominal_options.interactive = true;

  // ---- shards: one full simulated accelerator per device -------------------
  // Each device draws faults from its own seed offset, so a flaky fleet does
  // not fail in lockstep; health/quarantine state is per shard.
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(fleet.num_devices);
  for (std::uint32_t d = 0; d < fleet.num_devices; ++d) {
    tpu::FaultProfile profile = config.faults;
    profile.seed += d;
    auto shard = std::make_unique<Shard>(framework.config(), profile, config.health);
    shard->result.device_index = d;
    shards.push_back(std::move(shard));
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
    CoDesignFramework::LoweredModel lowered = framework.lower_classifier(
        learner.freeze(), representative, "tenant_" + std::to_string(t));
    const SimDuration nominal_device =
        shards.front()
            ->device
            .per_sample_cost(lowered.compiled, nominal_options,
                             framework.config().host.host_cost_model())
            .total();
    const SimDuration nominal_host = cpu.per_sample_time(lowered.float_model);
    tenants.push_back(Tenant{std::move(learner), std::move(lowered), std::move(stream),
                             nominal_device, nominal_host});
  }

  // Offered load stays in single-device full-tier service-rate units (tenant
  // 0's interactive per-sample cost), exactly like single-device serving —
  // which is what makes "batched 4-device at load L" and "unbatched 1-device
  // at load L" the same offered stream.
  const SimDuration arrival_period =
      tenants.front().nominal_device *
      (static_cast<double>(config.stream.chunk_size) / config.admission.offered_load);

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

  FleetResult result;
  const std::uint64_t total_offered = config.serve_chunks;
  std::vector<obs::RequestTrace> traces(total_offered);
  std::vector<std::vector<std::uint32_t>> preds(total_offered);
  obs::ExemplarStore exemplar_store(config.exemplars);
  LazyMonitor fleet_monitor;
  // Model quality: one fleet-wide aggregate (outcomes/calibration only —
  // tenants encode with different seeds, so cross-tenant dimensions are not
  // comparable and `dim` stays 0) plus one full instance per tenant.
  std::optional<obs::ModelQualityStats> fleet_stats;
  std::vector<std::optional<obs::ModelQualityStats>> tenant_stats(fleet.num_tenants);
  std::uint64_t correct_total = 0;

  // Energy: one fleet-wide accountant (lazily sized off the fleet monitor's
  // resolved window, pending records replayed in order) plus plain integer
  // picojoule ledgers per shard and per tenant. The ledgers fold the *same*
  // deterministic `attribute_energy` atoms the accountant records, so they
  // sum bit-exactly to the fleet total on every outcome path.
  std::optional<obs::EnergyAccountant> fleet_energy;
  std::vector<obs::EnergyAccountant::Request> pending_energy;
  std::vector<std::int64_t> tenant_energy(fleet.num_tenants, 0);

  double log_clock = 0.0;
  LogClockScope log_scope(&log_clock);

  /// Charges a finalized request's energy to its shard and tenant ledgers
  /// and to the fleet accountant (or the pending buffer before lazy init).
  /// Must run after `rt.finalize` and before `finish_request` moves `rt`.
  const auto record_energy = [&](Shard& shard, std::uint32_t tenant_index,
                                 const obs::RequestTrace& rt) {
    obs::EnergyAccountant::Request ereq;
    ereq.at = rt.end;
    ereq.attribution = rt.attribution;
    ereq.outcome = rt.outcome;
    ereq.samples = rt.outcome == obs::RequestOutcome::kServed ? rt.samples : 0;
    ereq.degraded = rt.tier != 0;
    ereq.request_id = static_cast<std::int64_t>(rt.request_id);
    const std::int64_t pj =
        obs::attribute_energy(rt.attribution, config.energy.profile).total_pj();
    shard.result.energy_pj += pj;
    tenant_energy[tenant_index] += pj;
    if (fleet_energy.has_value()) {
      fleet_energy->record(ereq);
    } else {
      pending_energy.push_back(std::move(ereq));
    }
  };

  const auto finish_request = [&](obs::RequestTrace&& rt,
                                  std::optional<obs::ExemplarReason> reason) {
    result.attribution_total += rt.attribution;
    ++result.requests_traced;
    if (reason.has_value()) {
      exemplar_store.offer(*reason, rt);
    }
    traces[rt.request_id] = std::move(rt);
  };

  const auto monitor_config = [&](SimDuration batch_total, SimDuration per_sample) {
    obs::MonitorConfig mc = config.monitor;
    mc.num_classes = spec.classes;
    if (mc.window.span.is_zero()) {
      mc.window.span = batch_total * 4.0;
    }
    if (mc.window.buckets == 0) {
      mc.window.buckets = 16;
    }
    if (mc.slo_latency.is_zero()) {
      mc.slo_latency = per_sample * 1.5;
    }
    return mc;
  };

  // Shares the fleet monitor's resolved window and lifecycle. Each tenant
  // instance sees its own frozen scorer model once (frozen fleet = one
  // observe_model each, no refreshes).
  const auto init_model_stats = [&](const obs::WindowConfig& window) {
    obs::ModelStatsConfig msc = config.model_stats;
    msc.num_classes = spec.classes;
    msc.window = window;
    msc.dim = 0;
    fleet_stats.emplace(msc);
    msc.dim = config.learner.dim;
    for (std::uint32_t t = 0; t < fleet.num_tenants; ++t) {
      tenant_stats[t].emplace(msc);
      tenant_stats[t]->observe_model(tenants[t].scorer.model().class_hypervectors());
    }
  };

  // ---- placement -----------------------------------------------------------
  const auto least_loaded = [&]() -> Shard& {
    Shard* best = shards.front().get();
    for (const auto& shard : shards) {
      if (shard->queued_samples < best->queued_samples ||
          (shard->queued_samples == best->queued_samples &&
           shard->free_at < best->free_at)) {
        best = shard.get();
      }
    }
    return *best;
  };
  const auto place = [&](std::uint64_t id, std::uint32_t tenant) -> Shard& {
    switch (fleet.placement) {
      case PlacementPolicy::kRoundRobin:
        return *shards[static_cast<std::size_t>(id % shards.size())];
      case PlacementPolicy::kLeastLoaded:
        return least_loaded();
      case PlacementPolicy::kCacheAware:
        break;
    }
    // Tenant stickiness via SRAM residency (the parameter cache holds one
    // active model, so "device that last served this tenant" and "device
    // with the tenant's weights warm" coincide). The uncounted residency
    // probe keeps placement from perturbing the cache hit/miss telemetry.
    for (const auto& shard : shards) {
      if (shard->queue.size() < config.admission.queue_capacity &&
          shard->device.memory().is_resident(tenants[tenant].model.compiled.id)) {
        return *shard;
      }
    }
    return least_loaded();
  };

  // ---- dispatch readiness --------------------------------------------------
  std::uint64_t next_arrival = 0;
  // A shard's head batch is dispatched as soon as the device is free once the
  // batch cannot grow further: the same-tenant run hit `batch_max_chunks`, a
  // different tenant is queued behind it, or no arrivals remain. Only a
  // growable run is held for `batch_max_age` past its head's arrival.
  const auto dispatch_at = [&](const Shard& shard) -> SimDuration {
    const FleetRequest& head = shard.queue.front();
    std::size_t run = 1;
    while (run < shard.queue.size() && run < fleet.batch_max_chunks &&
           shard.queue[run].tenant == head.tenant) {
      ++run;
    }
    const bool full = run >= fleet.batch_max_chunks;
    const bool growable = run == shard.queue.size() && next_arrival < total_offered;
    if (full || !growable) {
      return std::max(shard.free_at, head.arrival);
    }
    return std::max(shard.free_at, head.arrival + fleet.batch_max_age);
  };

  // ---- one micro-batch: coalesce, expire, swap, serve, account -------------
  const auto dispatch = [&](Shard& shard, SimDuration td) {
    const SimDuration free_before = shard.free_at;
    const std::uint32_t tenant_index = shard.queue.front().tenant;
    Tenant& tenant = tenants[tenant_index];
    std::vector<FleetRequest> batch;
    while (!shard.queue.empty() && batch.size() < fleet.batch_max_chunks &&
           shard.queue.front().tenant == tenant_index) {
      shard.queued_samples -= shard.queue.front().data.num_samples();
      batch.push_back(std::move(shard.queue.front()));
      shard.queue.pop_front();
    }
    log_clock = td.to_seconds();

    const ServeTier tier = shard.health.admit_tier(td, shard.queue.size(),
                                                   config.admission.degrade_backlog);
    if (shard.monitor.monitor.has_value()) {
      shard.monitor.monitor->set_quarantined(
          shard.health.state() == DeviceHealth::kQuarantined, td);
    }

    // Per-member deadline check (the batch dispatches together, but each
    // member's budget runs from its own arrival): members that cannot finish
    // even their first sample expire unserved, the rest still form a batch.
    const SimDuration deadline = config.admission.deadline;
    const SimDuration nominal =
        tier == ServeTier::kHost ? tenant.nominal_host : tenant.nominal_device;
    std::vector<FleetRequest> live;
    live.reserve(batch.size());
    for (FleetRequest& req : batch) {
      const SimDuration wait = td - req.arrival;
      if (!deadline.is_zero() && wait + nominal > deadline) {
        const std::uint64_t n = req.data.num_samples();
        ++result.expired_requests;
        result.expired_samples += n;
        ++shard.result.expired_requests;
        shard.monitor.record_admission(td, n, 0, n, 0);
        fleet_monitor.record_admission(td, n, 0, n, 0);
        obs::RequestTrace rt;
        rt.begin(req.id, req.arrival);
        rt.samples = n;
        append_wait_spans(rt, req.arrival, free_before, td);
        rt.outcome = obs::RequestOutcome::kExpired;
        rt.tier = static_cast<std::uint8_t>(tier);
        rt.finalize(td);
        record_energy(shard, tenant_index, rt);
        finish_request(std::move(rt), obs::ExemplarReason::kExpired);
      } else {
        live.push_back(std::move(req));
      }
    }
    if (live.empty()) {
      shard.free_at = std::max(shard.free_at, td);
      shard.result.t_end = std::max(shard.result.t_end, td);
      return;
    }

    std::uint64_t n_total = 0;
    for (const FleetRequest& req : live) {
      n_total += req.data.num_samples();
    }
    tensor::MatrixF inputs(static_cast<std::size_t>(n_total), spec.features);
    {
      std::size_t row = 0;
      for (const FleetRequest& req : live) {
        for (std::size_t j = 0; j < req.data.num_samples(); ++j, ++row) {
          const auto src = req.data.features.row(j);
          std::copy(src.begin(), src.end(), inputs.row(row).begin());
        }
      }
    }

    // The oldest member has the least remaining budget; it bounds the whole
    // batch's per-sample retry watchdog.
    const SimDuration budget =
        deadline.is_zero() ? SimDuration() : deadline - (td - live.front().arrival);

    SimDuration swap_upload;
    std::vector<std::uint32_t> predictions;
    ResilienceReport report;
    SimDuration service_total;
    if (tier == ServeTier::kHost) {
      // Quarantined (or probing-denied) shard: the tenant's float model on
      // the CPU; the device clock, SRAM and fault schedule sit idle.
      auto [res, time] =
          cpu.run(tenant.model.float_model, inputs, tpu::ExecutionMode::kFunctional);
      HDC_CHECK(res.has_classes, "inference model must end in ARG_MAX");
      predictions.assign(res.classes.begin(), res.classes.end());
      report.cpu_fallback_time = time;
      report.cpu_samples = n_total;
      service_total = time;
    } else {
      // Sync the device clock forward to the dispatch: idle gaps are real
      // simulated time the detach schedule sees.
      if (shard.device.clock() < td) {
        shard.device.advance_clock(td - shard.device.clock());
      }
      // The tenant swap is a *charged* weight upload (unlike single-device
      // serving's uncharged deploys): multi-tenancy pays for cache misses,
      // which is exactly what cache-aware placement amortizes.
      const tpu::ExecutionStats swap_stats = shard.device.load(tenant.model.compiled);
      swap_upload = swap_stats.weight_upload;
      ++shard.result.cache_lookups;
      if (swap_upload.is_zero()) {
        ++shard.result.cache_hits;
      } else {
        ++shard.result.swaps;
        shard.result.swap_time += swap_upload;
        shard.device.advance_clock(swap_upload);
      }

      RetryPolicy policy = config.retry;
      policy.sample_deadline = budget;
      ResilientExecutor executor(&shard.device, cpu, policy);
      tpu::InvokeOptions options;
      options.mode = tpu::ExecutionMode::kFunctional;
      // Batched fleets stream the whole micro-batch through the pipelined
      // (double-buffered) path, amortizing the per-invoke USB overhead;
      // unbatched fleets keep single-device serving's interactive invoke.
      options.interactive = fleet.batch_max_chunks == 1;
      options.pipelined = fleet.batch_max_chunks > 1;
      ResilientExecutor::Outcome run = executor.run(
          tenant.model.compiled, tenant.model.float_model, inputs, options, nullptr);
      HDC_CHECK(run.result.has_classes, "inference model must end in ARG_MAX");
      predictions.assign(run.result.classes.begin(), run.result.classes.end());
      report = run.report;
      service_total = report.total();
    }

    const SimDuration service_start = td + swap_upload;
    const SimDuration end = service_start + service_total;
    const SimDuration per_sample =
        service_total * (1.0 / static_cast<double>(n_total));
    const bool faulty = report.circuit_opened || report.cpu_samples > 0 ||
                        report.device_stats.invoke_retries > 0;

    if (tier != ServeTier::kHost) {
      shard.health.on_batch(end, faulty, report.circuit_opened);
    }

    if (!shard.monitor.monitor.has_value()) {
      shard.monitor.init(monitor_config(swap_upload + service_total,
                                        (swap_upload + service_total) *
                                            (1.0 / static_cast<double>(n_total))));
    }
    if (!fleet_monitor.monitor.has_value()) {
      const obs::MonitorConfig mc =
          monitor_config(swap_upload + service_total,
                         (swap_upload + service_total) *
                             (1.0 / static_cast<double>(n_total)));
      fleet_monitor.init(mc);
      init_model_stats(mc.window);
      obs::EnergyConfig ec = config.energy;
      ec.window = mc.window;
      fleet_energy.emplace(ec);
      for (const obs::EnergyAccountant::Request& req : pending_energy) {
        fleet_energy->record(req);
      }
      pending_energy.clear();
    }
    shard.monitor.monitor->set_quarantined(
        shard.health.state() == DeviceHealth::kQuarantined, end);

    // ---- per-member accounting: traces, monitor samples, predictions ----
    std::size_t g = 0;
    for (const FleetRequest& req : live) {
      const std::uint64_t n = req.data.num_samples();
      obs::RequestTrace rt;
      rt.begin(req.id, req.arrival);
      rt.samples = n;
      append_wait_spans(rt, req.arrival, free_before, td);
      if (!swap_upload.is_zero()) {
        rt.append(obs::Stage::kSwap, swap_upload);
      }
      append_service_spans(rt, report);
      rt.outcome = obs::RequestOutcome::kServed;
      rt.tier = static_cast<std::uint8_t>(tier);
      rt.faulty = faulty;
      rt.finalize(end);

      const SimDuration member_latency_base = (td - req.arrival) + swap_upload;
      std::uint64_t member_correct = 0;
      preds[req.id].reserve(static_cast<std::size_t>(n));
      // One batch encode per request; the decision and the dimension window
      // read its rows.
      const tensor::MatrixF encoded = tenant.scorer.encoder().encode_batch(req.data.features);
      for (std::size_t j = 0; j < n; ++j, ++g) {
        const std::uint32_t predicted = predictions[g];
        const std::uint32_t label = req.data.labels[j];
        const core::OnlineLearner::Decision decision =
            tenant.scorer.decide_encoded(encoded.row(j));
        obs::ServingMonitor::Sample sample;
        sample.at = service_start + per_sample * static_cast<double>(g + 1);
        sample.latency = member_latency_base + per_sample;
        sample.request_id = static_cast<std::int64_t>(req.id);
        sample.predicted = predicted;
        sample.correct = predicted == label;
        sample.margin = decision.margin();
        log_clock = sample.at.to_seconds();
        shard.monitor.monitor->record(sample);
        fleet_monitor.monitor->record(sample);

        // Served samples only, into both the aggregate and this tenant's
        // instance; dimensions go to the tenant alone (its own encoder).
        obs::ModelQualityStats::Sample msample;
        msample.at = sample.at;
        msample.predicted = predicted;
        msample.label = label;
        msample.top1 = static_cast<double>(decision.top1);
        msample.request_id = static_cast<std::int64_t>(req.id);
        fleet_stats->record(msample);
        obs::ModelQualityStats& tstats = *tenant_stats[tenant_index];
        tstats.record(msample);
        tstats.record_dimensions(sample.at, label, encoded.row(j));

        member_correct += predicted == label ? 1 : 0;
        preds[req.id].push_back(predicted);
      }
      correct_total += member_correct;
      result.samples_served += n;
      ++result.served_requests;
      ++shard.result.requests_served;
      shard.result.samples_served += n;
      if (tier != ServeTier::kFull) {
        ++shard.result.degraded_requests;
        result.degraded_samples += n;
      }

      shard.monitor.monitor->record_attribution(end, rt.attribution);
      fleet_monitor.monitor->record_attribution(end, rt.attribution);

      std::optional<obs::ExemplarReason> reason;
      if (tier != ServeTier::kFull || report.cpu_samples > 0) {
        reason = obs::ExemplarReason::kTierFallback;
      } else if (member_latency_base + per_sample >=
                 shard.monitor.monitor->latency_quantile(end, 0.99)) {
        reason = obs::ExemplarReason::kTailLatency;
      }
      record_energy(shard, tenant_index, rt);
      finish_request(std::move(rt), reason);
    }

    log_clock = end.to_seconds();
    shard.monitor.monitor->record_transport(end, n_total, report.cpu_samples,
                                            report.device_stats.invoke_retries);
    fleet_monitor.monitor->record_transport(end, n_total, report.cpu_samples,
                                            report.device_stats.invoke_retries);
    const std::uint64_t degraded = tier != ServeTier::kFull ? n_total : 0;
    shard.monitor.record_admission(end, n_total, 0, 0, degraded);
    fleet_monitor.record_admission(end, n_total, 0, 0, degraded);

    ++shard.result.batches;
    shard.result.busy += end - td;
    shard.free_at = end;
    shard.result.t_end = end;
  };

  // ---- event loop: arrivals and dispatches in global time order ------------
  // Arrivals win ties so a chunk landing exactly at a shard's dispatch time
  // still joins that batch (same convention as the single-device loop, where
  // an arrival at the service start is admitted first).
  while (true) {
    Shard* ready = nullptr;
    SimDuration ready_at;
    for (const auto& shard : shards) {
      if (shard->queue.empty()) {
        continue;
      }
      const SimDuration at = dispatch_at(*shard);
      if (ready == nullptr || at < ready_at) {
        ready = shard.get();
        ready_at = at;
      }
    }
    const bool arrivals_left = next_arrival < total_offered;
    if (!arrivals_left && ready == nullptr) {
      break;
    }
    const SimDuration arrival = arrival_period * static_cast<double>(next_arrival);
    if (!arrivals_left || (ready != nullptr && ready_at < arrival)) {
      dispatch(*ready, ready_at);
      continue;
    }

    // ---- one arrival: draw the tenant, place, maybe shed -------------------
    const std::uint32_t tenant = draw_tenant();
    data::Dataset chunk = tenants[tenant].stream.next_chunk();
    const std::uint64_t id = next_arrival++;
    const std::uint64_t n = chunk.num_samples();
    ++result.offered_requests;
    result.offered_samples += n;
    log_clock = arrival.to_seconds();

    Shard& shard = place(id, tenant);
    if (shard.queue.size() >= config.admission.queue_capacity) {
      if (config.admission.policy == ShedPolicy::kRejectNewest) {
        ++result.shed_requests;
        result.shed_samples += n;
        ++shard.result.shed_requests;
        shard.monitor.record_admission(arrival, n, n, 0, 0);
        fleet_monitor.record_admission(arrival, n, n, 0, 0);
        obs::RequestTrace rt;
        rt.begin(id, arrival);
        rt.samples = n;
        rt.outcome = obs::RequestOutcome::kShed;
        rt.finalize(arrival);  // refused on arrival: zero latency
        record_energy(shard, tenant, rt);
        finish_request(std::move(rt), obs::ExemplarReason::kShed);
        continue;
      }
      // kDropOldest: the stalest request queued on this shard makes room.
      FleetRequest dropped = std::move(shard.queue.front());
      shard.queue.pop_front();
      const std::uint64_t dn = dropped.data.num_samples();
      shard.queued_samples -= dn;
      ++result.shed_requests;
      result.shed_samples += dn;
      ++shard.result.shed_requests;
      shard.monitor.record_admission(arrival, dn, dn, 0, 0);
      fleet_monitor.record_admission(arrival, dn, dn, 0, 0);
      obs::RequestTrace rt;
      rt.begin(dropped.id, dropped.arrival);
      rt.samples = dn;
      rt.outcome = obs::RequestOutcome::kShed;
      if (arrival > dropped.arrival) {
        rt.append(obs::Stage::kQueueWait, arrival - dropped.arrival);
      }
      rt.finalize(arrival);
      record_energy(shard, dropped.tenant, rt);
      finish_request(std::move(rt), obs::ExemplarReason::kShed);
    }
    shard.queued_samples += n;
    shard.queue.push_back(FleetRequest{id, tenant, arrival, std::move(chunk)});
  }

  // ---- finalize ------------------------------------------------------------
  const auto degenerate_config = [&]() {
    obs::MonitorConfig mc = config.monitor;
    mc.num_classes = spec.classes;
    if (mc.window.span.is_zero()) {
      mc.window.span = SimDuration::millis(1);
    }
    if (mc.window.buckets == 0) {
      mc.window.buckets = 16;
    }
    if (mc.slo_latency.is_zero()) {
      mc.slo_latency = SimDuration::micros(100);
    }
    return mc;
  };
  if (!fleet_monitor.monitor.has_value()) {
    fleet_monitor.init(degenerate_config());
  }
  if (!fleet_stats.has_value()) {
    init_model_stats(degenerate_config().window);
  }
  if (!fleet_energy.has_value()) {
    obs::EnergyConfig ec = config.energy;
    ec.window = degenerate_config().window;
    fleet_energy.emplace(ec);
    for (const obs::EnergyAccountant::Request& req : pending_energy) {
      fleet_energy->record(req);
    }
    pending_energy.clear();
  }

  SimDuration t_end;
  for (const auto& shard : shards) {
    t_end = std::max(t_end, shard->result.t_end);
  }
  result.t_end = t_end;

  for (auto& shard : shards) {
    if (!shard->monitor.monitor.has_value()) {
      shard->monitor.init(degenerate_config());
    }
    shard->result.final_health = shard->health.state();
    shard->result.quarantines = shard->health.quarantines();
    shard->result.probes = shard->health.probes_attempted();
    shard->result.final_snapshot = shard->monitor.monitor->snapshot(t_end);
    result.batches += shard->result.batches;
    result.cache_lookups += shard->result.cache_lookups;
    result.cache_hits += shard->result.cache_hits;
    result.swaps += shard->result.swaps;
    result.shards.push_back(std::move(shard->result));
  }
  HDC_CHECK(result.cache_hits + result.swaps == result.cache_lookups,
            "cache telemetry must balance: hits + swaps == lookups");
  HDC_CHECK(result.offered_requests ==
                result.served_requests + result.shed_requests + result.expired_requests,
            "request conservation violated: offered != served + shed + expired");
  HDC_CHECK(result.offered_samples == result.samples_served + result.shed_samples +
                                          result.expired_samples,
            "sample conservation violated: offered != served + shed + expired");

  result.cache_hit_rate =
      result.cache_lookups == 0
          ? 0.0
          : static_cast<double>(result.cache_hits) /
                static_cast<double>(result.cache_lookups);
  result.mean_batch_chunks =
      result.batches == 0 ? 0.0
                          : static_cast<double>(result.served_requests) /
                                static_cast<double>(result.batches);
  result.lifetime_accuracy =
      result.samples_served == 0
          ? 0.0
          : static_cast<double>(correct_total) /
                static_cast<double>(result.samples_served);

  result.fleet_snapshot = fleet_monitor.monitor->snapshot(t_end);
  result.events = fleet_monitor.monitor->events();

  result.fleet_model = fleet_stats->snapshot(t_end);
  result.model_events = fleet_stats->events();
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

  result.fleet_energy = fleet_energy->snapshot(t_end);
  result.energy_events = fleet_energy->events();
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

  // The fleet snapshot's `model` object is the aggregate with the per-tenant
  // views spliced in as a `tenants` array (the aggregate to_json always ends
  // in '}'); gates and Prometheus carry the aggregate only.
  {
    std::string model_json = result.fleet_model.to_json();
    model_json.pop_back();
    model_json += ",\"tenants\":[";
    for (std::uint32_t t = 0; t < fleet.num_tenants; ++t) {
      if (t > 0) {
        model_json += ',';
      }
      model_json += "{\"tenant\":";
      model_json += std::to_string(t);
      model_json += ",\"model\":";
      model_json += result.tenant_models[t].to_json();
      model_json += '}';
    }
    model_json += "]}";
    result.fleet_snapshot.model_json = std::move(model_json);
    result.fleet_snapshot.model_metrics_json = result.fleet_model.metrics_json();
    result.fleet_snapshot.model_prometheus = result.fleet_model.to_prometheus();
  }

  // Same splice shape for energy: the aggregate ledger with the per-tenant
  // picojoule totals appended as a `tenants` array.
  {
    std::string energy_json = result.fleet_energy.to_json();
    energy_json.pop_back();
    energy_json += ",\"tenants\":[";
    for (std::uint32_t t = 0; t < fleet.num_tenants; ++t) {
      if (t > 0) {
        energy_json += ',';
      }
      energy_json += "{\"tenant\":";
      energy_json += std::to_string(t);
      energy_json += ",\"total_pj\":";
      energy_json += std::to_string(result.tenant_energy_pj[t]);
      energy_json += '}';
    }
    energy_json += "]}";
    result.fleet_snapshot.energy_json = std::move(energy_json);
    result.fleet_snapshot.energy_metrics_json = result.fleet_energy.metrics_json();
    result.fleet_snapshot.energy_prometheus = result.fleet_energy.to_prometheus();
  }

  result.predictions.reserve(static_cast<std::size_t>(result.samples_served));
  for (const auto& chunk_preds : preds) {
    result.predictions.insert(result.predictions.end(), chunk_preds.begin(),
                              chunk_preds.end());
  }
  result.requests = std::move(traces);
  result.exemplar_records.assign(exemplar_store.exemplars().begin(),
                                 exemplar_store.exemplars().end());

  if (!config.snapshot_dir.empty()) {
    std::filesystem::create_directories(config.snapshot_dir);
    write_text_file(
        (std::filesystem::path(config.snapshot_dir) / "fleet_snapshot_final.json")
            .string(),
        result.fleet_snapshot.to_json());
    for (const FleetShardResult& shard : result.shards) {
      write_text_file(shard_snapshot_path(config.snapshot_dir, shard.device_index),
                      shard.final_snapshot.to_json());
    }
  }
  std::string exemplar_path = config.exemplar_path;
  if (exemplar_path.empty() && !config.snapshot_dir.empty()) {
    exemplar_path =
        (std::filesystem::path(config.snapshot_dir) / "exemplars.jsonl").string();
  }
  if (!exemplar_path.empty()) {
    write_text_file(exemplar_path, exemplar_store.to_jsonl());
  }

  log_clock = t_end.to_seconds();
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

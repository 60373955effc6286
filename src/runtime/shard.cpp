#include "runtime/shard.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace hdc::runtime {

namespace {

/// The model-quality stats config: the stream's classes, encoder dimension
/// `model_dim`, and the resolved monitor window.
obs::ModelStatsConfig model_stats_config(const ServeConfig& config,
                                         const obs::MonitorConfig& monitor,
                                         std::uint32_t model_dim) {
  obs::ModelStatsConfig msc = config.model_stats;
  msc.num_classes = config.stream.spec.classes;
  msc.dim = model_dim;
  msc.window = monitor.window;
  return msc;
}

/// The energy accountant config on the resolved monitor window.
obs::EnergyConfig energy_config(const ServeConfig& config, const obs::MonitorConfig& monitor) {
  obs::EnergyConfig ec = config.energy;
  ec.window = monitor.window;
  return ec;
}

/// Any retry, host-fallback sample or circuit trip marks a batch faulty.
bool batch_faulty(const ResilienceReport& report) {
  return report.circuit_opened || report.cpu_samples > 0 ||
         report.device_stats.invoke_retries > 0;
}

/// A request's trace opened at dispatch. Its wait splits into the
/// device-busy part (`kQueueWait`, until `free_before`) and the batching
/// hold (`kBatchWait`), which sum exactly to the wait.
obs::RequestTrace begin_trace(const QueuedRequest& req, SimDuration free_before,
                              SimDuration dispatch) {
  HDC_CHECK(dispatch >= req.arrival, "a request was dispatched before it arrived");
  obs::RequestTrace rt;
  rt.begin(req.id, req.arrival);
  rt.samples = req.data.num_samples();
  const SimDuration wait = dispatch - req.arrival;
  const SimDuration queue_wait = std::clamp(free_before - req.arrival, SimDuration(), wait);
  const SimDuration batch_wait = wait - queue_wait;
  if (!queue_wait.is_zero()) {
    rt.append(obs::Stage::kQueueWait, queue_wait);
  }
  if (!batch_wait.is_zero()) {
    rt.append(obs::Stage::kBatchWait, batch_wait);
  }
  return rt;
}

/// Calls `fn` on each monitor a shard's records go to: the shard's own, then
/// the session's aggregate, if any.
template <typename Fn>
void feed_monitors(Shard& shard, ServingSession& session, Fn&& fn) {
  fn(*shard.monitor);
  if (session.aggregate.has_value()) {
    fn(*session.aggregate);
  }
}

void record_admission(Shard& shard, ServingSession& session, SimDuration at,
                      std::uint64_t offered, std::uint64_t shed, std::uint64_t expired,
                      std::uint64_t degraded) {
  session.clock.set(at);
  feed_monitors(shard, session, [&](obs::ServingMonitor& m) {
    m.record_admission(at, offered, shed, expired, degraded);
  });
}

/// Records one served sample into the monitors and the session's
/// model-quality stats, and returns the model-quality sample.
///
/// This is the one definition of serving confidence. `scores` is the row of
/// k class scores `predicted` was taken from, on the served model of hidden
/// width `dim`: top1 = s[predicted] / sqrt(dim), top2 = the largest other
/// score / sqrt(dim) (0 for a single-class model), and the monitor's margin
/// is top1 - top2. The lowered class rows are unit-norm and |tanh| <= 1, so
/// |s_c| <= ||e|| <= sqrt(dim): top1 stays in [-1, 1] and never exceeds the
/// cosine it stands for in magnitude.
obs::ModelQualityStats::Sample record_sample(Shard& shard, ServingSession& session,
                                             SimDuration at, SimDuration latency,
                                             std::uint64_t request_id, std::uint32_t predicted,
                                             std::uint32_t label, std::span<const float> scores,
                                             std::uint32_t dim) {
  HDC_CHECK(predicted < scores.size() && dim > 0, "served scores do not cover the prediction");
  const double root = std::sqrt(static_cast<double>(dim));
  const double top1 = scores[predicted] / root;
  double top2 = scores.size() > 1 ? -std::numeric_limits<double>::infinity() : 0.0;
  for (std::size_t c = 0; c < scores.size(); ++c) {
    top2 = c == predicted ? top2 : std::max(top2, scores[c] / root);
  }
  obs::ServingMonitor::Sample sample;
  sample.at = at;
  sample.latency = latency;
  sample.request_id = static_cast<std::int64_t>(request_id);
  sample.predicted = predicted;
  sample.correct = predicted == label;
  shard.counters.correct_samples += sample.correct ? 1 : 0;
  sample.margin = top1 - top2;
  session.clock.set(at);
  feed_monitors(shard, session, [&](obs::ServingMonitor& m) { m.record(sample); });
  // Served samples only: shed and expired requests never get here, so
  // confusion row sums stay exactly equal to per-class served counts.
  obs::ModelQualityStats::Sample msample;
  msample.at = at;
  msample.predicted = predicted;
  msample.label = label;
  msample.top1 = top1;
  msample.request_id = static_cast<std::int64_t>(request_id);
  session.model.record(msample);
  return msample;
}

}  // namespace

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  HDC_CHECK(out.good(), "cannot open '" + path + "' for writing");
  out << content;
  HDC_CHECK(out.good(), "failed writing '" + path + "'");
}

std::string numbered(const char* format, unsigned index) {
  char name[48];
  std::snprintf(name, sizeof(name), format, index);
  return name;
}

bool export_snapshot(const ServeConfig& config, const std::string& name,
                     const obs::MonitorSnapshot& snap) {
  if (!config.prometheus_path.empty()) {
    write_text_file(config.prometheus_path, snap.to_prometheus());
  }
  if (config.snapshot_dir.empty()) {
    return false;
  }
  write_text_file((std::filesystem::path(config.snapshot_dir) / name).string(), snap.to_json());
  return true;
}

std::string exemplar_output_path(const ServeConfig& config) {
  if (!config.exemplar_path.empty() || config.snapshot_dir.empty()) {
    return config.exemplar_path;
  }
  return (std::filesystem::path(config.snapshot_dir) / "exemplars.jsonl").string();
}

LogClock::LogClock() {
  log::set_time_provider([this] { return at_.to_seconds(); });
}

LogClock::~LogClock() { log::set_time_provider(nullptr); }

void splice_sections(obs::MonitorSnapshot& snap, const obs::ModelStatsSnapshot& model,
                     std::string model_json, const obs::EnergySnapshot& energy,
                     std::string energy_json) {
  snap.model_json = std::move(model_json);
  snap.model_metrics_json = model.metrics_json();
  snap.model_prometheus = model.to_prometheus();
  snap.energy_json = std::move(energy_json);
  snap.energy_metrics_json = energy.metrics_json();
  snap.energy_prometheus = energy.to_prometheus();
}

obs::MonitorConfig resolve_monitor_config(const ServeConfig& config, SimDuration nominal) {
  obs::MonitorConfig mc = config.monitor;
  mc.num_classes = config.stream.spec.classes;
  if (mc.window.span.is_zero()) {
    mc.window.span = nominal * (4.0 * static_cast<double>(config.stream.chunk_size));
  }
  if (mc.window.buckets == 0) {
    mc.window.buckets = 16;
  }
  if (mc.slo_latency.is_zero()) {
    mc.slo_latency = nominal * 1.5;
  }
  return mc;
}

// ---- ServingSession ----------------------------------------------------------

ServingSession::ServingSession(const ServeConfig& config, const obs::MonitorConfig& monitor,
                               std::uint32_t model_dim)
    : model(model_stats_config(config, monitor, model_dim)),
      energy(energy_config(config, monitor)),
      exemplars(config.exemplars),
      config_(config) {}

obs::RequestEnergy ServingSession::finish(obs::RequestTrace&& rt,
                                          std::optional<obs::ExemplarReason> reason) {
  attribution_total += rt.attribution;
  ++requests_traced;
  // Energy rides the finalised attribution on every outcome path: shed and
  // expired requests burned real (queue-wait) joules too.
  obs::EnergyAccountant::Request ereq;
  ereq.at = rt.end;
  ereq.attribution = rt.attribution;
  ereq.outcome = rt.outcome;
  ereq.samples = rt.outcome == obs::RequestOutcome::kServed ? rt.samples : 0;
  ereq.degraded = rt.tier != 0;
  ereq.request_id = static_cast<std::int64_t>(rt.request_id);
  const obs::RequestEnergy priced = energy.record(ereq);
  if (reason.has_value()) {
    exemplars.offer(*reason, rt);
  }
  requests.push_back(std::move(rt));
  return priced;
}

void ServingSession::write_exemplars() const {
  const std::string path = exemplar_output_path(config_);
  if (!path.empty()) {
    write_text_file(path, exemplars.to_jsonl());
  }
}

// ---- Shard -------------------------------------------------------------------

std::optional<ShedRequest> Shard::admit(QueuedRequest&& req, ServingSession& session) {
  const SimDuration at = req.arrival;
  const AdmissionConfig& admission = session.config().admission;
  std::optional<ShedRequest> shed;
  if (queue.size() >= admission.queue_capacity) {
    const bool refuse = admission.policy == ShedPolicy::kRejectNewest;
    QueuedRequest victim = refuse ? std::move(req) : pop();
    const std::uint64_t n = victim.data.num_samples();
    ++counters.shed_requests;
    counters.shed_samples += n;
    record_admission(*this, session, at, n, n, 0, 0);
    // A refused arrival has no wait; a dropped one sat queued until `at`.
    shed = ShedRequest{begin_trace(victim, at, at), victim.tenant, queue.size()};
    shed->trace.outcome = obs::RequestOutcome::kShed;
    shed->trace.finalize(at);
    if (refuse) {
      return shed;
    }
  }
  queued_samples += req.data.num_samples();
  queue.push_back(std::move(req));
  return shed;
}

std::size_t Shard::head_run(std::uint32_t batch_max) const {
  std::size_t run = 1;
  while (run < queue.size() && run < batch_max && queue[run].tenant == queue.front().tenant) {
    ++run;
  }
  return run;
}

// ---- the event loop ----------------------------------------------------------

SimDuration arrival_period(const ServeConfig& config, SimDuration nominal) {
  if (config.admission.offered_load <= 0.0) {
    return SimDuration();
  }
  return nominal *
         (static_cast<double>(config.stream.chunk_size) / config.admission.offered_load);
}

void run_event_loop(const ServeConfig& config, std::span<Shard> shards, std::uint64_t first_id,
                    std::uint32_t batch_max, SimDuration period, const ArriveFn& arrive,
                    const DispatchFn& dispatch) {
  const bool closed = period.is_zero();
  // The time of the last arrival or dispatch: no run is ready before it.
  SimDuration now;
  for (std::uint64_t next_id = first_id;;) {
    const bool arrivals_left = next_id < config.serve_chunks;
    std::size_t ready = shards.size();
    SimDuration ready_at;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const Shard& shard = shards[i];
      if (shard.queue.empty()) {
        continue;
      }
      // A closed loop offers nothing while a queue holds a request, so only
      // an open loop's arrivals can grow a run.
      const std::size_t run = shard.head_run(batch_max);
      const bool growable =
          run < batch_max && run == shard.queue.size() && arrivals_left && !closed;
      const SimDuration at =
          std::max({now, shard.free_at,
                    growable ? shard.queue.front().arrival + config.fleet.batch_max_age
                             : shard.queue[run - 1].arrival});
      if (ready == shards.size() || at < ready_at) {
        ready = i;
        ready_at = at;
      }
    }
    const bool idle = ready == shards.size();
    if (arrivals_left && (idle || !closed)) {
      const SimDuration at =
          closed ? std::min_element(shards.begin(), shards.end(),
                                    [](const Shard& a, const Shard& b) {
                                      return a.free_at < b.free_at;
                                    })->free_at
                 : period * static_cast<double>(next_id);
      if (idle || at <= ready_at) {
        now = at;
        arrive(next_id++, at);
        continue;
      }
    }
    if (idle) {
      return;
    }
    now = ready_at;
    dispatch(ready, ready_at);
  }
}

// ---- the per-batch body ------------------------------------------------------

std::optional<ServedBatch> serve_batch(ServingSession& session, std::span<Shard> shards,
                                       std::size_t index, SimDuration at,
                                       std::uint32_t batch_max, const BatchHooks& hooks) {
  Shard& shard = shards[index];
  obs::TraceContext* const trace = shard.endpoint.device().trace_context();
  HDC_CHECK(trace == nullptr || batch_max == 1, "a traced loop serves one request per batch");
  const SimDuration free_before = shard.free_at;
  std::vector<QueuedRequest> batch;
  for (std::size_t k = shard.head_run(batch_max); k > 0; --k) {
    batch.push_back(shard.pop());
  }
  const std::uint32_t tenant = batch.front().tenant;
  if (trace != nullptr) {
    // Open the request's causal scope: every span the executor, device and
    // link layers emit below is stamped with its id.
    const QueuedRequest& req = batch.front();
    trace->set_now(req.arrival);
    trace->begin_request(req.id);
    const SimDuration wait = at - req.arrival;
    if (!wait.is_zero()) {
      trace->span(obs::Track::kExecutor, "serve.queue_wait", wait,
                  {{"samples", req.data.num_samples()}});
    }
  }

  // The shard's monitor follows its own health; the session-wide telemetry
  // is quarantined while every shard is.
  const auto sync_quarantine = [&](SimDuration t) {
    const bool all_quarantined = std::all_of(shards.begin(), shards.end(), [](const Shard& s) {
      return s.health.state() == DeviceHealth::kQuarantined;
    });
    session.clock.set(t);
    shard.monitor->set_quarantined(shard.health.state() == DeviceHealth::kQuarantined, t);
    if (session.aggregate.has_value()) {
      session.aggregate->set_quarantined(all_quarantined, t);
    }
    session.model.set_quarantined(all_quarantined, t);
    session.energy.set_quarantined(all_quarantined, t);
  };

  const AdmissionConfig& admission = session.config().admission;
  const ServeTier tier = shard.health.admit_tier(at, shard.queue.size(), admission.degrade_backlog);
  sync_quarantine(at);
  if (trace != nullptr) {
    trace->instant_at(obs::Track::kExecutor, "serve.admit_tier", at,
                      {{"tier", tier_name(tier)}, {"queue_depth", shard.queue.size()}});
  }

  // Each member's deadline runs from its own arrival: a member that cannot
  // finish even its first sample expires unserved, the rest still form the
  // batch. The check is admission bookkeeping and costs no simulated time.
  const SimDuration deadline = admission.deadline;
  const ServingEndpoint::Model& model = hooks.model(tenant, tier);
  const SimDuration nominal =
      deadline.is_zero() ? SimDuration() : shard.endpoint.nominal_per_sample(model, tier);
  std::vector<QueuedRequest> live;
  std::uint64_t samples = 0;
  for (QueuedRequest& req : batch) {
    const SimDuration wait = at - req.arrival;
    if (deadline.is_zero() || !(wait + nominal > deadline)) {
      samples += req.data.num_samples();
      live.push_back(std::move(req));
      continue;
    }
    obs::RequestTrace rt = begin_trace(req, free_before, at);
    ++shard.counters.expired_requests;
    shard.counters.expired_samples += rt.samples;
    record_admission(shard, session, at, rt.samples, 0, rt.samples, 0);
    rt.outcome = obs::RequestOutcome::kExpired;
    rt.tier = static_cast<std::uint8_t>(tier);
    rt.finalize(at);
    if (trace != nullptr) {
      trace->instant_at(obs::Track::kExecutor, "serve.expired", at,
                        {{"wait_us", wait.to_seconds() * 1e6},
                         {"deadline_us", deadline.to_seconds() * 1e6}});
    }
    hooks.finish(index, tenant, std::move(rt), obs::ExemplarReason::kExpired);
  }
  if (live.empty()) {
    shard.free_at = std::max(shard.free_at, at);
    return std::nullopt;
  }

  const SimDuration upload = hooks.load(index, model, tier, at);
  const SimDuration service_start = at + upload;
  tensor::MatrixF joined;
  if (live.size() > 1) {
    joined = tensor::MatrixF(static_cast<std::size_t>(samples), live.front().data.features.cols());
    float* row = joined.data();
    for (const QueuedRequest& req : live) {
      row = std::copy_n(req.data.features.data(), req.data.features.size(), row);
    }
  }
  // At a batch cap of 1 a batch is one request: it takes the interactive
  // invoke, and its chain keeps the executor's spans per sample and attempt.
  // Above it the batch streams through the pipelined (double-buffered) path,
  // which amortizes the per-invoke USB overhead, and every member's chain
  // carries the batch's summed spans. The oldest member has the least
  // budget left; it bounds the batch's per-sample retry watchdog.
  const bool single = batch_max == 1;
  obs::RequestTrace chain;
  if (single) {
    chain = begin_trace(live.front(), free_before, at);
    if (!upload.is_zero()) {
      chain.append(obs::Stage::kSwap, upload);
    }
  }
  const ServingEndpoint::BatchOutcome outcome = shard.endpoint.infer(
      model, tier, tpu::InvokeOptions{.interactive = single, .pipelined = !single},
      live.size() > 1 ? joined : live.front().data.features, service_start,
      deadline.is_zero() ? SimDuration() : deadline - (at - live.front().arrival),
      single ? &chain : nullptr);
  const ResilienceReport& report = outcome.report;
  const bool faulty = batch_faulty(report);
  const SimDuration per_sample = outcome.total * (1.0 / static_cast<double>(samples));
  const SimDuration service_end = service_start + outcome.total;
  // Host-tier batches never touch the device, so they do not feed its health.
  if (tier != ServeTier::kHost) {
    shard.health.on_batch(service_end, faulty, report.circuit_opened);
  }
  sync_quarantine(service_end);

  // Completion times spread evenly over the service; latency runs from
  // each member's arrival.
  const auto latency = [&](const QueuedRequest& req) {
    return (at - req.arrival) + upload + per_sample;
  };
  std::uint64_t correct = 0;
  std::size_t g = 0;
  for (const QueuedRequest& req : live) {
    for (std::size_t j = 0; j < req.data.num_samples(); ++j, ++g) {
      const obs::ModelQualityStats::Sample sample = record_sample(
          shard, session, service_start + per_sample * static_cast<double>(g + 1), latency(req),
          req.id, outcome.predictions[g], req.data.labels[j], outcome.scores.row(g),
          model.hidden_dim());
      correct += sample.predicted == sample.label ? 1 : 0;
      hooks.sample(req, j, sample);
    }
  }
  // The batch's transport and admission records come before its members
  // finish.
  session.clock.set(service_end);
  feed_monitors(shard, session, [&](obs::ServingMonitor& m) {
    m.record_transport(service_end, samples, report.cpu_samples,
                       report.device_stats.invoke_retries);
  });
  record_admission(shard, session, service_end, samples, 0, 0,
                   tier != ServeTier::kFull ? samples : 0);

  const SimDuration update = hooks.update ? hooks.update(samples) : SimDuration();
  shard.free_at = service_end + update;
  if (!update.is_zero() && trace != nullptr) {
    trace->span_at(obs::Track::kHost, "serve.online_update", shard.free_at - update, update,
                   {{"samples", samples}});
  }
  session.clock.set(shard.free_at);
  for (const QueuedRequest& req : live) {
    obs::RequestTrace rt = single ? std::move(chain) : begin_trace(req, free_before, at);
    if (!single) {
      if (!upload.is_zero()) {
        rt.append(obs::Stage::kSwap, upload);
      }
      append_stage_spans(rt, report.device_stats, report.cpu_fallback_time);
    }
    if (!update.is_zero()) {
      rt.append(obs::Stage::kUpdate, update);
    }
    rt.outcome = obs::RequestOutcome::kServed;
    rt.tier = static_cast<std::uint8_t>(tier);
    rt.faulty = faulty;
    rt.finalize(shard.free_at);
    ++shard.counters.served_requests;
    shard.counters.served_samples += rt.samples;
    if (tier != ServeTier::kFull) {
      ++shard.counters.degraded_requests;
      shard.counters.degraded_samples += rt.samples;
    }
    feed_monitors(shard, session, [&](obs::ServingMonitor& m) {
      m.record_attribution(shard.free_at, rt.attribution);
    });
    // Tail-based retention: keep the full chain only when the request left
    // the full tier (or spilled samples to the host) or its per-sample
    // latency reaches the windowed p99 at its own completion time. The
    // slowest request in any window always qualifies, so alarm exemplar ids
    // resolve to retained chains (barring later eviction under the bound).
    std::optional<obs::ExemplarReason> reason;
    if (tier != ServeTier::kFull || report.cpu_samples > 0) {
      reason = obs::ExemplarReason::kTierFallback;
    } else if (latency(req) >= shard.monitor->latency_quantile(shard.free_at, 0.99)) {
      reason = obs::ExemplarReason::kTailLatency;
    }
    hooks.finish(index, tenant, std::move(rt), reason);
  }
  return ServedBatch{tier, samples, correct, outcome.total, report};
}

}  // namespace hdc::runtime

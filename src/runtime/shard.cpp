#include "runtime/shard.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace hdc::runtime {

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  HDC_CHECK(out.good(), "cannot open '" + path + "' for writing");
  out << content;
  HDC_CHECK(out.good(), "failed writing '" + path + "'");
}

std::string exemplar_output_path(const ServeConfig& config) {
  if (!config.exemplar_path.empty() || config.snapshot_dir.empty()) {
    return config.exemplar_path;
  }
  return (std::filesystem::path(config.snapshot_dir) / "exemplars.jsonl").string();
}

LogClock::LogClock(SimDuration start) : seconds_(start.to_seconds()) {
  log::set_time_provider([this] { return seconds_; });
}

LogClock::~LogClock() { log::set_time_provider(nullptr); }

obs::MonitorConfig resolve_monitor_config(const ServeConfig& config, SimDuration batch_total,
                                          std::uint64_t batch_samples) {
  obs::MonitorConfig mc = config.monitor;
  mc.num_classes = config.stream.spec.classes;
  if (mc.window.span.is_zero()) {
    mc.window.span = batch_samples == 0 ? SimDuration::millis(1) : batch_total * 4.0;
  }
  if (mc.window.buckets == 0) {
    mc.window.buckets = 16;
  }
  if (mc.slo_latency.is_zero()) {
    mc.slo_latency =
        batch_samples == 0
            ? SimDuration::micros(100)
            : batch_total * (1.0 / static_cast<double>(batch_samples)) * 1.5;
  }
  return mc;
}

bool batch_faulty(const ResilienceReport& report) {
  return report.circuit_opened || report.cpu_samples > 0 ||
         report.device_stats.invoke_retries > 0;
}

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

// ---- LazyMonitor -------------------------------------------------------------

void LazyMonitor::init(const obs::MonitorConfig& config) {
  monitor_.emplace(config);
  for (const AdmissionRecord& rec : pending_) {
    monitor_->record_admission(rec.at, rec.offered, rec.shed, rec.expired, rec.degraded);
  }
  pending_.clear();
}

void LazyMonitor::record_admission(LogClock& clock, SimDuration at, std::uint64_t offered,
                                   std::uint64_t shed, std::uint64_t expired,
                                   std::uint64_t degraded) {
  if (monitor_.has_value()) {
    clock.set(at);
    monitor_->record_admission(at, offered, shed, expired, degraded);
  } else {
    pending_.push_back({at, offered, shed, expired, degraded});
  }
}

// ---- ServingSession ----------------------------------------------------------

ServingSession::ServingSession(const ServeConfig& config, std::uint32_t model_dim,
                               SimDuration start)
    : clock(start), exemplars(config.exemplars), config_(config), model_dim_(model_dim) {}

void ServingSession::init(const obs::WindowConfig& window) {
  obs::ModelStatsConfig msc = config_.model_stats;
  msc.num_classes = config_.stream.spec.classes;
  msc.dim = model_dim_;
  msc.window = window;
  model.emplace(msc);

  obs::EnergyConfig ec = config_.energy;
  ec.window = window;
  energy.emplace(ec);
  for (const obs::EnergyAccountant::Request& req : pending_energy_) {
    energy->record(req);
  }
  pending_energy_.clear();
}

void ServingSession::finish(obs::RequestTrace&& rt,
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
  if (energy.has_value()) {
    energy->record(ereq);
  } else {
    pending_energy_.push_back(ereq);
  }
  if (reason.has_value()) {
    exemplars.offer(*reason, rt);
  }
  requests.push_back(std::move(rt));
}

void ServingSession::write_exemplars() const {
  const std::string path = exemplar_output_path(config_);
  if (!path.empty()) {
    write_text_file(path, exemplars.to_jsonl());
  }
}

// ---- ShardEngine -------------------------------------------------------------

obs::RequestTrace begin_trace(const QueuedRequest& req, SimDuration free_before,
                              SimDuration dispatch) {
  obs::RequestTrace rt;
  rt.begin(req.id, req.arrival);
  rt.samples = req.data.num_samples();
  const SimDuration wait = dispatch - req.arrival;
  if (wait.is_zero()) {
    return rt;
  }
  SimDuration queue_wait;
  if (free_before > req.arrival) {
    queue_wait = std::min(wait, free_before - req.arrival);
  }
  const SimDuration batch_wait = wait - queue_wait;
  if (!queue_wait.is_zero()) {
    rt.append(obs::Stage::kQueueWait, queue_wait);
  }
  if (!batch_wait.is_zero()) {
    rt.append(obs::Stage::kBatchWait, batch_wait);
  }
  return rt;
}

std::optional<ShedRequest> ShardEngine::admit(QueuedRequest&& req) {
  const SimDuration at = req.arrival;
  std::optional<ShedRequest> shed;
  if (queue.size() >= config_.admission.queue_capacity) {
    const bool refuse = config_.admission.policy == ShedPolicy::kRejectNewest;
    QueuedRequest victim = refuse ? std::move(req) : pop();
    const std::uint64_t n = victim.data.num_samples();
    ++counters.shed_requests;
    counters.shed_samples += n;
    record_admission(at, n, n, 0, 0);
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

bool ShardEngine::start_telemetry(SimDuration batch_total, std::uint64_t batch_samples) {
  const obs::MonitorConfig mc = resolve_monitor_config(config_, batch_total, batch_samples);
  each_monitor([&](LazyMonitor& m) {
    if (!m.ready()) {
      m.init(mc);
    }
  });
  if (session_.ready()) {
    return false;
  }
  session_.init(mc.window);
  return true;
}

obs::ModelQualityStats::Sample ShardEngine::record_sample(
    SimDuration at, SimDuration latency, std::uint64_t request_id, std::uint32_t predicted,
    std::uint32_t label, std::span<const float> scores, std::uint32_t dim) {
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
  counters.correct_samples += sample.correct ? 1 : 0;
  sample.margin = top1 - top2;
  session_.clock.set(at);
  each_monitor([&](LazyMonitor& m) { m->record(sample); });
  // Served samples only: shed and expired requests never get here, so
  // confusion row sums stay exactly equal to per-class served counts.
  obs::ModelQualityStats::Sample msample;
  msample.at = at;
  msample.predicted = predicted;
  msample.label = label;
  msample.top1 = top1;
  msample.request_id = static_cast<std::int64_t>(request_id);
  session_.model->record(msample);
  return msample;
}

void ShardEngine::record_batch(SimDuration end, std::uint64_t samples, ServeTier tier,
                               const ResilienceReport& report) {
  session_.clock.set(end);
  each_monitor([&](LazyMonitor& m) {
    m->record_transport(end, samples, report.cpu_samples, report.device_stats.invoke_retries);
  });
  record_admission(end, samples, 0, 0, tier != ServeTier::kFull ? samples : 0);
}

std::optional<obs::ExemplarReason> ShardEngine::finish_served(obs::RequestTrace& rt,
                                                              SimDuration end, ServeTier tier,
                                                              const ResilienceReport& report,
                                                              SimDuration latency) {
  rt.outcome = obs::RequestOutcome::kServed;
  rt.tier = static_cast<std::uint8_t>(tier);
  rt.faulty = batch_faulty(report);
  rt.finalize(end);
  ++counters.served_requests;
  counters.served_samples += rt.samples;
  if (tier != ServeTier::kFull) {
    ++counters.degraded_requests;
    counters.degraded_samples += rt.samples;
  }
  each_monitor([&](LazyMonitor& m) { m->record_attribution(end, rt.attribution); });
  // Tail-based retention: keep the full chain only when the request left
  // the full tier (or spilled samples to the host) or its per-sample latency
  // reaches the windowed p99 at its own completion time. The slowest request
  // in any window always qualifies, so alarm exemplar ids resolve to
  // retained chains (barring later eviction under the bound).
  if (tier != ServeTier::kFull || report.cpu_samples > 0) {
    return obs::ExemplarReason::kTierFallback;
  }
  if (latency >= monitor_->latency_quantile(end, 0.99)) {
    return obs::ExemplarReason::kTailLatency;
  }
  return std::nullopt;
}

}  // namespace hdc::runtime

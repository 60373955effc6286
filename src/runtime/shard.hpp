#pragma once

// The serving clock under both serving loops: `serve` drives one `Shard`,
// `serve_fleet` one per device, through the one event loop
// (`run_event_loop`), which interleaves arrivals and dispatches in
// simulated time. A shard is a device's endpoint, its engine and the time
// the device is next free. The engine owns the bounded request queue, the
// shedding and deadline-expiry decisions, the health feed and the monitor
// its requests' records go to. The `ServingSession` around the shards owns
// what spans them: the lazily sized model-quality and energy telemetry, the
// exemplar store, request finalisation and the log clock. Each loop keeps
// only what is its own: its per-batch body and its arrivals; the
// single-device loop also its online learners, three-tier ladder and
// checkpoints, the fleet its tenants, placement, charged swaps, aggregate
// monitor and energy ledgers.

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.hpp"
#include "data/dataset.hpp"
#include "obs/energy.hpp"
#include "obs/model_stats.hpp"
#include "obs/monitor.hpp"
#include "obs/request_trace.hpp"
#include "runtime/health.hpp"
#include "runtime/resilient.hpp"
#include "runtime/serve.hpp"

namespace hdc::runtime {

/// Writes `content` to `path`, truncating it; throws hdc::Error on failure.
void write_text_file(const std::string& path, const std::string& content);

/// `format`, whose one conversion is `%u` (zero-padded as it says), applied
/// to `index`: numbered snapshot and checkpoint names.
std::string numbered(const char* format, unsigned index);

/// Writes `snap` to `snapshot_dir/name` when a snapshot directory is set,
/// and its Prometheus exposition to `prometheus_path` when that is set.
/// True when the JSON file was written.
bool export_snapshot(const ServeConfig& config, const std::string& name,
                     const obs::MonitorSnapshot& snap);

/// Feeds a serving loop's simulated clock to the structured log for the
/// lifetime of the session, so JSONL records (alarm edges in particular)
/// carry `t_s` in simulated seconds.
class LogClock {
 public:
  explicit LogClock(SimDuration start);
  ~LogClock();
  LogClock(const LogClock&) = delete;
  LogClock& operator=(const LogClock&) = delete;

  void set(SimDuration at) { seconds_ = at.to_seconds(); }

 private:
  double seconds_;
};

/// The monitor config with its auto fields resolved from the first served
/// batch (`batch_total` over `batch_samples` samples): window span 4x the
/// batch, 16 buckets, SLO 1.5x its per-sample time; 1 ms, 16 buckets and
/// 100 us when nothing was served (`batch_samples == 0`).
obs::MonitorConfig resolve_monitor_config(const ServeConfig& config, SimDuration batch_total,
                                          std::uint64_t batch_samples);

/// Any retry, host-fallback sample or circuit trip marks a batch faulty.
bool batch_faulty(const ResilienceReport& report);

/// Splices the model-quality and energy sections into a monitor snapshot:
/// `model_json`/`energy_json` become its `model`/`energy` objects; the flat
/// gate entries and Prometheus families come from the snapshots.
void splice_sections(obs::MonitorSnapshot& snap, const obs::ModelStatsSnapshot& model,
                     std::string model_json, const obs::EnergySnapshot& energy,
                     std::string energy_json);

/// A `ServingMonitor` sized lazily from the first served batch. Admission
/// records that arrive earlier are buffered and replayed in order.
class LazyMonitor {
 public:
  bool ready() const { return monitor_.has_value(); }
  obs::ServingMonitor* operator->() { return &*monitor_; }
  /// The monitor once built (checkpoints save it as it stands).
  const std::optional<obs::ServingMonitor>& state() const { return monitor_; }

  void init(const obs::MonitorConfig& config);
  /// Adopts a monitor restored from a checkpoint, exactly as it was.
  void restore(obs::ServingMonitor&& monitor) { monitor_.emplace(std::move(monitor)); }
  void record_admission(LogClock& clock, SimDuration at, std::uint64_t offered,
                        std::uint64_t shed, std::uint64_t expired, std::uint64_t degraded);

 private:
  struct AdmissionRecord {
    SimDuration at;
    std::uint64_t offered = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t degraded = 0;
  };
  std::optional<obs::ServingMonitor> monitor_;
  std::vector<AdmissionRecord> pending_;
};

/// Session-wide telemetry and request finalisation. The model-quality stats
/// and the energy accountant share the first sized monitor's resolved
/// window; energy requests finished before they exist are buffered and
/// replayed.
class ServingSession {
 public:
  /// `model_dim` is the encoder dimension the model-quality stats track per
  /// dimension (0 when requests come from different encoders).
  ServingSession(const ServeConfig& config, std::uint32_t model_dim, SimDuration start);

  bool ready() const { return model.has_value(); }
  void init(const obs::WindowConfig& window);
  /// Folds a finalised request into the attribution totals and the energy
  /// accountant, offers it as an exemplar when `reason` is set, and keeps it.
  void finish(obs::RequestTrace&& rt, std::optional<obs::ExemplarReason> reason);
  /// Writes the retained exemplars to `exemplar_output_path`, if any.
  void write_exemplars() const;

  LogClock clock;
  std::optional<obs::ModelQualityStats> model;
  std::optional<obs::EnergyAccountant> energy;
  obs::ExemplarStore exemplars;
  obs::RequestAttribution attribution_total;
  std::uint64_t requests_traced = 0;
  std::vector<obs::RequestTrace> requests;  ///< in finish order

 private:
  const ServeConfig& config_;
  std::uint32_t model_dim_;
  std::vector<obs::EnergyAccountant::Request> pending_energy_;
};

/// One offered request: a chunk of a tenant's stream (tenant 0 on a single
/// device), identified by its offered index.
struct QueuedRequest {
  std::uint64_t id = 0;
  std::uint32_t tenant = 0;
  SimDuration arrival;
  data::Dataset data;
};

/// A shed request's finalised trace, its tenant, and the queue depth left.
struct ShedRequest {
  obs::RequestTrace trace;
  std::uint32_t tenant = 0;
  std::size_t queue_depth = 0;
};

/// A request's trace opened at dispatch. Its wait splits into the
/// device-busy part (`kQueueWait`, until `free_before`) and the batching
/// hold (`kBatchWait`), which sum exactly to the wait.
obs::RequestTrace begin_trace(const QueuedRequest& req, SimDuration free_before,
                              SimDuration dispatch);

/// One device's admission queue, health state and monitor. Monitor records
/// go to the shard's own monitor, then to `also_feed` when set.
class ShardEngine {
 public:
  ShardEngine(const ServeConfig& config, ServingSession& session, LazyMonitor* also_feed,
              DeviceHealthTracker tracker)
      : health(std::move(tracker)), config_(config), session_(session), also_feed_(also_feed) {}

  /// Queues a request. On a full queue the shed policy picks the victim —
  /// the arrival (reject-newest) or the oldest queued (drop-oldest) — and
  /// returns it finalised.
  std::optional<ShedRequest> admit(QueuedRequest&& req);
  QueuedRequest pop() {
    QueuedRequest req = std::move(queue.front());
    queue.pop_front();
    queued_samples -= req.data.num_samples();
    return req;
  }
  /// Length of the same-tenant run at the head of the queue, at most
  /// `batch_max` requests: the batch a dispatch now would serve.
  std::size_t head_run(std::uint32_t batch_max) const;
  /// Ladder tier for a dispatch at `at`, given the backlog behind it.
  ServeTier admit_tier(SimDuration at) {
    return health.admit_tier(at, queue.size(), config_.admission.degrade_backlog);
  }
  /// True when even the first sample (`nominal`) cannot finish within the
  /// deadline, measured from arrival.
  bool expires(SimDuration wait, SimDuration nominal) const {
    return !config_.admission.deadline.is_zero() &&
           wait + nominal > config_.admission.deadline;
  }
  /// Per-sample retry budget left after `wait` (zero = no deadline).
  SimDuration budget(SimDuration wait) const {
    const SimDuration deadline = config_.admission.deadline;
    return deadline.is_zero() ? SimDuration() : deadline - wait;
  }
  void expire(obs::RequestTrace& rt, SimDuration at, ServeTier tier) {
    ++counters.expired_requests;
    counters.expired_samples += rt.samples;
    record_admission(at, rt.samples, 0, rt.samples, 0);
    rt.outcome = obs::RequestOutcome::kExpired;
    rt.tier = static_cast<std::uint8_t>(tier);
    rt.finalize(at);
  }

  /// Host-tier batches never touch the device, so they do not count.
  void feed_health(ServeTier tier, SimDuration end, const ResilienceReport& report) {
    if (tier != ServeTier::kHost) {
      health.on_batch(end, batch_faulty(report), report.circuit_opened);
    }
  }
  /// Sizes the monitors this shard feeds, and the session with them, off
  /// the batch just served. True when the session was sized by this call.
  bool start_telemetry(SimDuration batch_total, std::uint64_t batch_samples);
  /// Records one served sample into the monitors and the session's
  /// model-quality stats, and returns the model-quality sample.
  ///
  /// This is the one definition of serving confidence. `scores` is the row
  /// of k class scores `predicted` was taken from, on the served model of
  /// hidden width `dim`: top1 = s[predicted] / sqrt(dim), top2 = the largest
  /// other score / sqrt(dim) (0 for a single-class model), and the monitor's
  /// margin is top1 - top2. The lowered class rows are unit-norm and
  /// |tanh| <= 1, so |s_c| <= ||e|| <= sqrt(dim): top1 stays in [-1, 1] and
  /// never exceeds the cosine it stands for in magnitude.
  obs::ModelQualityStats::Sample record_sample(SimDuration at, SimDuration latency,
                                               std::uint64_t request_id,
                                               std::uint32_t predicted, std::uint32_t label,
                                               std::span<const float> scores,
                                               std::uint32_t dim);
  /// Transport and admission records of a served batch.
  void record_batch(SimDuration end, std::uint64_t samples, ServeTier tier,
                    const ResilienceReport& report);
  /// Marks `rt` served, records its attribution and returns its exemplar
  /// reason, judging its per-sample `latency` against the shard's p99.
  std::optional<obs::ExemplarReason> finish_served(obs::RequestTrace& rt, SimDuration end,
                                                   ServeTier tier,
                                                   const ResilienceReport& report,
                                                   SimDuration latency);

  std::deque<QueuedRequest> queue;
  std::uint64_t queued_samples = 0;
  DeviceHealthTracker health;
  ShardCounters counters;
  LazyMonitor monitor;

 private:
  template <typename Fn>
  void each_monitor(Fn&& fn) {
    fn(monitor);
    if (also_feed_ != nullptr) {
      fn(*also_feed_);
    }
  }
  void record_admission(SimDuration at, std::uint64_t offered, std::uint64_t shed,
                        std::uint64_t expired, std::uint64_t degraded) {
    each_monitor([&](LazyMonitor& m) {
      m.record_admission(session_.clock, at, offered, shed, expired, degraded);
    });
  }

  const ServeConfig& config_;
  ServingSession& session_;
  LazyMonitor* also_feed_;
};

/// One device behind a serving loop: its endpoint (a full simulated
/// accelerator with its own fault stream), its engine, and the simulated
/// time the device is next free.
struct Shard {
  Shard(const CoDesignFramework& framework, const tpu::FaultProfile& faults,
        const ServeConfig& config, ServingSession& session, LazyMonitor* also_feed,
        DeviceHealthTracker tracker)
      : endpoint(framework, faults, config.retry),
        engine(config, session, also_feed, std::move(tracker)) {}

  ServingEndpoint endpoint;
  ShardEngine engine;
  SimDuration free_at;
};

/// The open-loop arrival period. Offered load is a multiple of the full-tier
/// service rate: load L means chunks arrive L times faster than the
/// fault-free `model` serves them on `endpoint`. Zero for the closed loop
/// (`admission.offered_load == 0`).
SimDuration arrival_period(const ServeConfig& config, const ServingEndpoint& endpoint,
                           const ServingEndpoint::Model& model);

/// Offers request `id` at simulated time `at`.
using ArriveFn = std::function<void(std::uint64_t id, SimDuration at)>;
/// Serves shard `shard`'s head batch at `at`. It must pop at least the head
/// request, and moves the shard's `free_at` as its loop defines.
using DispatchFn = std::function<void(std::size_t shard, SimDuration at)>;

/// The one event loop under both serving loops. It offers requests
/// `first_id`, ..., `config.serve_chunks - 1` through `arrive` and serves
/// the queued ones through `dispatch`, in simulated-time order, until every
/// request is offered and every queue is empty:
/// - open loop (`period` > 0): request i arrives at i x `period`;
/// - closed loop (`period` == 0): a request arrives only when every queue is
///   empty, at the earliest `free_at`;
/// - a shard's head run (`ShardEngine::head_run`) is ready at
///   max(`free_at`, head arrival) once it is full (`batch_max` requests) or
///   cannot grow (another tenant queued behind it, or no arrival can join
///   it); a growable run is held until max(`free_at`, head arrival +
///   `config.fleet.batch_max_age`);
/// - the earliest-ready shard is dispatched first, the lowest index on ties;
/// - an arrival at a shard's ready time is offered before that dispatch, so
///   it can still join the batch.
void run_event_loop(const ServeConfig& config, std::span<Shard> shards, std::uint64_t first_id,
                    std::uint32_t batch_max, SimDuration period, const ArriveFn& arrive,
                    const DispatchFn& dispatch);

}  // namespace hdc::runtime

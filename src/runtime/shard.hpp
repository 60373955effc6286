#pragma once

// The serving clock under both serving loops: `serve` drives one `Shard`,
// `serve_fleet` one per device, through the one event loop
// (`run_event_loop`), which interleaves arrivals and dispatches in
// simulated time, and the one per-batch body (`serve_batch`), which serves a
// shard's head run: ladder verdict, quarantine, expiry, service, per-sample
// records, span chains, and the batch and request records. A shard is one
// device: its endpoint, its bounded request queue and shedding decision, its
// health state, its counters, the monitor its requests' records go to, and
// the time the device is next free. The `ServingSession` around the shards
// owns what spans them: the model-quality and energy telemetry, the fleet's
// aggregate monitor, the exemplar store, request finalisation and the log
// clock. Every monitor, the session's and each shard's, is built in setup,
// before the first arrival, from one monitor config whose auto fields come
// from the full-tier model's fault-free price. Each loop keeps only what is
// its own, handed to the body as `BatchHooks`, and its arrivals: the
// single-device loop its online learners, uncharged tier switches,
// three-tier ladder and checkpoints; the fleet its tenants, placement,
// charged swaps and energy ledgers.

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

/// Feeds a serving loop's simulated clock, from 0, to the structured log for
/// the lifetime of the session, so JSONL records (alarm edges in particular)
/// carry `t_s` in simulated seconds.
class LogClock {
 public:
  LogClock();
  ~LogClock();
  LogClock(const LogClock&) = delete;
  LogClock& operator=(const LogClock&) = delete;

  void set(SimDuration at) { at_ = at; }
  SimDuration now() const { return at_; }

 private:
  SimDuration at_;
};

/// Splices the model-quality and energy sections into a monitor snapshot:
/// `model_json`/`energy_json` become its `model`/`energy` objects; the flat
/// gate entries and Prometheus families come from the snapshots.
void splice_sections(obs::MonitorSnapshot& snap, const obs::ModelStatsSnapshot& model,
                     std::string model_json, const obs::EnergySnapshot& energy,
                     std::string energy_json);

/// The monitor config every serving monitor of a session shares, with its
/// auto fields resolved from `nominal`, the fault-free full-tier per-sample
/// price (`ServingEndpoint::nominal_per_sample`, which `arrival_period`
/// takes too): window span 4x a chunk at that price, 16 buckets, SLO 1.5x it.
obs::MonitorConfig resolve_monitor_config(const ServeConfig& config, SimDuration nominal);

/// Session-wide telemetry and request finalisation, all built before the
/// first arrival. The model-quality stats and the energy accountant share
/// the window of the session's resolved monitor config.
class ServingSession {
 public:
  /// `monitor` is the resolved monitor config; `model_dim` is the encoder
  /// dimension the model-quality stats track per dimension (0 when requests
  /// come from different encoders).
  ServingSession(const ServeConfig& config, const obs::MonitorConfig& monitor,
                 std::uint32_t model_dim);

  const ServeConfig& config() const { return config_; }
  /// Folds a finalised request into the attribution totals and the energy
  /// accountant, offers it as an exemplar when `reason` is set, and keeps it.
  /// Returns the request's priced energy.
  obs::RequestEnergy finish(obs::RequestTrace&& rt, std::optional<obs::ExemplarReason> reason);
  /// Writes the retained exemplars to `exemplar_output_path`, if any.
  void write_exemplars() const;

  LogClock clock;
  /// The fleet's aggregate monitor, which every shard's records also go to,
  /// after the shard's own. Only fleet sessions have one.
  std::optional<obs::ServingMonitor> aggregate;
  obs::ModelQualityStats model;
  obs::EnergyAccountant energy;
  obs::ExemplarStore exemplars;
  obs::RequestAttribution attribution_total;
  std::uint64_t requests_traced = 0;
  std::vector<obs::RequestTrace> requests;  ///< in finish order

 private:
  const ServeConfig& config_;
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

/// One device behind a serving loop: its endpoint (a full simulated
/// accelerator with its own fault stream), its bounded request queue, its
/// health state and counters, its own monitor (set up, off the endpoint's
/// price, before the first arrival), and the simulated time the device is
/// next free. The counters are the source of both loops' totals.
/// The records a dispatched batch leaves are made by the per-batch body only
/// (`serve_batch`).
struct Shard {
  Shard(const CoDesignFramework& framework, const tpu::FaultProfile& faults,
        const ServeConfig& config, DeviceHealthTracker tracker)
      : endpoint(framework, faults, config.retry), health(std::move(tracker)) {}

  /// Queues a request. On a full queue the shed policy picks the victim —
  /// the arrival (reject-newest) or the oldest queued (drop-oldest) — and
  /// returns it finalised, its shed recorded into `session`'s monitors.
  std::optional<ShedRequest> admit(QueuedRequest&& req, ServingSession& session);
  QueuedRequest pop() {
    QueuedRequest req = std::move(queue.front());
    queue.pop_front();
    queued_samples -= req.data.num_samples();
    return req;
  }
  /// Length of the same-tenant run at the head of the queue, at most
  /// `batch_max` requests: the batch a dispatch now would serve.
  std::size_t head_run(std::uint32_t batch_max) const;

  ServingEndpoint endpoint;
  std::deque<QueuedRequest> queue;
  std::uint64_t queued_samples = 0;
  DeviceHealthTracker health;
  ShardCounters counters;
  std::optional<obs::ServingMonitor> monitor;
  SimDuration free_at;
};

/// The open-loop arrival period. Offered load is a multiple of the full-tier
/// service rate: load L means chunks arrive L times faster than the
/// fault-free full-tier model serves them at `nominal` per sample. Zero for
/// the closed loop (`admission.offered_load == 0`).
SimDuration arrival_period(const ServeConfig& config, SimDuration nominal);

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
/// - a shard's head run (`Shard::head_run`) is ready at max(`free_at`,
///   arrival of its newest member) once it is full (`batch_max` requests)
///   or cannot grow (another tenant queued behind it, or no arrival can join
///   it); a growable run is held until max(`free_at`, head arrival +
///   `config.fleet.batch_max_age`);
/// - a run is never ready before the event that made it ready: the last
///   arrival or dispatch the loop processed (say the arrival that ended its
///   hold);
/// - the earliest-ready shard is dispatched first, the lowest index on ties;
/// - an arrival at a shard's ready time is offered before that dispatch, so
///   it can still join the batch.
void run_event_loop(const ServeConfig& config, std::span<Shard> shards, std::uint64_t first_id,
                    std::uint32_t batch_max, SimDuration period, const ArriveFn& arrive,
                    const DispatchFn& dispatch);

/// What a serving loop keeps for itself inside the per-batch body.
struct BatchHooks {
  /// The model a batch of `tenant` runs on `tier`.
  std::function<const ServingEndpoint::Model&(std::uint32_t tenant, ServeTier tier)> model;
  /// Makes `model` resident on shard `shard` for a batch on `tier` at `at`.
  /// Returns the charged upload time, zero when the load is uncharged.
  std::function<SimDuration(std::size_t shard, const ServingEndpoint::Model& model,
                            ServeTier tier, SimDuration at)>
      load;
  /// Runs after each served sample's records: sample `j` of `req`, with its
  /// model-quality record.
  std::function<void(const QueuedRequest& req, std::size_t j,
                     const obs::ModelQualityStats::Sample& sample)>
      sample;
  /// The host's class update after a served batch of `samples` samples;
  /// returns its charged time. Unset: no update.
  std::function<SimDuration(std::uint64_t samples)> update;
  /// Finalises a request of `tenant` on shard `shard`, on any outcome path.
  std::function<void(std::size_t shard, std::uint32_t tenant, obs::RequestTrace&& rt,
                     std::optional<obs::ExemplarReason> reason)>
      finish;
};

/// A served batch, for its loop's own bookkeeping.
struct ServedBatch {
  ServeTier tier = ServeTier::kFull;
  std::uint64_t samples = 0;  ///< over the members that were served
  std::uint64_t correct = 0;
  SimDuration service;  ///< device or host service time
  ResilienceReport report;
};

/// The one per-batch body under both serving loops: serves shard `index`'s
/// head run (at most `batch_max` requests) at its ready time `at`. Every
/// record goes to the shard's monitor, then the session's aggregate, then
/// the model-quality stats.
/// - Pops the run and takes the ladder verdict; syncs quarantine. A shard's
///   monitor follows its own health; the session-wide telemetry (aggregate
///   monitor, model quality, energy) is quarantined while every shard is.
/// - Expires each member that cannot finish its first sample in time (priced
///   only when a deadline is set). If every member expires, `free_at`
///   becomes max(`free_at`, `at`) and nothing is returned.
/// - Loads the model (`hooks.load`) and serves the live members as one
///   batch: a lone member from its own features, the interactive invoke at a
///   batch cap of 1 and the pipelined one above it. The oldest member's
///   budget bounds the per-sample retry watchdog.
/// - Feeds health and records every sample (completion times spread evenly
///   over the service, latency from arrival).
/// - Records the batch's transport and admission, charges the host update
///   (`hooks.update`), then finishes each member: at a batch cap of 1 its
///   chain holds the executor's spans per sample and attempt, above it the
///   batch's summed spans.
/// The shard is next free when its members finish. A device with a trace
/// attached serves one request per batch, and the trace follows it.
std::optional<ServedBatch> serve_batch(ServingSession& session, std::span<Shard> shards,
                                       std::size_t index, SimDuration at,
                                       std::uint32_t batch_max, const BatchHooks& hooks);

}  // namespace hdc::runtime

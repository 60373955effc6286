#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "data/stream.hpp"
#include "core/online.hpp"
#include "obs/energy.hpp"
#include "obs/model_stats.hpp"
#include "obs/monitor.hpp"
#include "runtime/framework.hpp"
#include "runtime/health.hpp"
#include "runtime/resilient.hpp"
#include "tpu/faults.hpp"

namespace hdc::runtime {

/// `part / whole`, or 0 when `whole` is 0.
inline double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// How the fleet router picks a device for an arriving tenant request.
enum class PlacementPolicy : std::uint8_t {
  /// Route to the device whose on-chip SRAM already holds the tenant's model
  /// (the parameter cache is single-active-model, so residency is tenant
  /// stickiness); fall back to least-loaded when no device has it warm or
  /// the warm device's queue is full. Maximizes cache hit rate under skew.
  kCacheAware = 0,
  /// Request index modulo device count — the cache-oblivious baseline.
  kRoundRobin = 1,
  /// Fewest queued samples (ties: earlier-free device, then lowest index).
  kLeastLoaded = 2,
};

const char* placement_name(PlacementPolicy policy);
/// Parses "cache-aware" / "round-robin" / "least-loaded" (CLI `--placement`).
PlacementPolicy parse_placement_policy(const std::string& name);

/// Multi-device fleet serving: N simulated Edge TPUs behind one router, a
/// multi-tenant request stream, dynamic micro-batching and cache-aware
/// placement. Consumed by `serve_fleet` (runtime/router.hpp); plain `serve`
/// ignores it.
struct FleetConfig {
  std::uint32_t num_devices = 1;
  std::uint32_t num_tenants = 1;
  /// Zipf exponent of tenant popularity (weight of tenant k ∝ (k+1)^-skew);
  /// 0 = uniform. Skewed traffic is what makes cache-aware placement beat
  /// round-robin on parameter-cache hit rate.
  double tenant_skew = 0.0;
  /// Micro-batch cap: queued same-tenant chunks coalesced into one device
  /// invocation (1 = unbatched FCFS). Batched invocations stream through the
  /// pipelined path, amortizing the per-invoke USB overhead.
  std::uint32_t batch_max_chunks = 1;
  /// Age bound: a head-of-queue request is dispatched no later than this
  /// long after its arrival even if the batch is not full, bounding the
  /// batching hold under light load.
  SimDuration batch_max_age = SimDuration::micros(200);
  PlacementPolicy placement = PlacementPolicy::kCacheAware;
  /// Seed of the arrival tenant sequence (independent of stream/model seeds).
  std::uint64_t seed = 0xF1EE7D01ULL;

  void validate() const;
};

/// Configuration of a live serving session: a `data::DriftStream` pumped
/// chunk by chunk through a persistent fault-tolerant accelerator endpoint
/// with prequential evaluation, optional host-side online updates, and a
/// `obs::ServingMonitor` watching every served sample.
///
/// Overload protection: chunks arrive on an open-loop schedule set by
/// `admission.offered_load`, wait in a bounded queue (shedding when full),
/// carry per-request deadlines, and are served on a tiered degradation
/// ladder (full TPU model / reduced-dimension TPU model / host CPU) chosen
/// by the device health state machine and the backlog.
struct ServeConfig {
  data::StreamConfig stream;     ///< task shape, chunking, drift schedule
  core::OnlineConfig learner;    ///< host learner (dim/seed/lr/similarity)

  /// Chunks consumed to train the learner before serving starts. The first
  /// warmup chunk doubles as the quantization-calibration representative
  /// set. Note: the drift schedule counts *all* chunks the stream emits,
  /// warmup included.
  std::uint32_t warmup_chunks = 4;
  std::uint32_t serve_chunks = 32;

  /// Host-side OnlineLearner updates on the served (prequential) labels.
  bool online_updates = false;
  /// With online updates: refreeze the learner into the deployed classifier
  /// every N served chunks (0 = never refresh; serve the warmup model).
  std::uint32_t model_refresh_chunks = 4;

  tpu::FaultProfile faults;  ///< default: fault-free device
  RetryPolicy retry;

  /// Overload protection: arrival rate, queue bound, shed policy, deadline.
  /// The default (offered_load = 0) is the closed loop: each chunk arrives
  /// exactly when the previous one finished, no queue builds, nothing is
  /// shed — bit-identical to serving without admission control.
  AdmissionConfig admission;
  /// Device health state machine thresholds (degrade / quarantine / probe).
  HealthConfig health;
  /// Multi-device fleet shape (devices, tenants, batching, placement). Only
  /// `serve_fleet` reads it; single-device `serve` ignores it entirely.
  FleetConfig fleet;
  /// Dimension of the reduced-tier (LDC-style) fallback model trained next
  /// to the full learner during warmup, at most `learner.dim`. 0 = auto:
  /// max(64, learner.dim / 8), clamped to `learner.dim`.
  std::uint32_t reduced_dim = 0;

  // ---- checkpoint / restore ------------------------------------------------
  /// Binary serve checkpoint ("HDSV"): models, online-learner counters,
  /// health state, admission queue and fault-injector RNG. Written every
  /// `checkpoint_every_chunks` served chunks (latest-wins at this path,
  /// plus a numbered `<path>.NNNN` history copy per interval) and at the
  /// end of the run. Empty = no checkpoints.
  std::string checkpoint_path;
  std::uint32_t checkpoint_every_chunks = 0;
  /// Resume a previous session from this checkpoint: the stream fast-forwards
  /// deterministically and serving continues mid-stream, byte-identical to a
  /// run that was never interrupted. Empty = start fresh.
  std::string resume_from;

  /// Monitor thresholds/window, shared by every serving monitor of a
  /// session. `monitor.num_classes` is filled from the stream spec. Before
  /// the first arrival, `monitor.window.span == 0` auto-sizes the window to
  /// 4x a chunk at the fault-free full-tier per-sample price
  /// (`ServingEndpoint::nominal_per_sample`, the fleet's tenant 0 on device
  /// 0), `window.buckets == 0` takes 16, and `monitor.slo_latency == 0`
  /// auto-targets 1.5x that price: the price the open-loop arrival period
  /// uses, so sizing never depends on what was served.
  obs::MonitorConfig monitor;

  /// Model-quality monitor thresholds/bins (obs/model_stats.hpp). The serve
  /// layer fills `num_classes` from the stream spec, `dim` from the learner
  /// and `window` from the resolved monitor window; only the tunables
  /// (alarm thresholds, bin counts) are read from here.
  obs::ModelStatsConfig model_stats;

  /// Energy accountant power profile / alarm threshold (obs/energy.hpp). The
  /// serve layer fills `window` from the resolved monitor window; only the
  /// tunables (profile watts, `alarm_joules_per_inference`, `min_samples`)
  /// are read from here.
  obs::EnergyConfig energy;

  // ---- exporters (strictly write-only; never feed back into serving) ----
  /// Directory for periodic `monitor_snapshot_NNNN.json` +
  /// `monitor_snapshot_final.json` (hdc-monitor-v1). Empty = no snapshots.
  std::string snapshot_dir;
  /// Snapshot every N served chunks (0 = final snapshot only).
  std::uint32_t snapshot_every_chunks = 0;
  /// Prometheus text-exposition file, rewritten at every snapshot interval
  /// and at the end of the run. Empty = disabled.
  std::string prometheus_path;

  // ---- per-request tracing (strictly observational, like the monitor) ----
  /// Bounds for tail-based exemplar capture: full span chains are kept only
  /// for requests that are shed, expired, served off the full tier, or land
  /// at/above the windowed p99 — under this hard memory bound. Not part of
  /// the checkpoint fingerprint (exemplars restart cold on resume, like the
  /// monitor).
  obs::ExemplarConfig exemplars;
  /// Retained exemplar chains as `hdc-request-trace-v1` JSONL. Empty = write
  /// `<snapshot_dir>/exemplars.jsonl` when a snapshot dir is set, else skip.
  std::string exemplar_path;

  /// Effective reduced-tier dimension after the auto rule.
  std::uint32_t effective_reduced_dim() const;

  void validate() const;
};

/// Where a session writes its retained exemplars: `exemplar_path`, else
/// `<snapshot_dir>/exemplars.jsonl` when a snapshot dir is set, else nowhere
/// (empty).
std::string exemplar_output_path(const ServeConfig& config);

/// What one serving session produced. `predictions` and `t_end` depend only
/// on the stream/learner/fault/admission configuration — never on monitor
/// thresholds, window sizing, or exporters (result-invariance, pinned by
/// tests).
struct ServeResult {
  /// Per-chunk digest, in serve order. Shed and expired chunks do not get an
  /// entry (they were never served); `index` is the offered-chunk index, so
  /// gaps in it are exactly the dropped chunks.
  struct ChunkStats {
    std::uint32_t index = 0;        ///< offered-chunk index (warmup not counted)
    SimDuration t_end;              ///< simulated clock after the chunk (incl. updates)
    std::uint64_t samples = 0;
    double chunk_accuracy = 0.0;    ///< served predictions vs labels, this chunk
    double windowed_accuracy = 0.0;
    double drift_score = 0.0;
    std::uint64_t fallback_samples = 0;
    bool circuit_opened = false;
    ServeTier tier = ServeTier::kFull;  ///< ladder tier the chunk ran on
    SimDuration queue_wait;             ///< admission-queue wait before service
    DeviceHealth health = DeviceHealth::kHealthy;  ///< device state after the chunk
  };

  /// Per-tier prequential telemetry (samples, errors, service time).
  struct TierStats {
    std::uint64_t samples = 0;
    std::uint64_t errors = 0;
    SimDuration service_time;
    double accuracy() const {
      return samples == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(errors) / static_cast<double>(samples);
    }
  };

  std::vector<std::uint32_t> predictions;  ///< all served predictions, in order
  std::vector<ChunkStats> chunks;
  obs::MonitorSnapshot final_snapshot;
  std::vector<obs::AlarmEvent> events;     ///< every alarm edge, in order
  /// Final model-quality view (confusion, calibration, dimension
  /// discriminability) and the model alarm edges, kept separate from the
  /// serving-monitor `events` so existing consumers see an unchanged stream.
  obs::ModelStatsSnapshot final_model;
  std::vector<obs::AlarmEvent> model_events;
  /// Final energy view (stage/component/outcome picojoule ledgers, windowed
  /// joules-per-inference, watts EWMA) and the energy alarm edges. Exact
  /// conservation contract: stage and component ledgers sum to `total_pj`,
  /// served + shed + expired == total, and re-pricing each `requests` entry's
  /// attribution under `config.energy.profile` and summing the integer atoms
  /// reproduces `final_energy.stage_pj` bit-exactly on fresh runs (pricing
  /// happens per request, so summing *durations* first would round
  /// differently; on resume `requests` restarts cold while the ledgers cover
  /// the whole session).
  obs::EnergySnapshot final_energy;
  std::vector<obs::AlarmEvent> energy_events;

  SimDuration t_end;                       ///< final simulated clock
  std::uint64_t samples_served = 0;
  double lifetime_accuracy = 0.0;
  double warmup_accuracy = 0.0;            ///< prequential accuracy of the warmup pass
  std::uint32_t snapshots_written = 0;

  // ---- overload / degradation telemetry -----------------------------------
  std::array<TierStats, 3> tiers{};        ///< indexed by ServeTier
  std::uint64_t shed_samples = 0;          ///< dropped by the admission queue
  std::uint64_t expired_samples = 0;       ///< deadline exceeded before service
  std::uint64_t degraded_samples = 0;      ///< served on tier > kFull
  std::uint32_t shed_chunks = 0;
  std::uint32_t expired_chunks = 0;
  DeviceHealth final_health = DeviceHealth::kHealthy;
  std::vector<DeviceHealthTracker::Transition> health_transitions;
  std::uint64_t quarantines = 0;
  std::uint64_t probes = 0;
  std::uint32_t checkpoints_written = 0;

  // ---- per-request causal tracing & latency attribution -------------------
  /// Every offered request's causal chain (served, shed and expired alike),
  /// in offered order. On resume this holds only the post-resume requests
  /// (like the monitor, request records restart cold); the attribution
  /// accumulators below are checkpointed and cover the whole session.
  std::vector<obs::RequestTrace> requests;
  /// Stage-grouped durations summed over the whole session (checkpointed).
  obs::RequestAttribution attribution_total;
  std::uint64_t requests_traced = 0;
  /// Retained tail-based exemplars, bounded by `ServeConfig::exemplars`.
  std::vector<obs::RequestExemplar> exemplar_records;
  std::size_t exemplar_bytes = 0;       ///< retained-chain footprint at the end
  std::size_t exemplar_bytes_peak = 0;  ///< peak footprint (never exceeds the bound)
  std::uint64_t exemplars_evicted = 0;
  /// TraceContext accounting when the framework has a tracer attached
  /// (`--trace`): events recorded / dropped at the event cap.
  std::size_t trace_events = 0;
  std::size_t trace_dropped = 0;
};

/// Runs the serving session to completion. Deterministic: a fixed
/// `ServeConfig` (and `framework` system config) reproduces bit-identical
/// predictions, simulated timings, health transitions, alarm edges and
/// snapshot/checkpoint bytes. Resuming from a mid-stream checkpoint yields
/// the same bytes as the uninterrupted run.
ServeResult serve(const CoDesignFramework& framework, const ServeConfig& config);

/// Outcome counters of one shard.
struct ShardCounters {
  std::uint64_t served_requests = 0;
  std::uint64_t served_samples = 0;
  std::uint64_t correct_samples = 0;  ///< served samples predicted right
  std::uint64_t shed_requests = 0;
  std::uint64_t shed_samples = 0;
  std::uint64_t expired_requests = 0;
  std::uint64_t expired_samples = 0;
  std::uint64_t degraded_requests = 0;
  std::uint64_t degraded_samples = 0;
};

/// What an HDSV checkpoint holds: everything a resumed session restores
/// before re-entering the loop.
struct ServeCheckpoint {
  explicit ServeCheckpoint(const HealthConfig& health_config) : health(health_config) {}

  std::uint32_t next_arrival = 0;
  SimDuration now;
  std::optional<core::OnlineLearner> full;
  std::optional<core::OnlineLearner> reduced;
  /// The classifiers actually deployed on the endpoint (frozen at the last
  /// refresh — generally *behind* the live learners).
  std::optional<core::TrainedClassifier> deployed_full;
  std::optional<core::TrainedClassifier> deployed_reduced;
  DeviceHealthTracker health;
  Rng::State rng{};
  /// Queued requests by offered-chunk index; their data is re-derived by
  /// replaying the deterministic stream.
  struct Queued {
    std::uint64_t id = 0;
    SimDuration arrival;
  };
  std::vector<Queued> queue;

  /// The checkpointed part of the result: warmup accuracy, predictions,
  /// chunks, tiers, snapshot/checkpoint counts and attribution totals.
  ServeResult result;
  /// Served/shed/expired/degraded counts (degraded requests are not kept:
  /// single-device serving reports degraded samples only).
  ShardCounters counters;
  /// The serving monitor, model-quality stats and energy accountant exactly
  /// as they were at checkpoint time. A session builds all three before its
  /// first arrival, so a checkpoint always carries them; each keeps a u8
  /// presence flag on the wire, always 1, and reading rejects a 0.
  std::optional<obs::ServingMonitor> monitor;
  std::optional<obs::ModelQualityStats> model_stats;
  std::optional<obs::EnergyAccountant> energy;
};

/// Parses an HDSV checkpoint the way resuming `config` from it does (magic,
/// version, CRC, fingerprint match, queue and chunk bounds, exact payload
/// traversal) without serving, and returns what it restores. Throws
/// `hdc::Error` wherever `serve` would refuse to resume from it.
ServeCheckpoint verify_checkpoint(const std::string& path, const ServeConfig& config);

/// Reads the model-quality section out of an HDSV checkpoint without the
/// original `ServeConfig` (magic/version/CRC still verified; the config
/// fingerprint is skipped instead of matched). Returns a deterministic
/// `{"schema":"hdc-modelstats-v1",...}` JSON document with the embedded
/// `model` object at the checkpoint's simulated time — what
/// `hdc model inspect` consumes. Throws `hdc::Error` if the checkpoint
/// predates model stats (HDSV < 4) or carries none.
std::string checkpoint_model_stats_json(const std::string& path);

/// Reads the energy section out of an HDSV checkpoint without the original
/// `ServeConfig` (magic/version/CRC still verified). Returns a deterministic
/// `{"schema":"hdc-energystats-v1",...}` JSON document with the embedded
/// `energy` object at the checkpoint's simulated time — what
/// `hdc energy inspect` consumes. Throws `hdc::Error` if the checkpoint
/// predates energy accounting (HDSV < 5) or carries none.
std::string checkpoint_energy_json(const std::string& path);

}  // namespace hdc::runtime

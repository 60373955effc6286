#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "obs/energy.hpp"
#include "obs/monitor.hpp"
#include "obs/request_trace.hpp"
#include "runtime/health.hpp"
#include "runtime/serve.hpp"

namespace hdc::runtime {

/// Fleet serving: one router fanning a multi-tenant open-loop request stream
/// across N simulated Edge TPUs (`ServeConfig::fleet`).
///
/// Each tenant owns an independent drifting stream and a model trained on
/// its own warmup prefix; each device is a `ServingEndpoint` (a full
/// simulated accelerator: MXU + USB link + parameter SRAM + fault injector)
/// with a health state machine and a bounded admission queue in front of
/// it. The router places every arriving chunk on a device
/// (`PlacementPolicy`), coalesces queued same-tenant chunks into dynamic
/// micro-batches (up to `batch_max_chunks`, held at most `batch_max_age`
/// past the head's arrival), and serves each batch through the per-batch
/// body single-device serving uses (`serve_batch`, runtime/shard), on the
/// event loop both serving loops share (`run_event_loop`). The router
/// supplies only its arrivals (tenant draw, placement, admission, ledgers)
/// and its hooks: the tenant's model, the charged swap, the per-tenant
/// stats and predictions, and the energy ledgers. Each shard's records go
/// to its own monitor and then to the fleet session's aggregate monitor.
///
/// One difference from single-device serving stays on purpose: the
/// tenant-model swap (`ServingEndpoint::swap`) is a charged, counted weight
/// upload, paid exactly when a batch lands on a device whose SRAM holds a
/// different tenant's parameters; serve's tier switches are uncharged.
///
/// Batched invocations run the pipelined streaming path (double-buffered
/// link/compute overlap, no per-sample interactive round trip), which is
/// what amortizes the per-invoke USB overhead, and each member's span chain
/// carries the batch's summed service spans; unbatched fleets
/// (`batch_max_chunks == 1`) use the same interactive invoke and per-sample
/// chains as single-device serving. Predictions are bit-identical either
/// way — the functional math is per-sample — so batching is a pure
/// latency/throughput trade, pinned by tests.
///
/// Determinism: a fixed `ServeConfig` reproduces bit-identical placements,
/// batch compositions, predictions, simulated timings, health transitions
/// and alarm edges. The fleet layer serves frozen per-tenant models (no
/// online updates), does not checkpoint, writes no periodic snapshots, and
/// refuses a framework with a trace attached (no per-device trace tracks).
///
/// The degradation ladder collapses to device/host in fleet mode: only one
/// model per tenant is lowered, so a `kReduced` admission verdict runs the
/// full model on the device (still counted degraded — the verdict reflects
/// backlog/health pressure) and `kHost` runs the tenant's float model on the
/// CPU, never touching the device.
struct FleetShardResult {
  std::uint32_t device_index = 0;

  std::uint64_t requests_served = 0;
  std::uint64_t samples_served = 0;
  std::uint64_t shed_requests = 0;
  std::uint64_t expired_requests = 0;
  std::uint64_t degraded_requests = 0;

  std::uint64_t batches = 0;  ///< device/host invocations dispatched
  /// Parameter-cache telemetry: one lookup per dispatched batch; a miss is a
  /// charged tenant-model swap (hits + swaps == lookups).
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t swaps = 0;
  SimDuration swap_time;  ///< total charged weight-upload time

  SimDuration busy;   ///< simulated service time (swap + batch service)
  SimDuration t_end;  ///< completion of this shard's last batch

  DeviceHealth final_health = DeviceHealth::kHealthy;
  std::uint64_t quarantines = 0;
  std::uint64_t probes = 0;

  obs::MonitorSnapshot final_snapshot;  ///< per-shard SLO view (hdc-monitor-v1)

  /// Total simulated energy attributed to this shard's requests, in integer
  /// picojoules (expired/shed requests placed here included). Shard ledgers
  /// HDC_CHECK-sum to the fleet accountant's total.
  std::int64_t energy_pj = 0;

  double mean_batch_chunks() const { return ratio(requests_served, batches); }
  double cache_hit_rate() const { return ratio(cache_hits, cache_lookups); }
};

/// What one fleet session produced. Conservation invariant (pinned by
/// tests): offered == served + shed + expired, in requests and in samples.
struct FleetResult {
  std::vector<FleetShardResult> shards;

  /// Served predictions concatenated in offered-request order (shed and
  /// expired requests contribute nothing).
  std::vector<std::uint32_t> predictions;
  /// Every offered request's causal chain (served, shed, expired alike), in
  /// offered order; attribution is bit-exact per request.
  std::vector<obs::RequestTrace> requests;

  std::uint64_t offered_requests = 0;
  std::uint64_t served_requests = 0;
  std::uint64_t shed_requests = 0;
  std::uint64_t expired_requests = 0;
  std::uint64_t offered_samples = 0;
  std::uint64_t samples_served = 0;
  std::uint64_t shed_samples = 0;
  std::uint64_t expired_samples = 0;
  std::uint64_t degraded_samples = 0;

  std::uint64_t batches = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t swaps = 0;
  double cache_hit_rate = 0.0;
  double mean_batch_chunks = 0.0;

  SimDuration t_end;  ///< completion of the last batch fleet-wide
  double lifetime_accuracy = 0.0;

  /// Fleet-aggregate monitor (all shards' samples in one window) and its
  /// alarm edge history; per-shard snapshots live in `shards`.
  obs::MonitorSnapshot fleet_snapshot;
  std::vector<obs::AlarmEvent> events;

  /// Fleet-aggregate model quality plus one per-tenant view each, all over
  /// outcomes and calibration, with confidence from the served class scores
  /// (`record_sample`, runtime/shard). Every view has `dim` 0: the served
  /// hidden layer never leaves the device, so no dimension window is kept.
  /// Conservation: the aggregate's samples_total == samples_served and the
  /// per-tenant samples_total sum to it.
  obs::ModelStatsSnapshot fleet_model;
  std::vector<obs::ModelStatsSnapshot> tenant_models;
  /// Model alarm edges from the fleet aggregate, separate from `events`.
  std::vector<obs::AlarmEvent> model_events;

  obs::RequestAttribution attribution_total;
  std::uint64_t requests_traced = 0;
  std::vector<obs::RequestExemplar> exemplar_records;

  /// Fleet-aggregate energy ledger (all requests, every outcome path) and
  /// its budget-alarm edge history. Conservation (pinned by HDC_CHECK): the
  /// per-shard `energy_pj` ledgers and the per-tenant ledgers below each sum
  /// bit-exactly to `fleet_energy.total_pj`.
  obs::EnergySnapshot fleet_energy;
  /// Per-tenant energy in picojoules, indexed by tenant id. Shed requests
  /// (which know their tenant) are charged to it; sums to the fleet total.
  std::vector<std::int64_t> tenant_energy_pj;
  std::vector<obs::AlarmEvent> energy_events;
};

/// Runs a fleet serving session to completion. Uses `config.stream` /
/// `config.learner` / `config.warmup_chunks` for each tenant's model,
/// `config.serve_chunks` as the *total* offered request count across the
/// fleet, `config.admission` per device queue (offered_load stays in
/// single-device full-tier service-rate units and must be positive — the
/// fleet router is open-loop only), and `config.fleet` for the fleet shape.
FleetResult serve_fleet(const CoDesignFramework& framework, const ServeConfig& config);

}  // namespace hdc::runtime

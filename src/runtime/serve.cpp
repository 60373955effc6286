#include "runtime/serve.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "common/byte_io.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/serialize.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace hdc::runtime {

namespace {

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  HDC_CHECK(out.good(), "cannot open '" + path + "' for writing");
  out << content;
  HDC_CHECK(out.good(), "failed writing '" + path + "'");
}

std::string snapshot_path(const std::string& dir, std::uint32_t index) {
  char name[48];
  std::snprintf(name, sizeof(name), "monitor_snapshot_%04u.json", index);
  return (std::filesystem::path(dir) / name).string();
}

/// Feeds the serving loop's simulated clock to the structured log for the
/// lifetime of the session, so JSONL records (alarm edges in particular)
/// carry `t_s` in simulated seconds.
class LogClockScope {
 public:
  explicit LogClockScope(const double* clock) {
    log::set_time_provider([clock] { return *clock; });
  }
  ~LogClockScope() { log::set_time_provider(nullptr); }
  LogClockScope(const LogClockScope&) = delete;
  LogClockScope& operator=(const LogClockScope&) = delete;
};

/// A chunk admitted to the serving queue but not yet served.
struct PendingChunk {
  std::uint32_t index = 0;  ///< offered-chunk index
  SimDuration arrival;
  data::Dataset data;
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

// ---- serve checkpoint ("HDSV") ---------------------------------------------
//
// magic + version + config fingerprint + progress + both learners + health
// state machine + fault-injector RNG + pending queue (indices only; chunk
// data is re-derived by deterministic stream replay) + result accumulators +
// the serving monitor's exact state, closed by a CRC32 trailer. The monitor
// is observational (result-invariant), but its windows/EWMAs/alarm edges are
// part of the run's *telemetry* contract: serializing it makes a resumed
// run's alarm lines, snapshots, and per-chunk monitor-derived fields
// (windowed accuracy, drift score) byte-identical to the uninterrupted
// run's. Exemplar span chains and raw request records stay cold on resume —
// they are bounded debugging artifacts, not accumulators, and re-warm
// deterministically.

constexpr std::uint32_t kServeMagic = 0x56534448;  // "HDSV" little-endian
// v2: appended the per-request latency-attribution accumulators (stage sums
// + requests_traced) after `checkpoints_written`.
// v3: per-chunk windowed_accuracy/drift_score joined ChunkStats, and the
// full serving-monitor state (windows, EWMAs, alarms, event history,
// quarantine gate, lifetime totals) is appended after `requests_traced`.
// v4: the config fingerprint gained the stream's label-swap drift pair,
// alarm events carry a `detail` string on the wire, and the model-quality
// monitor (obs/model_stats.hpp: confusion/calibration/dimension state) is
// appended after the serving monitor.
// v5: the energy accountant (obs/energy.hpp: integer-picojoule ledgers,
// joules-per-inference window, watts EWMA, energy_budget alarm state) is
// appended after the model-quality monitor, with the same u8 presence flag.
constexpr std::uint32_t kServeVersion = 5;

/// Everything a resumed session restores before re-entering the loop.
struct RestoredState {
  std::uint32_t next_arrival = 0;
  SimDuration now;
  double warmup_accuracy = 0.0;
  std::uint32_t served_count = 0;
  std::optional<core::OnlineLearner> full;
  std::optional<core::OnlineLearner> reduced;
  /// The classifiers actually deployed on the endpoint (frozen at the last
  /// refresh — generally *behind* the live learners).
  std::optional<core::TrainedClassifier> deployed_full;
  std::optional<core::TrainedClassifier> deployed_reduced;
  std::optional<DeviceHealthTracker> health;
  Rng::State rng{};
  std::vector<std::pair<std::uint32_t, SimDuration>> queue;  ///< (index, arrival)

  std::vector<std::uint32_t> predictions;
  std::vector<ServeResult::ChunkStats> chunks;
  std::array<ServeResult::TierStats, 3> tiers{};
  std::uint64_t shed_samples = 0;
  std::uint64_t expired_samples = 0;
  std::uint64_t degraded_samples = 0;
  std::uint32_t shed_chunks = 0;
  std::uint32_t expired_chunks = 0;
  std::uint64_t correct_total = 0;
  std::uint64_t samples_served = 0;
  std::uint32_t snapshots_written = 0;
  std::uint32_t checkpoints_written = 0;
  obs::RequestAttribution attribution_total;
  std::uint64_t requests_traced = 0;
  /// The serving monitor exactly as it was at checkpoint time (absent when
  /// the interrupted run never served a chunk, so no monitor existed yet).
  std::optional<obs::ServingMonitor> monitor;
  /// Model-quality monitor state (same lazy lifecycle as `monitor`).
  std::optional<obs::ModelQualityStats> model_stats;
  /// Energy accountant state (same lazy lifecycle as `monitor`).
  std::optional<obs::EnergyAccountant> energy;
};

void write_fingerprint(ByteWriter& w, const ServeConfig& config) {
  const data::SyntheticSpec& spec = config.stream.spec;
  w.write<std::uint32_t>(spec.features);
  w.write<std::uint32_t>(spec.classes);
  w.write<std::uint32_t>(spec.samples);
  w.write<std::uint32_t>(spec.latent_dim);
  w.write<std::uint64_t>(spec.seed);
  w.write<float>(spec.class_separation);
  w.write<float>(spec.noise_sigma);
  w.write<float>(spec.warp_strength);
  w.write<std::uint32_t>(config.stream.chunk_size);
  w.write<std::uint32_t>(config.stream.drift_start_chunk);
  w.write<std::uint32_t>(config.stream.drift_duration_chunks);
  w.write<std::uint32_t>(config.stream.drift_swap_a);
  w.write<std::uint32_t>(config.stream.drift_swap_b);
  w.write<std::uint32_t>(config.learner.dim);
  w.write<std::uint64_t>(config.learner.seed);
  w.write<float>(config.learner.learning_rate);
  w.write<std::uint8_t>(static_cast<std::uint8_t>(config.learner.similarity));
  w.write<std::uint32_t>(config.learner.error_window);
  w.write<std::uint32_t>(config.warmup_chunks);
  w.write<std::uint32_t>(config.serve_chunks);
  w.write<std::uint8_t>(config.online_updates ? 1 : 0);
  w.write<std::uint32_t>(config.model_refresh_chunks);
  w.write<std::uint32_t>(config.effective_reduced_dim());
  w.write<double>(config.admission.offered_load);
  w.write<std::uint32_t>(config.admission.queue_capacity);
  w.write<std::uint8_t>(static_cast<std::uint8_t>(config.admission.policy));
  w.write<double>(config.admission.deadline.to_seconds());
  w.write<std::uint32_t>(config.admission.degrade_backlog);
  w.write<std::uint32_t>(config.health.degrade_after_faults);
  w.write<std::uint32_t>(config.health.quarantine_after_faults);
  w.write<std::uint32_t>(config.health.recover_after_successes);
  w.write<double>(config.health.probe_interval.to_seconds());
  w.write<std::uint32_t>(config.health.probe_successes);
}

template <typename T>
void check_fingerprint_field(T got, T expected, const char* field) {
  HDC_CHECK(got == expected,
            std::string("checkpoint does not match this serving config: '") + field +
                "' was " + std::to_string(got) + " when the checkpoint was written but "
                "is " + std::to_string(expected) + " now; resume with the original "
                "stream/learner/admission configuration");
}

/// Traverses the fingerprint. Strict mode (config != nullptr) matches every
/// field against the resuming config; relaxed mode (nullptr, used by
/// `checkpoint_model_stats_json`) reads and discards — every field is a
/// fixed-size scalar, so the traversal needs no configuration.
void read_fingerprint(ByteReader& r, const ServeConfig* maybe_config) {
  const ServeConfig defaults;
  const ServeConfig& config = maybe_config != nullptr ? *maybe_config : defaults;
  const bool strict = maybe_config != nullptr;
  const auto field = [&](auto expected, const char* name) {
    const auto got = r.read<decltype(expected)>();
    if (strict) {
      check_fingerprint_field(got, expected, name);
    }
  };
  const data::SyntheticSpec& spec = config.stream.spec;
  field(spec.features, "features");
  field(spec.classes, "classes");
  field(spec.samples, "samples");
  field(spec.latent_dim, "latent_dim");
  field(spec.seed, "stream seed");
  field(spec.class_separation, "class_separation");
  field(spec.noise_sigma, "noise_sigma");
  field(spec.warp_strength, "warp_strength");
  field(config.stream.chunk_size, "chunk_size");
  field(config.stream.drift_start_chunk, "drift_start_chunk");
  field(config.stream.drift_duration_chunks, "drift_duration_chunks");
  field(config.stream.drift_swap_a, "drift_swap_a");
  field(config.stream.drift_swap_b, "drift_swap_b");
  field(config.learner.dim, "learner dim");
  field(config.learner.seed, "learner seed");
  field(config.learner.learning_rate, "learning_rate");
  field(static_cast<std::uint8_t>(config.learner.similarity), "similarity");
  field(config.learner.error_window, "error_window");
  field(config.warmup_chunks, "warmup_chunks");
  field(config.serve_chunks, "serve_chunks");
  field(static_cast<std::uint8_t>(config.online_updates ? 1 : 0), "online_updates");
  field(config.model_refresh_chunks, "model_refresh_chunks");
  field(config.effective_reduced_dim(), "reduced_dim");
  field(config.admission.offered_load, "offered_load");
  field(config.admission.queue_capacity, "queue_capacity");
  field(static_cast<std::uint8_t>(config.admission.policy), "shed policy");
  field(config.admission.deadline.to_seconds(), "deadline");
  field(config.admission.degrade_backlog, "degrade_backlog");
  field(config.health.degrade_after_faults, "degrade_after_faults");
  field(config.health.quarantine_after_faults, "quarantine_after_faults");
  field(config.health.recover_after_successes, "recover_after_successes");
  field(config.health.probe_interval.to_seconds(), "probe_interval");
  field(config.health.probe_successes, "probe_successes");
}

void write_chunk_stats(ByteWriter& w, const ServeResult::ChunkStats& c) {
  w.write<std::uint32_t>(c.index);
  w.write<double>(c.t_end.to_seconds());
  w.write<std::uint64_t>(c.samples);
  w.write<double>(c.chunk_accuracy);
  w.write<double>(c.windowed_accuracy);
  w.write<double>(c.drift_score);
  w.write<std::uint64_t>(c.fallback_samples);
  w.write<std::uint8_t>(c.circuit_opened ? 1 : 0);
  w.write<std::uint8_t>(static_cast<std::uint8_t>(c.tier));
  w.write<double>(c.queue_wait.to_seconds());
  w.write<std::uint8_t>(static_cast<std::uint8_t>(c.health));
}

ServeResult::ChunkStats read_chunk_stats(ByteReader& r) {
  ServeResult::ChunkStats c;
  c.index = r.read<std::uint32_t>();
  c.t_end = SimDuration::seconds(r.read<double>());
  c.samples = r.read<std::uint64_t>();
  c.chunk_accuracy = r.read<double>();
  c.windowed_accuracy = r.read<double>();
  c.drift_score = r.read<double>();
  c.fallback_samples = r.read<std::uint64_t>();
  c.circuit_opened = r.read<std::uint8_t>() != 0;
  const auto tier = r.read<std::uint8_t>();
  HDC_CHECK(tier <= static_cast<std::uint8_t>(ServeTier::kHost),
            "serialized serve tier out of range");
  c.tier = static_cast<ServeTier>(tier);
  c.queue_wait = SimDuration::seconds(r.read<double>());
  const auto health = r.read<std::uint8_t>();
  HDC_CHECK(health <= static_cast<std::uint8_t>(DeviceHealth::kProbing),
            "serialized device health out of range");
  c.health = static_cast<DeviceHealth>(health);
  return c;
}

/// Parses an HDSV checkpoint. Strict mode (config != nullptr, the resume
/// path) additionally matches the fingerprint and bounds queue/chunk counts
/// against the configuration; relaxed mode (nullptr) only verifies the
/// structural invariants (magic, version, CRC, exact payload traversal) —
/// enough for inspection tools that have no ServeConfig in hand.
RestoredState read_checkpoint(const std::string& path, const ServeConfig* config) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  HDC_CHECK(bytes.size() > sizeof(std::uint32_t) * 3,
            "serve checkpoint '" + path + "' is too small to be valid");
  const std::size_t payload_size = bytes.size() - sizeof(std::uint32_t);
  std::uint32_t stored_checksum = 0;
  std::memcpy(&stored_checksum, bytes.data() + payload_size, sizeof(stored_checksum));
  HDC_CHECK(crc32(bytes.data(), payload_size) == stored_checksum,
            "serve checkpoint '" + path + "' failed its checksum (corrupted or truncated)");

  ByteReader r(std::span<const std::uint8_t>(bytes.data(), payload_size));
  HDC_CHECK(r.read<std::uint32_t>() == kServeMagic,
            "'" + path + "' is not an HDSV serve checkpoint");
  HDC_CHECK(r.read<std::uint32_t>() == kServeVersion,
            "unsupported serve checkpoint version in '" + path + "'");
  read_fingerprint(r, config);

  RestoredState state;
  state.next_arrival = r.read<std::uint32_t>();
  state.now = SimDuration::seconds(r.read<double>());
  state.warmup_accuracy = r.read<double>();
  state.served_count = r.read<std::uint32_t>();
  state.full = core::OnlineLearner::deserialize(r);
  state.reduced = core::OnlineLearner::deserialize(r);
  state.deployed_full = core::deserialize_classifier(r.read_vector<std::uint8_t>());
  state.deployed_reduced = core::deserialize_classifier(r.read_vector<std::uint8_t>());
  state.health = DeviceHealthTracker::deserialize(
      r, config != nullptr ? config->health : HealthConfig{});
  for (auto& word : state.rng.s) {
    word = r.read<std::uint64_t>();
  }
  state.rng.has_spare_gaussian = r.read<std::uint8_t>() != 0;
  state.rng.spare_gaussian = r.read<float>();

  const auto queued = r.read<std::uint32_t>();
  HDC_CHECK(config == nullptr || queued <= config->admission.queue_capacity,
            "serve checkpoint queue exceeds the configured capacity");
  for (std::uint32_t i = 0; i < queued; ++i) {
    const auto index = r.read<std::uint32_t>();
    const SimDuration arrival = SimDuration::seconds(r.read<double>());
    HDC_CHECK(index < state.next_arrival, "serve checkpoint queue index out of range");
    state.queue.emplace_back(index, arrival);
  }

  state.predictions = r.read_vector<std::uint32_t>();
  const auto chunk_count = r.read<std::uint32_t>();
  HDC_CHECK(config == nullptr || chunk_count <= config->serve_chunks,
            "serve checkpoint has too many chunks");
  state.chunks.reserve(chunk_count);
  for (std::uint32_t i = 0; i < chunk_count; ++i) {
    state.chunks.push_back(read_chunk_stats(r));
  }
  for (auto& tier : state.tiers) {
    tier.samples = r.read<std::uint64_t>();
    tier.errors = r.read<std::uint64_t>();
    tier.service_time = SimDuration::seconds(r.read<double>());
  }
  state.shed_samples = r.read<std::uint64_t>();
  state.expired_samples = r.read<std::uint64_t>();
  state.degraded_samples = r.read<std::uint64_t>();
  state.shed_chunks = r.read<std::uint32_t>();
  state.expired_chunks = r.read<std::uint32_t>();
  state.correct_total = r.read<std::uint64_t>();
  state.samples_served = r.read<std::uint64_t>();
  state.snapshots_written = r.read<std::uint32_t>();
  state.checkpoints_written = r.read<std::uint32_t>();
  for (auto& stage : state.attribution_total.stages) {
    stage = SimDuration::seconds(r.read<double>());
  }
  state.requests_traced = r.read<std::uint64_t>();
  if (r.read<std::uint8_t>() != 0) {
    state.monitor = obs::ServingMonitor::deserialize(r);
  }
  if (r.read<std::uint8_t>() != 0) {
    state.model_stats = obs::ModelQualityStats::deserialize(r);
  }
  if (r.read<std::uint8_t>() != 0) {
    state.energy = obs::EnergyAccountant::deserialize(r);
  }
  HDC_CHECK(r.exhausted(), "trailing bytes after serve checkpoint payload");
  return state;
}

}  // namespace

const char* placement_name(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kCacheAware: return "cache-aware";
    case PlacementPolicy::kRoundRobin: return "round-robin";
    case PlacementPolicy::kLeastLoaded: return "least-loaded";
  }
  return "unknown";
}

PlacementPolicy parse_placement_policy(const std::string& name) {
  if (name == "cache-aware") return PlacementPolicy::kCacheAware;
  if (name == "round-robin") return PlacementPolicy::kRoundRobin;
  if (name == "least-loaded") return PlacementPolicy::kLeastLoaded;
  throw Error("unknown placement policy '" + name +
              "' (expected cache-aware, round-robin or least-loaded)");
}

void FleetConfig::validate() const {
  HDC_CHECK(num_devices >= 1, "a fleet needs at least one device");
  HDC_CHECK(num_tenants >= 1, "a fleet needs at least one tenant");
  HDC_CHECK(tenant_skew >= 0.0, "tenant_skew must be non-negative");
  HDC_CHECK(batch_max_chunks >= 1, "batch_max_chunks must be at least 1");
  HDC_CHECK(!(batch_max_age < SimDuration()), "batch_max_age must be non-negative");
}

std::uint32_t ServeConfig::effective_reduced_dim() const {
  return reduced_dim != 0 ? reduced_dim : std::max<std::uint32_t>(64, learner.dim / 8);
}

void ServeConfig::validate() const {
  stream.validate();
  HDC_CHECK(warmup_chunks >= 1,
            "serving needs at least one warmup chunk (it doubles as the "
            "quantization-calibration set)");
  HDC_CHECK(serve_chunks >= 1, "nothing to serve: serve_chunks must be positive");
  HDC_CHECK(learner.dim > 0, "learner dimension must be positive");
  faults.validate();
  retry.validate();
  admission.validate();
  health.validate();
  fleet.validate();
  HDC_CHECK(checkpoint_every_chunks == 0 || !checkpoint_path.empty(),
            "a checkpoint interval needs a checkpoint path to write to");
  // The monitor config is completed (num_classes, auto window/SLO) at serve
  // time and validated by the ServingMonitor constructor.
}

ServeResult serve(const CoDesignFramework& framework, const ServeConfig& config) {
  config.validate();
  const data::SyntheticSpec& spec = config.stream.spec;

  std::optional<RestoredState> restored;
  if (!config.resume_from.empty()) {
    restored = read_checkpoint(config.resume_from, &config);
  }
  const bool fresh = !restored.has_value();

  data::DriftStream stream(config.stream);
  core::OnlineConfig reduced_config = config.learner;
  reduced_config.dim = config.effective_reduced_dim();
  core::OnlineLearner learner(spec.features, spec.classes, config.learner);
  core::OnlineLearner reduced_learner(spec.features, spec.classes, reduced_config);

  // ---- warmup: train both ladder learners, keep chunk 0 as calibration ----
  // On resume the stream still replays the warmup chunks (its RNG must reach
  // the same position) but the learners come from the checkpoint instead.
  data::Dataset representative;
  double warmup_accuracy_sum = 0.0;
  for (std::uint32_t w = 0; w < config.warmup_chunks; ++w) {
    data::Dataset chunk = stream.next_chunk();
    if (fresh) {
      warmup_accuracy_sum += learner.learn_batch(chunk);
      reduced_learner.learn_batch(chunk);
    }
    if (w == 0) {
      representative = std::move(chunk);
    }
  }

  std::deque<PendingChunk> queue;
  std::uint32_t next_arrival = 0;
  if (restored.has_value()) {
    learner = std::move(*restored->full);
    reduced_learner = std::move(*restored->reduced);
    next_arrival = restored->next_arrival;
    // Replay the offered chunks the interrupted session already generated:
    // the stream is deterministic, so the queued chunks' data is re-derived
    // by index (shed/served chunks are consumed and discarded).
    std::map<std::uint32_t, SimDuration> queued;
    for (const auto& [index, arrival] : restored->queue) {
      queued.emplace(index, arrival);
    }
    for (std::uint32_t k = 0; k < next_arrival; ++k) {
      data::Dataset chunk = stream.next_chunk();
      const auto it = queued.find(k);
      if (it != queued.end()) {
        queue.push_back(PendingChunk{k, it->second, std::move(chunk)});
      }
    }
  }

  // The deployed classifiers lag the live learners between refreshes, so they
  // are checkpointed (and restored) separately — resuming with a fresh
  // `learner.freeze()` would serve a newer model than the uninterrupted run.
  core::TrainedClassifier deployed_full = restored.has_value()
                                              ? std::move(*restored->deployed_full)
                                              : learner.freeze();
  core::TrainedClassifier deployed_reduced = restored.has_value()
                                                 ? std::move(*restored->deployed_reduced)
                                                 : reduced_learner.freeze();

  ServingEndpoint endpoint(framework, config.faults, config.retry);
  endpoint.deploy(ServeTier::kFull, deployed_full, representative);
  endpoint.deploy(ServeTier::kReduced, deployed_reduced, representative);

  DeviceHealthTracker health = restored.has_value() ? std::move(*restored->health)
                                                    : DeviceHealthTracker(config.health);
  if (restored.has_value()) {
    tpu::FaultInjector* injector = endpoint.device().fault_injector();
    if (injector != nullptr) {
      injector->set_rng_state(restored->rng);
    }
  }

  ServeResult result;
  result.warmup_accuracy =
      fresh ? warmup_accuracy_sum / config.warmup_chunks : restored->warmup_accuracy;

  std::uint64_t correct_total = 0;
  std::uint64_t samples_served = 0;
  std::uint32_t served_count = 0;
  SimDuration now;
  if (restored.has_value()) {
    result.predictions = std::move(restored->predictions);
    result.chunks = std::move(restored->chunks);
    result.tiers = restored->tiers;
    result.shed_samples = restored->shed_samples;
    result.expired_samples = restored->expired_samples;
    result.degraded_samples = restored->degraded_samples;
    result.shed_chunks = restored->shed_chunks;
    result.expired_chunks = restored->expired_chunks;
    result.snapshots_written = restored->snapshots_written;
    result.checkpoints_written = restored->checkpoints_written;
    result.attribution_total = restored->attribution_total;
    result.requests_traced = restored->requests_traced;
    correct_total = restored->correct_total;
    samples_served = restored->samples_served;
    served_count = restored->served_count;
    now = restored->now;
  }

  if (!config.snapshot_dir.empty()) {
    std::filesystem::create_directories(config.snapshot_dir);
  }

  // Constructed after the first served chunk when the window span or the SLO
  // target is auto-sized (both derive from simulated chunk timings, so the
  // monitor stays deterministic). Admission events that happen earlier are
  // buffered and replayed in order at construction.
  std::optional<obs::ServingMonitor> monitor;
  std::optional<obs::ModelQualityStats> model_stats;
  std::optional<obs::EnergyAccountant> energy;
  std::vector<AdmissionRecord> pending_admission;
  std::vector<obs::EnergyAccountant::Request> pending_energy;
  if (restored.has_value() && restored->monitor.has_value()) {
    // Resume with the interrupted run's monitor exactly as checkpointed —
    // windows, EWMAs, alarm edge states, event history, quarantine gate —
    // so subsequent alarm lines and snapshots are byte-identical to the
    // uninterrupted run's. The lazy auto-sizing path below is skipped
    // because the monitor already exists.
    monitor.emplace(std::move(*restored->monitor));
  }
  if (restored.has_value() && restored->model_stats.has_value()) {
    model_stats.emplace(std::move(*restored->model_stats));
  }
  if (restored.has_value() && restored->energy.has_value()) {
    energy.emplace(std::move(*restored->energy));
  }

  double log_clock = now.to_seconds();
  LogClockScope log_scope(&log_clock);

  const bool open_loop = config.admission.offered_load > 0.0;
  SimDuration arrival_period;
  if (open_loop) {
    // Offered load is a multiple of the full-tier service rate: load L means
    // chunks arrive L times faster than the fault-free full model serves them.
    arrival_period =
        endpoint.nominal_per_sample(ServeTier::kFull) *
        (static_cast<double>(config.stream.chunk_size) / config.admission.offered_load);
  }

  const auto record_admission = [&](SimDuration at, std::uint64_t offered,
                                    std::uint64_t shed, std::uint64_t expired,
                                    std::uint64_t degraded) {
    if (monitor.has_value()) {
      log_clock = at.to_seconds();
      monitor->record_admission(at, offered, shed, expired, degraded);
    } else {
      pending_admission.push_back({at, offered, shed, expired, degraded});
    }
  };

  const auto sync_quarantine = [&](SimDuration at) {
    const bool quarantined = health.state() == DeviceHealth::kQuarantined;
    if (monitor.has_value()) {
      log_clock = at.to_seconds();
      monitor->set_quarantined(quarantined, at);
    }
    if (model_stats.has_value()) {
      log_clock = at.to_seconds();
      model_stats->set_quarantined(quarantined, at);
    }
    if (energy.has_value()) {
      log_clock = at.to_seconds();
      energy->set_quarantined(quarantined, at);
    }
  };

  /// Monitor snapshot with the model-quality section spliced in: the
  /// `model` object, the flat `model.*` gate entries and the `hdc_model_*`
  /// Prometheus families all ride inside the one hdc-monitor-v1 document.
  const auto take_snapshot = [&](SimDuration at) {
    obs::MonitorSnapshot snap = monitor->snapshot(at);
    if (model_stats.has_value()) {
      const obs::ModelStatsSnapshot ms = model_stats->snapshot(at);
      snap.model_json = ms.to_json();
      snap.model_metrics_json = ms.metrics_json();
      snap.model_prometheus = ms.to_prometheus();
    }
    if (energy.has_value()) {
      const obs::EnergySnapshot es = energy->snapshot(at);
      snap.energy_json = es.to_json();
      snap.energy_metrics_json = es.metrics_json();
      snap.energy_prometheus = es.to_prometheus();
    }
    return snap;
  };

  // ---- per-request causal tracing ----------------------------------------
  // A request is one offered chunk; its id is the offered-chunk index, which
  // is stable across checkpoint/resume. Request traces are observational in
  // exactly the monitor's sense: they read the simulated durations the serve
  // path already computed and never move `now`, so attaching them cannot
  // change predictions, timings, or checkpoint bytes (beyond the two
  // checkpointed attribution accumulators, which are themselves derived).
  obs::ExemplarStore exemplar_store(config.exemplars);
  obs::TraceContext* const trace = framework.trace_context();

  const auto finish_request = [&](obs::RequestTrace&& rt,
                                  std::optional<obs::ExemplarReason> reason) {
    result.attribution_total += rt.attribution;
    ++result.requests_traced;
    // Energy rides the finalized attribution on every outcome path — shed and
    // expired requests burned real (queue-wait) joules too. Buffered until
    // the lazily sized accountant exists, like admission records.
    obs::EnergyAccountant::Request ereq;
    ereq.at = rt.end;
    ereq.attribution = rt.attribution;
    ereq.outcome = rt.outcome;
    ereq.samples = rt.outcome == obs::RequestOutcome::kServed ? rt.samples : 0;
    ereq.degraded = rt.tier != 0;
    ereq.request_id = static_cast<std::int64_t>(rt.request_id);
    if (energy.has_value()) {
      log_clock = rt.end.to_seconds();
      energy->record(ereq);
    } else {
      pending_energy.push_back(ereq);
    }
    if (reason.has_value()) {
      exemplar_store.offer(*reason, rt);
    }
    result.requests.push_back(std::move(rt));
    if (trace != nullptr) {
      trace->end_request();
    }
  };

  const auto build_checkpoint = [&]() {
    ByteWriter w;
    w.write<std::uint32_t>(kServeMagic);
    w.write<std::uint32_t>(kServeVersion);
    write_fingerprint(w, config);
    w.write<std::uint32_t>(next_arrival);
    w.write<double>(now.to_seconds());
    w.write<double>(result.warmup_accuracy);
    w.write<std::uint32_t>(served_count);
    learner.serialize(w);
    reduced_learner.serialize(w);
    w.write_vector(core::serialize_classifier(deployed_full));
    w.write_vector(core::serialize_classifier(deployed_reduced));
    health.serialize(w);
    Rng::State rng{};
    if (const tpu::FaultInjector* injector = endpoint.device().fault_injector()) {
      rng = injector->rng_state();
    }
    for (const std::uint64_t word : rng.s) {
      w.write<std::uint64_t>(word);
    }
    w.write<std::uint8_t>(rng.has_spare_gaussian ? 1 : 0);
    w.write<float>(rng.spare_gaussian);
    w.write<std::uint32_t>(static_cast<std::uint32_t>(queue.size()));
    for (const PendingChunk& item : queue) {
      w.write<std::uint32_t>(item.index);
      w.write<double>(item.arrival.to_seconds());
    }
    w.write_vector(result.predictions);
    w.write<std::uint32_t>(static_cast<std::uint32_t>(result.chunks.size()));
    for (const auto& chunk : result.chunks) {
      write_chunk_stats(w, chunk);
    }
    for (const auto& tier : result.tiers) {
      w.write<std::uint64_t>(tier.samples);
      w.write<std::uint64_t>(tier.errors);
      w.write<double>(tier.service_time.to_seconds());
    }
    w.write<std::uint64_t>(result.shed_samples);
    w.write<std::uint64_t>(result.expired_samples);
    w.write<std::uint64_t>(result.degraded_samples);
    w.write<std::uint32_t>(result.shed_chunks);
    w.write<std::uint32_t>(result.expired_chunks);
    w.write<std::uint64_t>(correct_total);
    w.write<std::uint64_t>(samples_served);
    w.write<std::uint32_t>(result.snapshots_written);
    w.write<std::uint32_t>(result.checkpoints_written + 1);
    for (const SimDuration& stage : result.attribution_total.stages) {
      w.write<double>(stage.to_seconds());
    }
    w.write<std::uint64_t>(result.requests_traced);
    w.write<std::uint8_t>(monitor.has_value() ? 1 : 0);
    if (monitor.has_value()) {
      monitor->serialize(w);
    }
    w.write<std::uint8_t>(model_stats.has_value() ? 1 : 0);
    if (model_stats.has_value()) {
      model_stats->serialize(w);
    }
    w.write<std::uint8_t>(energy.has_value() ? 1 : 0);
    if (energy.has_value()) {
      energy->serialize(w);
    }
    const std::uint32_t checksum = crc32(w.bytes().data(), w.size());
    w.write<std::uint32_t>(checksum);
    return w.take();
  };

  const auto serve_one = [&](PendingChunk&& item) {
    const SimDuration start = std::max(now, item.arrival);
    const SimDuration wait = start - item.arrival;
    const std::size_t n = item.data.num_samples();

    obs::RequestTrace rt;
    rt.begin(item.index, item.arrival);
    rt.samples = n;
    if (!wait.is_zero()) {
      rt.append(obs::Stage::kQueueWait, wait);
    }
    if (trace != nullptr) {
      // Open the causal scope for this request: every span the executor /
      // device / link layers emit below is stamped with this id.
      trace->set_now(item.arrival);
      trace->begin_request(item.index);
      if (!wait.is_zero()) {
        trace->span(obs::Track::kExecutor, "serve.queue_wait", wait,
                    {{"samples", n}});
      }
    }

    // Pick the ladder tier: device health first, then backlog pressure. A
    // quarantined device whose probe interval elapsed flips to probing here.
    const ServeTier tier =
        health.admit_tier(start, queue.size(), config.admission.degrade_backlog);
    sync_quarantine(start);
    if (trace != nullptr) {
      trace->instant_at(obs::Track::kExecutor, "serve.admit_tier", start,
                        {{"tier", tier_name(tier)},
                         {"queue_depth", queue.size()}});
    }

    const SimDuration deadline = config.admission.deadline;
    if (!deadline.is_zero()) {
      // Expire unserved when even the first sample cannot complete within
      // its remaining budget (the deadline is measured from chunk arrival).
      // The check itself is admission bookkeeping and costs no simulated time.
      const SimDuration nominal = endpoint.nominal_per_sample(tier);
      if (wait + nominal > deadline) {
        result.expired_samples += n;
        ++result.expired_chunks;
        record_admission(start, n, 0, n, 0);
        rt.outcome = obs::RequestOutcome::kExpired;
        rt.tier = static_cast<std::uint8_t>(tier);
        rt.finalize(start);
        if (trace != nullptr) {
          trace->instant_at(obs::Track::kExecutor, "serve.expired", start,
                            {{"wait_us", wait.to_seconds() * 1e6},
                             {"deadline_us", deadline.to_seconds() * 1e6}});
        }
        finish_request(std::move(rt), obs::ExemplarReason::kExpired);
        return;
      }
    }
    const SimDuration budget = deadline.is_zero() ? SimDuration() : deadline - wait;

    ServingEndpoint::BatchOutcome outcome =
        endpoint.infer(tier, item.data.features, start, budget, &rt);
    const SimDuration per_sample = outcome.total * (1.0 / static_cast<double>(n));
    SimDuration chunk_end = start + outcome.total;

    if (tier != ServeTier::kHost) {
      // Any retry, fallback sample or circuit trip marks the batch faulty
      // for the health machine; the monitor never feeds back into this.
      const bool faulty = outcome.report.circuit_opened || outcome.report.cpu_samples > 0 ||
                          outcome.report.device_stats.invoke_retries > 0;
      health.on_batch(chunk_end, faulty, outcome.report.circuit_opened);
    }

    if (!monitor.has_value()) {
      obs::MonitorConfig mc = config.monitor;
      mc.num_classes = spec.classes;
      if (mc.window.span.is_zero()) {
        mc.window.span = outcome.total * 4.0;
      }
      if (mc.window.buckets == 0) {
        mc.window.buckets = 16;
      }
      if (mc.slo_latency.is_zero()) {
        mc.slo_latency = per_sample * 1.5;
      }
      monitor.emplace(mc);
      for (const AdmissionRecord& rec : pending_admission) {
        monitor->record_admission(rec.at, rec.offered, rec.shed, rec.expired, rec.degraded);
      }
      pending_admission.clear();

      // The model-quality monitor shares the serving monitor's lifecycle and
      // (resolved) window, and sees the classifier actually deployed on the
      // endpoint first.
      obs::ModelStatsConfig msc = config.model_stats;
      msc.num_classes = spec.classes;
      msc.dim = config.learner.dim;
      msc.window = mc.window;
      model_stats.emplace(msc);
      model_stats->observe_model(deployed_full.model.class_hypervectors());

      // The energy accountant shares the resolved monitor window; requests
      // finished before this point (shed/expired ahead of the first served
      // chunk) are replayed in order.
      obs::EnergyConfig ec = config.energy;
      ec.window = mc.window;
      energy.emplace(ec);
      for (const obs::EnergyAccountant::Request& req : pending_energy) {
        energy->record(req);
      }
      pending_energy.clear();
    }
    sync_quarantine(chunk_end);

    // Per-sample records: completion times spread uniformly across the
    // chunk's simulated duration, latency includes the admission-queue wait,
    // margins from the host scoring model.
    std::uint64_t host_errors = 0;
    std::uint64_t chunk_correct = 0;
    // Encode the request once per learner, as one batch: the decision, the
    // per-dimension discriminability window and the online update all read
    // rows of these matrices. Encoders never adapt, so a row equals what
    // encoding the sample on its own would give. The block scope frees them
    // before a model refresh allocates.
    {
      const tensor::MatrixF encoded = learner.encoder().encode_batch(item.data.features);
      const tensor::MatrixF reduced_encoded =
          config.online_updates ? reduced_learner.encoder().encode_batch(item.data.features)
                                : tensor::MatrixF();
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint32_t predicted = outcome.predictions[j];
        const std::uint32_t label = item.data.labels[j];
        const core::OnlineLearner::Decision decision = learner.decide_encoded(encoded.row(j));

        obs::ServingMonitor::Sample sample;
        sample.at = start + per_sample * static_cast<double>(j + 1);
        sample.latency = wait + per_sample;
        sample.request_id = static_cast<std::int64_t>(item.index);
        sample.predicted = predicted;
        sample.correct = predicted == label;
        sample.margin = decision.margin();
        log_clock = sample.at.to_seconds();
        monitor->record(sample);

        // Served samples only — shed/expired chunks never reach this loop, so
        // confusion row sums stay exactly equal to per-class served counts.
        obs::ModelQualityStats::Sample msample;
        msample.at = sample.at;
        msample.predicted = predicted;
        msample.label = label;
        msample.top1 = static_cast<double>(decision.top1);
        msample.request_id = static_cast<std::int64_t>(item.index);
        model_stats->record(msample);
        model_stats->record_dimensions(sample.at, label, encoded.row(j));

        if (config.online_updates) {
          if (learner.learn_encoded(encoded.row(j), label) != label) {
            ++host_errors;
          }
          // The reduced-tier learner adapts on the same pass; its update cost
          // piggybacks on the full learner's charged update below (a documented
          // simplification that keeps fault-free timings identical to serving
          // without the ladder).
          reduced_learner.learn_encoded(reduced_encoded.row(j), label);
        }
        result.predictions.push_back(predicted);
        chunk_correct += predicted == label ? 1 : 0;
      }
    }

    log_clock = chunk_end.to_seconds();
    monitor->record_transport(chunk_end, n, outcome.report.cpu_samples,
                              outcome.report.device_stats.invoke_retries);
    record_admission(chunk_end, n, 0, 0, tier != ServeTier::kFull ? n : 0);

    // Host-side class-hypervector updates are real simulated work; price
    // them with the same cost machinery the trainers use. Monitoring itself
    // is never charged — attaching it cannot move the clock.
    SimDuration update_cost;
    if (config.online_updates) {
      const double update_fraction =
          n == 0 ? 0.0 : static_cast<double>(host_errors) / static_cast<double>(n);
      update_cost = framework.cost_model().update_phase(
          n, config.learner.dim, spec.classes, 1, update_fraction,
          framework.config().host);
      chunk_end += update_cost;
    }
    now = chunk_end;

    if (!update_cost.is_zero()) {
      rt.append(obs::Stage::kUpdate, update_cost);
      if (trace != nullptr) {
        trace->span_at(obs::Track::kHost, "serve.online_update", now - update_cost,
                       update_cost, {{"samples", n}});
      }
    }
    rt.outcome = obs::RequestOutcome::kServed;
    rt.tier = static_cast<std::uint8_t>(tier);
    rt.faulty = outcome.report.circuit_opened || outcome.report.cpu_samples > 0 ||
                outcome.report.device_stats.invoke_retries > 0;
    rt.finalize(now);
    monitor->record_attribution(now, rt.attribution);

    // Tail-based retention: keep the full chain only when this request left
    // the full tier (or spilled samples to the host) or its per-sample
    // latency reaches the windowed p99 at its own completion time. The
    // slowest request in any window always qualifies, so alarm exemplar ids
    // resolve to retained chains (barring later eviction under the bound).
    std::optional<obs::ExemplarReason> reason;
    if (tier != ServeTier::kFull || outcome.report.cpu_samples > 0) {
      reason = obs::ExemplarReason::kTierFallback;
    } else if (wait + per_sample >= monitor->latency_quantile(now, 0.99)) {
      reason = obs::ExemplarReason::kTailLatency;
    }
    finish_request(std::move(rt), reason);

    auto& tier_stats = result.tiers[static_cast<std::size_t>(tier)];
    tier_stats.samples += n;
    tier_stats.errors += n - chunk_correct;
    tier_stats.service_time += outcome.total;
    if (tier != ServeTier::kFull) {
      result.degraded_samples += n;
    }
    correct_total += chunk_correct;
    samples_served += n;
    ++served_count;

    if (config.online_updates && config.model_refresh_chunks > 0 &&
        served_count % config.model_refresh_chunks == 0) {
      // Redeploy both adapted learners. Model swaps ride the uncharged
      // one-time-upload convention, so a refresh moves no simulated time.
      deployed_full = learner.freeze();
      deployed_reduced = reduced_learner.freeze();
      // Boundary validation: a refresh (either ladder tier) must never change
      // the class count mid-stream — the monitors' per-class state would
      // silently mis-index otherwise. observe_model re-checks shape itself.
      HDC_CHECK(deployed_full.num_classes() == spec.classes,
                "model refresh changed the full-tier class count mid-stream");
      HDC_CHECK(deployed_reduced.num_classes() == spec.classes,
                "model refresh changed the reduced-tier class count mid-stream");
      model_stats->observe_model(deployed_full.model.class_hypervectors());
      endpoint.deploy(ServeTier::kFull, deployed_full, representative);
      endpoint.deploy(ServeTier::kReduced, deployed_reduced, representative);
    }

    ServeResult::ChunkStats stats;
    stats.index = item.index;
    stats.t_end = now;
    stats.samples = n;
    stats.chunk_accuracy =
        n == 0 ? 0.0 : static_cast<double>(chunk_correct) / static_cast<double>(n);
    stats.windowed_accuracy = monitor->windowed_accuracy(now);
    stats.drift_score = monitor->drift_score();
    stats.fallback_samples = outcome.report.cpu_samples;
    stats.circuit_opened = outcome.report.circuit_opened;
    stats.tier = tier;
    stats.queue_wait = wait;
    stats.health = health.state();
    result.chunks.push_back(stats);

    const bool interval_due = config.snapshot_every_chunks > 0 &&
                              served_count % config.snapshot_every_chunks == 0;
    if (interval_due) {
      const obs::MonitorSnapshot snap = take_snapshot(now);
      if (!config.snapshot_dir.empty()) {
        ++result.snapshots_written;
        write_text_file(snapshot_path(config.snapshot_dir, result.snapshots_written),
                        snap.to_json());
      }
      if (!config.prometheus_path.empty()) {
        write_text_file(config.prometheus_path, snap.to_prometheus());
      }
    }

    if (!config.checkpoint_path.empty() && config.checkpoint_every_chunks > 0 &&
        served_count % config.checkpoint_every_chunks == 0) {
      // Latest-wins at the configured path (crash recovery resumes from it)
      // plus a numbered history file, so any intermediate cut stays
      // addressable for audits and resume tests.
      const std::vector<std::uint8_t> bytes = build_checkpoint();
      write_file(config.checkpoint_path, bytes);
      char suffix[16];
      std::snprintf(suffix, sizeof(suffix), ".%04u", served_count);
      write_file(config.checkpoint_path + suffix, bytes);
      ++result.checkpoints_written;
    }
  };

  if (!open_loop) {
    // Closed loop: each chunk arrives exactly when the previous one finished
    // — no queue, no shedding, the legacy serving schedule.
    while (next_arrival < config.serve_chunks) {
      data::Dataset chunk = stream.next_chunk();
      const std::uint32_t index = next_arrival++;
      serve_one(PendingChunk{index, now, std::move(chunk)});
    }
  } else {
    // Open loop: arrivals on a fixed schedule, a bounded queue in front of
    // the endpoint, deterministic shedding when it overflows. Arrivals due
    // at or before the next service start are admitted first, so queue
    // occupancy (and shedding) is an exact function of simulated time.
    while (next_arrival < config.serve_chunks || !queue.empty()) {
      bool admit = false;
      if (next_arrival < config.serve_chunks) {
        if (queue.empty()) {
          admit = true;
        } else {
          const SimDuration next_at =
              arrival_period * static_cast<double>(next_arrival);
          const SimDuration service_start = std::max(now, queue.front().arrival);
          admit = next_at <= service_start;
        }
      }
      if (admit) {
        const SimDuration arrival = arrival_period * static_cast<double>(next_arrival);
        data::Dataset chunk = stream.next_chunk();
        const std::uint32_t index = next_arrival++;
        if (queue.size() >= config.admission.queue_capacity) {
          if (config.admission.policy == ShedPolicy::kRejectNewest) {
            result.shed_samples += chunk.num_samples();
            ++result.shed_chunks;
            record_admission(arrival, chunk.num_samples(), chunk.num_samples(), 0, 0);
            obs::RequestTrace rt;
            rt.begin(index, arrival);
            rt.samples = chunk.num_samples();
            rt.outcome = obs::RequestOutcome::kShed;
            rt.finalize(arrival);  // refused on arrival: zero latency
            if (trace != nullptr) {
              trace->begin_request(index);
              trace->instant_at(obs::Track::kExecutor, "serve.shed", arrival,
                                {{"policy", "reject_newest"},
                                 {"queue_depth", queue.size()}});
            }
            finish_request(std::move(rt), obs::ExemplarReason::kShed);
            continue;  // the arriving chunk is refused
          }
          // kDropOldest: the stalest queued chunk makes room.
          PendingChunk dropped = std::move(queue.front());
          queue.pop_front();
          result.shed_samples += dropped.data.num_samples();
          ++result.shed_chunks;
          record_admission(arrival, dropped.data.num_samples(),
                           dropped.data.num_samples(), 0, 0);
          obs::RequestTrace rt;
          rt.begin(dropped.index, dropped.arrival);
          rt.samples = dropped.data.num_samples();
          rt.outcome = obs::RequestOutcome::kShed;
          if (arrival > dropped.arrival) {
            // Time the victim sat queued before being dropped.
            rt.append(obs::Stage::kQueueWait, arrival - dropped.arrival);
          }
          rt.finalize(arrival);
          if (trace != nullptr) {
            trace->begin_request(dropped.index);
            trace->instant_at(obs::Track::kExecutor, "serve.shed", arrival,
                              {{"policy", "drop_oldest"},
                               {"queue_depth", queue.size()}});
          }
          finish_request(std::move(rt), obs::ExemplarReason::kShed);
        }
        queue.push_back(PendingChunk{index, arrival, std::move(chunk)});
      } else {
        PendingChunk item = std::move(queue.front());
        queue.pop_front();
        serve_one(std::move(item));
      }
    }
  }

  if (!monitor.has_value()) {
    // Degenerate session: every offered chunk was shed or expired before a
    // single one was served, so the auto-sizing never saw a chunk timing.
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
    monitor.emplace(mc);
    for (const AdmissionRecord& rec : pending_admission) {
      monitor->record_admission(rec.at, rec.offered, rec.shed, rec.expired, rec.degraded);
    }
    pending_admission.clear();

    obs::ModelStatsConfig msc = config.model_stats;
    msc.num_classes = spec.classes;
    msc.dim = config.learner.dim;
    msc.window = mc.window;
    model_stats.emplace(msc);
    model_stats->observe_model(deployed_full.model.class_hypervectors());

    obs::EnergyConfig ec = config.energy;
    ec.window = mc.window;
    energy.emplace(ec);
    for (const obs::EnergyAccountant::Request& req : pending_energy) {
      energy->record(req);
    }
    pending_energy.clear();
  }

  result.final_snapshot = take_snapshot(now);
  result.events = monitor->events();
  if (model_stats.has_value()) {
    result.final_model = model_stats->snapshot(now);
    result.model_events = model_stats->events();
  }
  if (energy.has_value()) {
    result.final_energy = energy->snapshot(now);
    result.energy_events = energy->events();
  }
  result.t_end = now;
  // Lifetime totals come from the serve accumulators; the monitor (restored
  // warm from the checkpoint since HDSV v3) agrees, but the accumulators are
  // the source of truth for results.
  result.samples_served = samples_served;
  result.lifetime_accuracy =
      samples_served == 0
          ? 0.0
          : static_cast<double>(correct_total) / static_cast<double>(samples_served);
  result.final_health = health.state();
  result.health_transitions = health.transitions();
  result.quarantines = health.quarantines();
  result.probes = health.probes_attempted();

  if (!config.snapshot_dir.empty()) {
    ++result.snapshots_written;
    write_text_file(
        (std::filesystem::path(config.snapshot_dir) / "monitor_snapshot_final.json")
            .string(),
        result.final_snapshot.to_json());
  }
  if (!config.prometheus_path.empty()) {
    write_text_file(config.prometheus_path, result.final_snapshot.to_prometheus());
  }
  if (!config.checkpoint_path.empty()) {
    write_file(config.checkpoint_path, build_checkpoint());
    ++result.checkpoints_written;
  }

  result.exemplar_records.assign(exemplar_store.exemplars().begin(),
                                 exemplar_store.exemplars().end());
  result.exemplar_bytes = exemplar_store.approx_bytes();
  result.exemplar_bytes_peak = exemplar_store.peak_bytes();
  result.exemplars_evicted = exemplar_store.evicted();
  if (trace != nullptr) {
    result.trace_events = trace->size();
    result.trace_dropped = trace->dropped();
  }
  std::string exemplar_path = config.exemplar_path;
  if (exemplar_path.empty() && !config.snapshot_dir.empty()) {
    exemplar_path =
        (std::filesystem::path(config.snapshot_dir) / "exemplars.jsonl").string();
  }
  if (!exemplar_path.empty()) {
    write_text_file(exemplar_path, exemplar_store.to_jsonl());
  }

  log_clock = now.to_seconds();
  HDC_LOG_INFO << "serve: " << result.samples_served << " samples over "
               << result.t_end.to_string() << " simulated, lifetime accuracy "
               << result.lifetime_accuracy << ", final device health "
               << health_name(result.final_health) << ", "
               << result.requests_traced << " requests traced, "
               << result.exemplar_records.size() << " exemplars ("
               << result.exemplar_bytes << " bytes, peak "
               << result.exemplar_bytes_peak << ")"
               << (result.trace_dropped > 0
                       ? ", trace events dropped: " + std::to_string(result.trace_dropped)
                       : std::string());
  return result;
}

std::string checkpoint_model_stats_json(const std::string& path) {
  RestoredState state = read_checkpoint(path, nullptr);
  HDC_CHECK(state.model_stats.has_value(),
            "checkpoint '" + path +
                "' carries no model-quality state (the interrupted run never "
                "served a chunk)");
  const obs::ModelStatsSnapshot snap = state.model_stats->snapshot(state.now);
  std::string out = "{\"schema\":\"hdc-modelstats-v1\",\"t_s\":";
  obs::detail::append_json_number(out, state.now.to_seconds());
  out += ",\"lifetime\":{\"samples\":";
  out += std::to_string(state.samples_served);
  out += "},\"model\":";
  out += snap.to_json();
  out += "}";
  return out;
}

std::string checkpoint_energy_json(const std::string& path) {
  RestoredState state = read_checkpoint(path, nullptr);
  HDC_CHECK(state.energy.has_value(),
            "checkpoint '" + path +
                "' carries no energy state (the interrupted run never served "
                "a chunk)");
  const obs::EnergySnapshot snap = state.energy->snapshot(state.now);
  std::string out = "{\"schema\":\"hdc-energystats-v1\",\"t_s\":";
  obs::detail::append_json_number(out, state.now.to_seconds());
  out += ",\"lifetime\":{\"samples\":";
  out += std::to_string(state.samples_served);
  out += "},\"energy\":";
  out += snap.to_json();
  out += "}";
  return out;
}

}  // namespace hdc::runtime

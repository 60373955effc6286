#include "runtime/serve.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>

#include "common/byte_io.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/serialize.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "runtime/shard.hpp"

namespace hdc::runtime {

namespace {

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

/// The live session's side of `checkpoint_fields`: ServeCheckpoint's
/// members, by reference.
struct SavedState {
  const std::uint32_t& next_arrival;
  const SimDuration& now;
  const core::OnlineLearner& full;
  const core::OnlineLearner& reduced;
  const core::TrainedClassifier& deployed_full;
  const core::TrainedClassifier& deployed_reduced;
  const DeviceHealthTracker& health;
  Rng::State rng;
  const std::deque<QueuedRequest>& queue;
  const ServeResult& result;
  const ShardCounters& counters;
  const std::optional<obs::ServingMonitor>& monitor;
  const std::optional<obs::ModelQualityStats>& model_stats;
  const std::optional<obs::EnergyAccountant>& energy;
};

/// The configuration fields a checkpoint is bound to, in wire order: each is
/// written when the checkpoint is saved and matched when it is resumed.
template <typename Field>
void fingerprint_fields(const ServeConfig& config, Field&& field) {
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

void write_fingerprint(ByteWriter& w, const ServeConfig& config) {
  fingerprint_fields(config, [&w](auto value, const char*) { w.write(value); });
}

/// Traverses the fingerprint. Strict mode (config != nullptr) matches every
/// field against the resuming config; relaxed mode (nullptr, used by the
/// inspection readers) reads and discards — every field is a fixed-size
/// scalar, so the traversal needs no configuration.
void read_fingerprint(ByteReader& r, const ServeConfig* maybe_config) {
  const ServeConfig defaults;
  const auto field = [&](auto expected, const char* name) {
    const auto got = r.read<decltype(expected)>();
    if (maybe_config != nullptr) {
      HDC_CHECK(got == expected,
                std::string("checkpoint does not match this serving config: '") + name +
                    "' was " + std::to_string(got) + " when the checkpoint was written "
                    "but is " + std::to_string(expected) + " now; resume with the "
                    "original stream/learner/admission configuration");
    }
  };
  fingerprint_fields(maybe_config != nullptr ? *maybe_config : defaults, field);
}

/// Wire size of one `ChunkStats` record.
constexpr std::size_t kChunkStatsBytes = 4 + 6 * 8 + 2 + 8 + 1;

/// The HDSV payload after the fingerprint, in wire order: a SavedState when
/// saving, a ServeCheckpoint when loading. A resuming `config` also bounds the
/// queue by its capacity and the chunk records by `serve_chunks`.
template <typename State, typename Io>
void checkpoint_fields(State& s, Io& io, const ServeConfig* config) {
  io.pod(s.next_arrival);
  io.duration(s.now);
  io.pod(s.result.warmup_accuracy);
  io.pod(s.counters.served_requests, as<std::uint32_t>);
  io.object(s.full);
  io.object(s.reduced);
  io.blob(s.deployed_full, core::serialize_classifier, core::deserialize_classifier);
  io.blob(s.deployed_reduced, core::serialize_classifier, core::deserialize_classifier);
  io.object(s.health);
  for (auto& word : s.rng.s) {
    io.pod(word);
  }
  io.flag(s.rng.has_spare_gaussian);
  io.pod(s.rng.spare_gaussian);
  io.seq(s.queue, config != nullptr ? config->admission.queue_capacity : kAnyCount,
         sizeof(std::uint32_t) + sizeof(double), [&](auto& item) {
           io.pod(item.id, as<std::uint32_t>);
           io.duration(item.arrival);
         });
  io.vec(s.result.predictions);
  io.seq(s.result.chunks, config != nullptr ? config->serve_chunks : kAnyCount,
         kChunkStatsBytes, [&](auto& c) {
           io.pod(c.index);
           io.duration(c.t_end);
           io.pod(c.samples);
           io.pod(c.chunk_accuracy);
           io.pod(c.windowed_accuracy);
           io.pod(c.drift_score);
           io.pod(c.fallback_samples);
           io.flag(c.circuit_opened);
           io.enumeration(c.tier, ServeTier::kHost);
           io.duration(c.queue_wait);
           io.enumeration(c.health, DeviceHealth::kProbing);
         });
  for (auto& tier : s.result.tiers) {
    io.pod(tier.samples);
    io.pod(tier.errors);
    io.duration(tier.service_time);
  }
  io.pod(s.counters.shed_samples);
  io.pod(s.counters.expired_samples);
  io.pod(s.counters.degraded_samples);
  io.pod(s.counters.shed_requests, as<std::uint32_t>);
  io.pod(s.counters.expired_requests, as<std::uint32_t>);
  io.pod(s.counters.correct_samples);
  io.pod(s.counters.served_samples);
  io.pod(s.result.snapshots_written);
  io.pod(s.result.checkpoints_written);
  for (auto& stage : s.result.attribution_total.stages) {
    io.duration(stage);
  }
  io.pod(s.result.requests_traced);
  io.maybe(s.monitor);
  io.maybe(s.model_stats);
  io.maybe(s.energy);
}

/// Parses an HDSV checkpoint. Strict mode (config != nullptr, the resume
/// path) additionally matches the fingerprint and bounds queue/chunk counts
/// against the configuration; relaxed mode (nullptr) only verifies the
/// structural invariants (magic, version, CRC, exact payload traversal) —
/// enough for inspection tools that have no ServeConfig in hand.
ServeCheckpoint read_checkpoint(const std::string& path, const ServeConfig* config) {
  ServeCheckpoint state(config != nullptr ? config->health : HealthConfig{});
  open_sealed(read_file(path), kServeMagic, kServeVersion, "serve checkpoint '" + path + "'",
              [&](ByteReader& r) {
                read_fingerprint(r, config);
                checkpoint_fields(state, r, config);
              });
  for (std::size_t i = 0; i < state.queue.size(); ++i) {
    HDC_CHECK(state.queue[i].id < state.next_arrival &&
                  (i == 0 || state.queue[i].id > state.queue[i - 1].id),
              "serve checkpoint queue index out of range or order");
  }
  HDC_CHECK(state.monitor.has_value() == state.model_stats.has_value() &&
                state.monitor.has_value() == state.energy.has_value(),
            "serve checkpoint carries only part of its telemetry state");
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
  return reduced_dim != 0 ? reduced_dim : std::min(std::max(learner.dim / 8, 64U), learner.dim);
}

void ServeConfig::validate() const {
  stream.validate();
  HDC_CHECK(warmup_chunks >= 1,
            "serving needs at least one warmup chunk (it doubles as the "
            "quantization-calibration set)");
  HDC_CHECK(serve_chunks >= 1, "nothing to serve: serve_chunks must be positive");
  HDC_CHECK(learner.dim > 0, "learner dimension must be positive");
  HDC_CHECK(reduced_dim <= learner.dim, "the reduced tier cannot be wider than the full tier");
  faults.validate();
  retry.validate();
  admission.validate();
  health.validate();
  fleet.validate();
  HDC_CHECK(checkpoint_every_chunks == 0 || !checkpoint_path.empty(),
            "a checkpoint interval needs a checkpoint path to write to");
  HDC_CHECK(snapshot_every_chunks == 0 || !snapshot_dir.empty() || !prometheus_path.empty(),
            "a snapshot interval needs a snapshot directory or a Prometheus path to write to");
  // The monitor config is completed (num_classes, auto window/SLO) at serve
  // time and validated by the ServingMonitor constructor.
}

ServeResult serve(const CoDesignFramework& framework, const ServeConfig& config) {
  config.validate();
  const data::SyntheticSpec& spec = config.stream.spec;

  std::optional<ServeCheckpoint> restored;
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

  std::uint32_t next_arrival = 0;
  if (restored.has_value()) {
    learner = std::move(*restored->full);
    reduced_learner = std::move(*restored->reduced);
    next_arrival = restored->next_arrival;
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

  // The session's monitor, model-quality stats and energy accountant are
  // sized after the first served chunk (window span and SLO target derive
  // from its simulated timings, so they stay deterministic). A resumed
  // session adopts the interrupted run's telemetry exactly as checkpointed —
  // windows, EWMAs, alarm edge states, event history, quarantine gate — so
  // subsequent alarm lines and snapshots are byte-identical to the
  // uninterrupted run's.
  ServingSession session(config, config.learner.dim, SimDuration());
  Shard shard(framework, config.faults, config, session, nullptr,
              fresh ? DeviceHealthTracker(config.health) : std::move(restored->health));
  ServingEndpoint& endpoint = shard.endpoint;
  ShardEngine& engine = shard.engine;
  // The device's free time is the single-device loop's clock.
  SimDuration& now = shard.free_at;
  endpoint.deploy(ServeTier::kFull, deployed_full, representative);
  endpoint.deploy(ServeTier::kReduced, deployed_reduced, representative);

  ServeResult result = fresh ? ServeResult() : std::move(restored->result);
  if (fresh) {
    result.warmup_accuracy = warmup_accuracy_sum / config.warmup_chunks;
  }

  if (!config.snapshot_dir.empty()) {
    std::filesystem::create_directories(config.snapshot_dir);
  }

  if (restored.has_value()) {
    // Log records stamp the resumed clock from here on; the deploys above
    // log at 0, as before any serving.
    now = restored->now;
    session.clock.set(now);
    tpu::FaultInjector* injector = endpoint.device().fault_injector();
    if (injector != nullptr) {
      injector->set_rng_state(restored->rng);
    }
    engine.counters = restored->counters;
    session.attribution_total = result.attribution_total;
    session.requests_traced = result.requests_traced;
    if (restored->monitor.has_value()) {
      engine.monitor.restore(std::move(*restored->monitor));
      session.model.emplace(std::move(*restored->model_stats));
      session.energy.emplace(std::move(*restored->energy));
    }
    // Replay the offered chunks the interrupted session already generated:
    // the stream is deterministic, so the queued chunks' data is re-derived
    // by index (shed/served chunks are consumed and discarded).
    auto queued = restored->queue.begin();
    for (std::uint32_t k = 0; k < next_arrival; ++k) {
      data::Dataset chunk = stream.next_chunk();
      if (queued != restored->queue.end() && queued->id == k) {
        engine.admit(QueuedRequest{k, 0, queued->arrival, std::move(chunk)});
        ++queued;
      }
    }
  }

  // Quarantine gates every telemetry object of the session (the three are
  // sized together, so one presence check covers them).
  const auto sync_quarantine = [&](SimDuration at) {
    if (engine.monitor.ready()) {
      const bool quarantined = engine.health.state() == DeviceHealth::kQuarantined;
      session.clock.set(at);
      engine.monitor->set_quarantined(quarantined, at);
      session.model->set_quarantined(quarantined, at);
      session.energy->set_quarantined(quarantined, at);
    }
  };

  /// Monitor snapshot with the model-quality and energy sections spliced in:
  /// they all ride inside the one hdc-monitor-v1 document.
  const auto take_snapshot = [&](SimDuration at) {
    obs::MonitorSnapshot snap = engine.monitor->snapshot(at);
    const obs::ModelStatsSnapshot ms = session.model->snapshot(at);
    const obs::EnergySnapshot es = session.energy->snapshot(at);
    splice_sections(snap, ms, ms.to_json(), es, es.to_json());
    return snap;
  };

  // ---- per-request causal tracing ----------------------------------------
  // A request is one offered chunk; its id is the offered-chunk index, which
  // is stable across checkpoint/resume. Request traces are observational in
  // exactly the monitor's sense: they read the simulated durations the serve
  // path already computed and never move `now`, so attaching them cannot
  // change predictions, timings, or checkpoint bytes (beyond the two
  // checkpointed attribution accumulators, which are themselves derived).
  obs::TraceContext* const trace = framework.trace_context();
  const auto finish = [&](obs::RequestTrace&& rt, std::optional<obs::ExemplarReason> reason) {
    session.finish(std::move(rt), reason);
    if (trace != nullptr) {
      trace->end_request();
    }
  };

  const auto build_checkpoint = [&]() {
    // The result carries the session's attribution accumulators, and the
    // checkpoint counts itself as written.
    result.attribution_total = session.attribution_total;
    result.requests_traced = session.requests_traced;
    ++result.checkpoints_written;
    const tpu::FaultInjector* injector = endpoint.device().fault_injector();
    const SavedState saved{next_arrival,
                           now,
                           learner,
                           reduced_learner,
                           deployed_full,
                           deployed_reduced,
                           engine.health,
                           injector != nullptr ? injector->rng_state() : Rng::State{},
                           engine.queue,
                           result,
                           engine.counters,
                           engine.monitor.state(),
                           session.model,
                           session.energy};
    return seal(kServeMagic, kServeVersion, [&](ByteWriter& w) {
      write_fingerprint(w, config);
      checkpoint_fields(saved, w, nullptr);
    });
  };

  // ---- one request: admit tier, expire or serve, learn, account -----------
  const auto dispatch = [&](std::size_t, SimDuration start) {
    const QueuedRequest item = engine.pop();
    const SimDuration wait = start - item.arrival;
    const std::size_t n = item.data.num_samples();

    obs::RequestTrace rt = begin_trace(item, now, start);
    if (trace != nullptr) {
      // Open the causal scope for this request: every span the executor /
      // device / link layers emit below is stamped with this id.
      trace->set_now(item.arrival);
      trace->begin_request(item.id);
      if (!wait.is_zero()) {
        trace->span(obs::Track::kExecutor, "serve.queue_wait", wait,
                    {{"samples", n}});
      }
    }

    const ServeTier tier = engine.admit_tier(start);
    sync_quarantine(start);
    if (trace != nullptr) {
      trace->instant_at(obs::Track::kExecutor, "serve.admit_tier", start,
                        {{"tier", tier_name(tier)},
                         {"queue_depth", engine.queue.size()}});
    }

    // The deadline check itself is admission bookkeeping and costs no
    // simulated time.
    const SimDuration deadline = config.admission.deadline;
    const ServingEndpoint::Model& model = endpoint.model(tier);
    const SimDuration nominal =
        deadline.is_zero() ? SimDuration() : endpoint.nominal_per_sample(model, tier);
    if (engine.expires(wait, nominal)) {
      engine.expire(rt, start, tier);
      if (trace != nullptr) {
        trace->instant_at(obs::Track::kExecutor, "serve.expired", start,
                          {{"wait_us", wait.to_seconds() * 1e6},
                           {"deadline_us", deadline.to_seconds() * 1e6}});
      }
      finish(std::move(rt), obs::ExemplarReason::kExpired);
      return;
    }

    // The tier switch is uncharged (the fleet's tenant swaps are not), and
    // one batch is one request here, so its chain is kept per sample and
    // attempt (the fleet's is per batch).
    endpoint.activate(tier);
    ServingEndpoint::BatchOutcome outcome =
        endpoint.infer(model, tier, tpu::InvokeOptions{.interactive = true},
                       item.data.features, start, engine.budget(wait), &rt);
    const SimDuration per_sample = outcome.total * (1.0 / static_cast<double>(n));
    SimDuration chunk_end = start + outcome.total;
    engine.feed_health(tier, chunk_end, outcome.report);
    if (engine.start_telemetry(outcome.total, n)) {
      // The model-quality stats see the classifier deployed on the endpoint.
      session.model->observe_model(deployed_full.model.class_hypervectors());
    }
    sync_quarantine(chunk_end);

    // Per-sample records: completion times spread uniformly across the
    // chunk's simulated duration, latency includes the admission-queue wait,
    // margins from the class scores of the tier that served.
    std::uint64_t host_errors = 0;
    std::uint64_t chunk_correct = 0;
    // Encode the request once per learner, as one batch: the per-dimension
    // discriminability window and the online update read rows of these
    // matrices. Encoders never adapt, so a row equals what encoding the
    // sample on its own would give. The block scope frees them before a
    // model refresh allocates.
    {
      const tensor::MatrixF encoded = learner.encoder().encode_batch(item.data.features);
      const tensor::MatrixF reduced_encoded =
          config.online_updates ? reduced_learner.encoder().encode_batch(item.data.features)
                                : tensor::MatrixF();
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint32_t predicted = outcome.predictions[j];
        const std::uint32_t label = item.data.labels[j];
        const SimDuration at = start + per_sample * static_cast<double>(j + 1);
        engine.record_sample(at, wait + per_sample, item.id, predicted, label,
                             outcome.scores.row(j), model.hidden_dim());
        session.model->record_dimensions(at, label, encoded.row(j));

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
    engine.record_batch(chunk_end, n, tier, outcome.report);

    // Host-side class-hypervector updates are real simulated work; price
    // them with the same cost machinery the trainers use. Monitoring itself
    // is never charged — attaching it cannot move the clock.
    SimDuration update_cost;
    if (config.online_updates) {
      update_cost = framework.cost_model().update_phase(
          n, config.learner.dim, spec.classes, 1, ratio(host_errors, n), framework.config().host);
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
    const std::optional<obs::ExemplarReason> reason =
        engine.finish_served(rt, now, tier, outcome.report, wait + per_sample);
    session.clock.set(now);
    finish(std::move(rt), reason);

    auto& tier_stats = result.tiers[static_cast<std::size_t>(tier)];
    tier_stats.samples += n;
    tier_stats.errors += n - chunk_correct;
    tier_stats.service_time += outcome.total;
    const std::uint64_t served_count = engine.counters.served_requests;

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
      session.model->observe_model(deployed_full.model.class_hypervectors());
      endpoint.deploy(ServeTier::kFull, deployed_full, representative);
      endpoint.deploy(ServeTier::kReduced, deployed_reduced, representative);
    }

    ServeResult::ChunkStats stats;
    stats.index = static_cast<std::uint32_t>(item.id);
    stats.t_end = now;
    stats.samples = n;
    stats.chunk_accuracy = ratio(chunk_correct, n);
    stats.windowed_accuracy = engine.monitor->windowed_accuracy(now);
    stats.drift_score = engine.monitor->drift_score();
    stats.fallback_samples = outcome.report.cpu_samples;
    stats.circuit_opened = outcome.report.circuit_opened;
    stats.tier = tier;
    stats.queue_wait = wait;
    stats.health = engine.health.state();
    result.chunks.push_back(stats);

    if (config.snapshot_every_chunks > 0 && served_count % config.snapshot_every_chunks == 0 &&
        export_snapshot(config,
                        numbered("monitor_snapshot_%04u.json", result.snapshots_written + 1),
                        take_snapshot(now))) {
      ++result.snapshots_written;
    }

    if (!config.checkpoint_path.empty() && config.checkpoint_every_chunks > 0 &&
        served_count % config.checkpoint_every_chunks == 0) {
      // Latest-wins at the configured path (crash recovery resumes from it)
      // plus a numbered history file, so any intermediate cut stays
      // addressable for audits and resume tests.
      const std::vector<std::uint8_t> bytes = build_checkpoint();
      write_file(config.checkpoint_path, bytes);
      write_file(config.checkpoint_path +
                     numbered(".%04u", static_cast<unsigned>(served_count)),
                 bytes);
    }
  };

  // ---- one arrival: the next stream chunk, maybe shed ----------------------
  const auto arrive = [&](std::uint64_t id, SimDuration at) {
    next_arrival = static_cast<std::uint32_t>(id) + 1;
    std::optional<ShedRequest> shed =
        engine.admit(QueuedRequest{id, 0, at, stream.next_chunk()});
    if (shed.has_value()) {
      if (trace != nullptr) {
        trace->begin_request(shed->trace.request_id);
        trace->instant_at(obs::Track::kExecutor, "serve.shed", at,
                          {{"policy", config.admission.policy == ShedPolicy::kDropOldest
                                          ? "drop_oldest"
                                          : "reject_newest"},
                           {"queue_depth", shed->queue_depth}});
      }
      finish(std::move(shed->trace), obs::ExemplarReason::kShed);
    }
  };

  // One request per dispatch: a batch is one request here.
  run_event_loop(config, {&shard, 1}, next_arrival, 1,
                 arrival_period(config, endpoint, endpoint.model(ServeTier::kFull)), arrive,
                 dispatch);

  // A degenerate session shed or expired every chunk before serving one, so
  // the telemetry never saw a chunk timing and takes the fallback sizing.
  if (engine.start_telemetry(SimDuration(), 0)) {
    session.model->observe_model(deployed_full.model.class_hypervectors());
  }

  result.final_snapshot = take_snapshot(now);
  result.events = engine.monitor->alarms().events();
  result.final_model = session.model->snapshot(now);
  result.model_events = session.model->alarms().events();
  result.final_energy = session.energy->snapshot(now);
  result.energy_events = session.energy->alarms().events();
  result.t_end = now;
  // Lifetime totals come from the serve accumulators; the monitor (restored
  // warm from the checkpoint since HDSV v3) agrees, but the accumulators are
  // the source of truth for results.
  const ShardCounters& counters = engine.counters;
  result.samples_served = counters.served_samples;
  result.lifetime_accuracy = ratio(counters.correct_samples, counters.served_samples);
  result.shed_samples = counters.shed_samples;
  result.expired_samples = counters.expired_samples;
  result.degraded_samples = counters.degraded_samples;
  result.shed_chunks = static_cast<std::uint32_t>(counters.shed_requests);
  result.expired_chunks = static_cast<std::uint32_t>(counters.expired_requests);
  result.final_health = engine.health.state();
  result.health_transitions = engine.health.transitions();
  result.quarantines = engine.health.quarantines();
  result.probes = engine.health.probes_attempted();

  if (export_snapshot(config, "monitor_snapshot_final.json", result.final_snapshot)) {
    ++result.snapshots_written;
  }
  if (!config.checkpoint_path.empty()) {
    write_file(config.checkpoint_path, build_checkpoint());
  }

  result.requests = std::move(session.requests);
  result.attribution_total = session.attribution_total;
  result.requests_traced = session.requests_traced;
  result.exemplar_records.assign(session.exemplars.exemplars().begin(),
                                 session.exemplars.exemplars().end());
  result.exemplar_bytes = session.exemplars.approx_bytes();
  result.exemplar_bytes_peak = session.exemplars.peak_bytes();
  result.exemplars_evicted = session.exemplars.evicted();
  if (trace != nullptr) {
    result.trace_events = trace->size();
    result.trace_dropped = trace->dropped();
  }
  session.write_exemplars();

  session.clock.set(now);
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

namespace {

/// `{"schema":...,"t_s":...,"lifetime":{"samples":N},"<key>":{...}}`: one
/// telemetry section of an HDSV checkpoint at its simulated time, read
/// without the original `ServeConfig`.
template <typename Section>
std::string checkpoint_section_json(const std::string& path,
                                    std::optional<Section> ServeCheckpoint::*member,
                                    const char* what, const char* schema, const char* key) {
  ServeCheckpoint state = read_checkpoint(path, nullptr);
  std::optional<Section>& section = state.*member;
  HDC_CHECK(section.has_value(),
            "checkpoint '" + path + "' carries no " + what +
                " state (the interrupted run never served a chunk)");
  std::string out = std::string("{\"schema\":\"") + schema + "\",\"t_s\":";
  obs::detail::append_json_number(out, state.now.to_seconds());
  out += ",\"lifetime\":{\"samples\":";
  out += std::to_string(state.counters.served_samples);
  out += "},\"";
  out += key;
  out += "\":";
  out += section->snapshot(state.now).to_json();
  out += "}";
  return out;
}

}  // namespace

ServeCheckpoint verify_checkpoint(const std::string& path, const ServeConfig& config) {
  return read_checkpoint(path, &config);
}

std::string checkpoint_model_stats_json(const std::string& path) {
  return checkpoint_section_json(path, &ServeCheckpoint::model_stats, "model-quality",
                                 "hdc-modelstats-v1", "model");
}

std::string checkpoint_energy_json(const std::string& path) {
  return checkpoint_section_json(path, &ServeCheckpoint::energy, "energy",
                                 "hdc-energystats-v1", "energy");
}

}  // namespace hdc::runtime

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/byte_io.hpp"
#include "common/sim_time.hpp"
#include "obs/request_trace.hpp"

namespace hdc::obs {

/// Shape of a sliding window over simulated time: `span` seconds of history
/// kept as `buckets` equal-width ring slots. Observations older than `span`
/// are evicted exactly at bucket boundaries — an observation placed in
/// bucket b leaves the window the instant the cursor enters bucket
/// b + buckets (i.e. `span` simulated seconds after its bucket opened), so
/// two runs over the same simulated timeline always agree on window content.
struct WindowConfig {
  SimDuration span = SimDuration::seconds(2);
  std::size_t buckets = 16;

  SimDuration bucket_width() const { return span * (1.0 / static_cast<double>(buckets)); }
  void validate() const;
};

namespace detail {

/// Ring of per-bucket payloads indexed by absolute simulated-time bucket.
/// Advancing the cursor resets every slot whose bucket has expired, so the
/// live window content is always "all slots". Timestamps must be
/// non-decreasing (earlier timestamps clamp into the current bucket).
template <typename Slot>
class BucketRing {
 public:
  BucketRing(WindowConfig config, Slot zero)
      : config_(config), zero_(std::move(zero)), slots_(config.buckets, zero_) {
    config_.validate();
  }

  void advance_to(SimDuration t) {
    const auto target = absolute_bucket(t);
    if (target <= cursor_) {
      return;
    }
    const std::uint64_t steps = target - cursor_;
    const std::uint64_t to_clear =
        steps < static_cast<std::uint64_t>(slots_.size())
            ? steps
            : static_cast<std::uint64_t>(slots_.size());
    for (std::uint64_t i = 1; i <= to_clear; ++i) {
      slots_[static_cast<std::size_t>((cursor_ + i) % slots_.size())] = zero_;
    }
    cursor_ = target;
  }

  Slot& at(SimDuration t) {
    advance_to(t);
    return slots_[static_cast<std::size_t>(cursor_ % slots_.size())];
  }

  const std::vector<Slot>& slots() const noexcept { return slots_; }

  // ---- checkpoint access (see `ring_fields`) ----
  std::uint64_t cursor() const noexcept { return cursor_; }
  std::uint64_t& cursor() noexcept { return cursor_; }
  /// Mutable slots: the caller must preserve the slot count (the window
  /// shape is part of the owner's config).
  std::vector<Slot>& slots() noexcept { return slots_; }

 private:
  std::uint64_t absolute_bucket(SimDuration t) const {
    const double w = config_.bucket_width().to_seconds();
    const double idx = t.to_seconds() / w;
    return idx <= 0.0 ? 0 : static_cast<std::uint64_t>(idx);
  }

  WindowConfig config_;
  Slot zero_;
  std::vector<Slot> slots_;
  std::uint64_t cursor_ = 0;
};

/// A ring's checkpoint fields: the cursor, then `slot(s)` for every slot in
/// storage order. The slot count comes from the config, so it is not stored.
template <typename Ring, typename Io, typename SlotFields>
void ring_fields(Ring& ring, Io& io, SlotFields&& slot) {
  io.pod(ring.cursor());
  for (auto& s : ring.slots()) {
    slot(s);
  }
}

}  // namespace detail

/// Windowed event count (and rate over the window span).
class SlidingCounter {
 public:
  explicit SlidingCounter(WindowConfig config) : ring_(config, 0), span_(config.span) {}

  void add(SimDuration t, std::uint64_t n = 1) { ring_.at(t) += n; }
  std::uint64_t sum(SimDuration now);
  /// Events per simulated second over the window span.
  double rate(SimDuration now) { return static_cast<double>(sum(now)) / span_.to_seconds(); }

  /// Checkpoint field list (window contents; the shape is the owner's config).
  template <typename Self, typename Io>
  static void fields(Self& self, Io& io);

 private:
  detail::BucketRing<std::uint64_t> ring_;
  SimDuration span_;
};

/// Windowed mean of a real-valued series (per-slot sum + count).
class SlidingMean {
 public:
  explicit SlidingMean(WindowConfig config) : ring_(config, Slot{}) {}

  void add(SimDuration t, double value) {
    Slot& slot = ring_.at(t);
    slot.sum += value;
    ++slot.count;
  }
  std::uint64_t count(SimDuration now);
  /// Windowed mean; 0 when the window is empty.
  double mean(SimDuration now);

  template <typename Self, typename Io>
  static void fields(Self& self, Io& io);

 private:
  struct Slot {
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  detail::BucketRing<Slot> ring_;
};

/// Windowed latency histogram with log-linear bins (16 per decade from 1 ns
/// to 1000 s plus under/overflow), giving rolling p50/p95/p99 in O(bins)
/// with memory bounded by buckets x bins — never by the sample count.
class SlidingHistogram {
 public:
  static constexpr std::size_t kBinsPerDecade = 16;
  static constexpr int kMinExponent = -9;  ///< 1 ns
  static constexpr int kMaxExponent = 3;   ///< 1000 s
  static constexpr std::size_t kFiniteBins =
      kBinsPerDecade * static_cast<std::size_t>(kMaxExponent - kMinExponent);
  /// finite bins + underflow (< 1 ns) + overflow (>= 1000 s)
  static constexpr std::size_t kBins = kFiniteBins + 2;

  explicit SlidingHistogram(WindowConfig config) : ring_(config, Slot{}) {}

  void observe(SimDuration t, SimDuration value);

  std::uint64_t count(SimDuration now);
  SimDuration mean(SimDuration now);
  /// Bin-interpolated windowed quantile (q in [0, 1]), clamped to the
  /// observed per-window [min, max]. Zero when the window is empty.
  SimDuration quantile(SimDuration now, double q);

  template <typename Self, typename Io>
  static void fields(Self& self, Io& io);

 private:
  struct Slot {
    std::array<std::uint64_t, kBins> bins{};
    std::uint64_t count = 0;
    double sum_s = 0.0;
    double min_s = 0.0;
    double max_s = 0.0;
  };

  static std::size_t bin_index(double seconds);
  static double bin_lower_seconds(std::size_t bin);
  static double bin_upper_seconds(std::size_t bin);

  detail::BucketRing<Slot> ring_;
};

/// Time-decayed exponential moving average: alpha = 1 - exp(-dt / tau), so
/// the smoothing is invariant to how samples are spaced in simulated time.
class Ewma {
 public:
  explicit Ewma(double tau_seconds) : tau_s_(tau_seconds) {}

  void observe(SimDuration t, double value);
  bool empty() const noexcept { return !seeded_; }
  double value() const noexcept { return value_; }

  /// Checkpoint field list (value, last observation time, seeded flag); tau
  /// comes from the owner's config. The one EWMA layout.
  template <typename Self, typename Io>
  static void fields(Self& self, Io& io) {
    io.pod(self.value_);
    io.duration(self.last_);
    io.flag(self.seeded_);
  }

 private:
  double tau_s_;
  double value_ = 0.0;
  SimDuration last_;
  bool seeded_ = false;
};

/// One edge of an alarm's lifecycle: fired (crossed into violation) or
/// cleared (recovered). Exactly one event per crossing, never per sample.
struct AlarmEvent {
  std::string alarm;
  bool fired = false;  ///< true = fire, false = clear
  SimDuration at;
  double value = 0.0;
  double threshold = 0.0;
  /// Request id of the slowest sample in the window when the edge was
  /// produced (-1 when the window was empty). Exemplar capture retains the
  /// full span chain for tail requests, so this id links the alarm line
  /// directly to a concrete causal trace (`hdc trace analyze --req <id>`).
  std::int64_t exemplar_request_id = -1;
  /// Free-form culprit tag ("class=3", "pair=2->5"); empty for alarms whose
  /// signal has no per-entity argmax. Appended to the structured log line as
  /// ` detail=...` and carried through checkpoints.
  std::string detail;

  bool operator==(const AlarmEvent&) const = default;
};

/// Edge-triggered threshold alarm: fires once when the value crosses the
/// threshold, stays silent while the condition holds, and clears once when
/// the value recovers.
class ThresholdAlarm {
 public:
  ThresholdAlarm(std::string name, double threshold)
      : name_(std::move(name)), threshold_(threshold) {}

  /// Returns the edge event if this update crossed the threshold.
  std::optional<AlarmEvent> update(SimDuration t, double value);

  const std::string& name() const noexcept { return name_; }
  double threshold() const noexcept { return threshold_; }
  bool firing() const noexcept { return firing_; }
  double last_value() const noexcept { return last_value_; }
  std::uint64_t fired_total() const noexcept { return fired_total_; }

  /// Checkpoint field list; name and threshold come from the owner's config.
  /// The one alarm-state layout.
  template <typename Self, typename Io>
  static void fields(Self& self, Io& io) {
    io.flag(self.firing_);
    io.pod(self.last_value_);
    io.pod(self.fired_total_);
  }

 private:
  std::string name_;
  double threshold_;
  bool firing_ = false;
  double last_value_ = 0.0;
  std::uint64_t fired_total_ = 0;
};

namespace detail {
/// The alarm-event list layout of every `AlarmBank`'s history and its
/// quarantine gate's pending fires (serve checkpoint): a u32 count, then each
/// event.
template <typename Events, typename Io>
void alarm_events(Events& events, Io& io) {
  // Smallest event on the wire: two empty strings (u32 lengths), the fired
  // flag and four 8-byte scalars.
  constexpr std::uint64_t kMinEventBytes = 2 * 4 + 1 + 4 * 8;
  io.seq(events, kAnyCount, kMinEventBytes, [&](auto& event) {
    io.str(event.alarm);
    io.flag(event.fired);
    io.duration(event.at);
    io.pod(event.value);
    io.pod(event.threshold);
    io.pod(event.exemplar_request_id);
    io.str(event.detail);
  });
}
/// The `alarm=quarantine event=summary ...` WARN emitted on recovery.
void log_quarantine_summary(std::uint64_t suppressed, std::uint64_t replayed, SimDuration at);
}  // namespace detail

/// Device-quarantine gate for alarm edges (suppress-and-summarize), owned by
/// each family's `AlarmBank`: while quarantined, alarm *fire* edges are
/// swallowed (counted, not emitted); a fire-then-clear wholly inside the
/// quarantine nets to silence, while the clear of a pre-quarantine fire is
/// still emitted exactly. Leaving quarantine re-emits one fire per
/// still-firing suppressed alarm, stamped at the recovery time, plus a
/// summary log line. Purely observational — it gates which events are
/// emitted, never what the alarms compute.
class QuarantineGate {
 public:
  bool quarantined() const noexcept { return quarantined_; }
  std::uint64_t suppressed_total() const noexcept { return suppressed_total_; }

  /// Routes one alarm edge. `emit(const AlarmEvent&)` appends to the owner's
  /// event history / structured log.
  template <typename Emit>
  void dispatch(std::optional<AlarmEvent> event, Emit&& emit) {
    if (!event.has_value()) {
      return;
    }
    if (!quarantined_) {
      emit(*event);
      return;
    }
    if (event->fired) {
      // Swallow the fire but remember it (latest edge wins per alarm) so
      // recovery can replay still-firing conditions once.
      ++suppressed_total_;
      ++suppressed_this_quarantine_;
      for (AlarmEvent& pending : pending_fires_) {
        if (pending.alarm == event->alarm) {
          pending = *event;
          return;
        }
      }
      pending_fires_.push_back(*event);
      return;
    }
    // Clear edge: if it closes a suppressed fire, the pair nets to silence;
    // otherwise it clears a pre-quarantine fire and is emitted exactly.
    for (auto it = pending_fires_.begin(); it != pending_fires_.end(); ++it) {
      if (it->alarm == event->alarm) {
        pending_fires_.erase(it);
        return;
      }
    }
    emit(*event);
  }

  /// Entering quarantine arms suppression; leaving replays one fire per
  /// still-firing suppressed alarm (`find(name)` resolves the owner's
  /// `ThresholdAlarm*`, null = unknown) and logs the summary line.
  template <typename FindAlarm, typename Emit>
  void set_quarantined(bool quarantined, SimDuration at, FindAlarm&& find, Emit&& emit) {
    if (quarantined == quarantined_) {
      return;
    }
    quarantined_ = quarantined;
    if (quarantined_) {
      suppressed_this_quarantine_ = 0;
      return;
    }
    std::uint64_t replayed = 0;
    for (const AlarmEvent& pending : pending_fires_) {
      const ThresholdAlarm* alarm = find(std::string_view(pending.alarm));
      if (alarm != nullptr && alarm->firing()) {
        AlarmEvent event = pending;
        event.at = at;
        event.value = alarm->last_value();
        emit(event);
        ++replayed;
      }
    }
    pending_fires_.clear();
    if (suppressed_this_quarantine_ > 0) {
      detail::log_quarantine_summary(suppressed_this_quarantine_, replayed, at);
    }
    suppressed_this_quarantine_ = 0;
  }

  /// Checkpoint field list: the historic quarantine block.
  template <typename Self, typename Io>
  static void fields(Self& self, Io& io) {
    io.flag(self.quarantined_);
    detail::alarm_events(self.pending_fires_, io);
    io.pod(self.suppressed_total_);
    io.pod(self.suppressed_this_quarantine_);
  }

 private:
  bool quarantined_ = false;
  std::vector<AlarmEvent> pending_fires_;  ///< fires suppressed in quarantine
  std::uint64_t suppressed_total_ = 0;
  std::uint64_t suppressed_this_quarantine_ = 0;
};

/// One alarm's state at snapshot time. `detail` is engaged only in families
/// whose alarms name a culprit (model quality, energy); the serving
/// monitor's alarms carry none, so its JSON has no `"detail"` key.
struct AlarmState {
  std::string name;
  bool firing = false;
  std::uint64_t fired_total = 0;
  double value = 0.0;
  double threshold = 0.0;
  std::optional<std::string> detail;  ///< culprit of the last evaluation
};

/// The alarm plumbing of one telemetry family (`ServingMonitor`,
/// `ModelQualityStats`, `EnergyAccountant`): its `ThresholdAlarm`s, each
/// alarm's last culprit detail, the emitted event history and the quarantine
/// gate. Every edge takes the same path — tagged with its exemplar id and
/// detail, routed through the gate, appended to `events()` and logged as the
/// canonical `alarm=...` WARN line — and every family renders its alarms
/// through the same JSON and Prometheus writers below.
class AlarmBank {
 public:
  /// `with_details` is fixed per family: whether its alarms name a culprit.
  AlarmBank(std::vector<ThresholdAlarm> alarms, bool with_details);

  /// Updates alarm `i` (constructor order) with `value` at `t`; an edge is
  /// tagged with `exemplar` and the alarm's current detail, then dispatched.
  void update(std::size_t i, SimDuration t, double value, std::int64_t exemplar);
  /// Alarm `i`'s culprit, set by the family before `update` (details only).
  std::string& detail(std::size_t i) { return details_[i]; }

  /// Suppress-and-summarize (see `QuarantineGate`). Purely observational.
  void set_quarantined(bool quarantined, SimDuration at);
  bool quarantined() const noexcept { return gate_.quarantined(); }
  std::uint64_t suppressed_total() const noexcept { return gate_.suppressed_total(); }

  const std::vector<AlarmEvent>& events() const noexcept { return events_; }
  bool firing(std::string_view name) const;
  std::uint64_t fired_total(std::string_view name) const;

  /// Every alarm's state, in constructor order.
  std::vector<AlarmState> states() const;
  /// Appends `,"alarms":{"<name>":{"firing":..,"fired_total":..,"value":..,
  /// "threshold":..[,"detail":".."]},...}`.
  static void append_json(std::string& out, const std::vector<AlarmState>& alarms);
  /// Appends the `<prefix>_alarm_firing` and `<prefix>_alarm_fired_total`
  /// families; `noun` ("", "model ", "energy ") names the family in the help.
  static void append_prometheus(std::string& out, const std::vector<AlarmState>& alarms,
                                std::string_view prefix, std::string_view noun);

  /// Checkpoint field list, the one wire order of every family: each alarm,
  /// then each detail string, then the events, then the gate.
  template <typename Self, typename Io>
  static void fields(Self& self, Io& io) {
    for (auto& alarm : self.alarms_) {
      io.object(alarm);
    }
    for (auto& detail : self.details_) {
      io.str(detail);
    }
    detail::alarm_events(self.events_, io);
    io.object(self.gate_);
  }

 private:
  const ThresholdAlarm* find(std::string_view name) const;
  void emit(const AlarmEvent& event);

  std::vector<ThresholdAlarm> alarms_;
  std::vector<std::string> details_;  ///< one per alarm, or none
  std::vector<AlarmEvent> events_;
  QuarantineGate gate_;
};

/// Everything the live monitor watches, with thresholds for the alarms.
/// In a `ServeConfig`, a zero `window.span`, `window.buckets` or
/// `slo_latency` is resolved before the first arrival from the fault-free
/// full-tier price (`runtime::resolve_monitor_config`); the monitor itself
/// requires a positive span.
struct MonitorConfig {
  std::uint32_t num_classes = 0;  ///< required: sizes the per-class counters
  WindowConfig window;
  /// EWMA time constants; 0 = derive from the window span (span/4, span*8).
  double ewma_tau_short_s = 0.0;
  double ewma_tau_long_s = 0.0;
  /// Latency SLO: `slo_error_budget` is the allowed fraction of samples over
  /// `slo_latency` in the window; burn rate = observed fraction / budget.
  SimDuration slo_latency = SimDuration::millis(5);
  double slo_error_budget = 0.01;
  /// Alarm thresholds (alarm fires while metric > threshold).
  double alarm_burn_rate = 2.0;
  double alarm_error_rate = 0.5;
  double alarm_fallback_rate = 0.25;
  double alarm_drift_score = 0.35;
  /// Windowed fraction of offered samples shed or expired by admission
  /// control before the "shed_rate" alarm fires.
  double alarm_shed_rate = 0.5;
  /// Windowed samples required before error/drift alarms are evaluated, so a
  /// cold window cannot fire on its first mistake.
  std::uint64_t min_samples = 32;

  void validate() const;
};

/// Point-in-time view of the monitor, exported as deterministic JSON
/// ("hdc-monitor-v1", byte-identical for a fixed seed/config so snapshots
/// can be committed as baselines and gated by `hdc_perfdiff`) and as
/// Prometheus text exposition.
struct MonitorSnapshot {
  SimDuration at;

  // lifetime
  std::uint64_t samples_total = 0;
  std::uint64_t errors_total = 0;
  double lifetime_accuracy = 0.0;

  // window
  double window_span_s = 0.0;
  std::uint64_t window_samples = 0;
  double throughput_sps = 0.0;
  double latency_mean_s = 0.0;
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  double windowed_accuracy = 0.0;
  double windowed_error_rate = 0.0;
  double margin_mean = 0.0;
  double fallback_rate = 0.0;
  double retry_rate = 0.0;

  // ewma
  double ewma_latency_s = 0.0;
  double ewma_margin = 0.0;
  double ewma_accuracy = 0.0;

  // slo
  double slo_latency_s = 0.0;
  double slo_violation_fraction = 0.0;
  double slo_error_budget = 0.0;
  double slo_burn_rate = 0.0;

  // drift
  double drift_score = 0.0;
  double drift_margin_reference = 0.0;
  double drift_margin_current = 0.0;

  // admission / degradation ladder
  std::uint64_t offered_samples = 0;   ///< windowed samples offered for admission
  double shed_rate = 0.0;              ///< windowed (shed + expired) / offered
  double degraded_fraction = 0.0;      ///< windowed degraded-tier / served samples
  std::uint64_t shed_total = 0;        ///< lifetime samples shed by admission
  std::uint64_t expired_total = 0;     ///< lifetime samples expired on deadline
  std::uint64_t degraded_total = 0;    ///< lifetime samples served on degraded tiers
  bool quarantined = false;            ///< device quarantined at snapshot time
  std::uint64_t suppressed_alarms_total = 0;  ///< fire edges swallowed in quarantine

  // latency attribution (windowed stage-waterfall fractions; see
  // obs/request_trace.hpp for the stage taxonomy)
  double attribution_total_s = 0.0;  ///< windowed sum of attributed seconds
  std::array<double, kNumStages> attribution_fractions{};
  /// Request id of the slowest sample in the window (-1 = empty window);
  /// resolvable to a full span chain via the exemplar store /
  /// `hdc trace analyze`.
  std::int64_t exemplar_request_id = -1;

  std::vector<std::uint64_t> class_counts;  ///< windowed predictions per class

  std::vector<AlarmState> alarms;

  /// Model-quality section (see obs/model_stats.hpp), pre-rendered by the
  /// owning serving loop and spliced verbatim: `model_json` becomes the
  /// snapshot's `"model"` object, `model_metrics_json` is a run of
  /// `,"model.x":{...}` entries appended inside the flat `metrics` map, and
  /// `model_prometheus` is appended to the text exposition. All empty when
  /// no model-quality monitor is attached.
  std::string model_json;
  std::string model_metrics_json;
  std::string model_prometheus;

  /// Energy section (see obs/energy.hpp), spliced the same way: `energy_json`
  /// becomes the snapshot's `"energy"` object, `energy_metrics_json` a run of
  /// `,"energy.x":{...}` gate entries, `energy_prometheus` the `hdc_energy_*`
  /// families. All empty when no energy accountant is attached.
  std::string energy_json;
  std::string energy_metrics_json;
  std::string energy_prometheus;

  /// hdc-monitor-v1 JSON. Contains the nested telemetry plus a flat
  /// `metrics` map in the hdc-bench-v1 entry shape, so `hdc_perfdiff` can
  /// gate a snapshot exactly like a bench JSON.
  std::string to_json() const;
  /// Prometheus text-format exposition (`hdc_serve_*` families).
  std::string to_prometheus() const;
};

/// Low-overhead streaming telemetry over a live serving loop. Strictly
/// observational: it receives copies of values the serving path already
/// computed and never feeds anything back, so attaching (or resizing) a
/// monitor cannot change a prediction, model state, or simulated timing.
///
/// Alarms ("latency_slo" on SLO burn rate, "error_rate", "fallback_rate",
/// "drift" on margin collapse, "shed_rate" on admission shedding) live in an
/// `AlarmBank`: edge-triggered, each edge appended to `alarms().events()` and
/// emitted into the structured log (grep/jq-able through
/// `log::set_json_sink`). While the serving layer marks the device
/// quarantined, fire edges are suppressed and summarized instead of
/// re-firing (see `set_quarantined`). They name no culprit.
class ServingMonitor {
 public:
  explicit ServingMonitor(MonitorConfig config);

  const MonitorConfig& config() const noexcept { return config_; }

  /// One served sample: prediction + prequential correctness + quality
  /// signals, stamped with its simulated completion time.
  struct Sample {
    SimDuration at;
    SimDuration latency;
    std::uint32_t predicted = 0;
    bool correct = false;
    double margin = 0.0;  ///< top1 - top2 class score of the served model
    /// Request (offered chunk) the sample belongs to; -1 = untracked. Feeds
    /// the windowed slowest-request exemplar id on alarms and snapshots.
    std::int64_t request_id = -1;
  };
  void record(const Sample& sample);

  /// One request's stage-grouped latency attribution (durations already
  /// summed per stage by `RequestTrace::finalize`), stamped at the request's
  /// completion time. Aggregated into windowed stage-waterfall fractions.
  void record_attribution(SimDuration at, const RequestAttribution& attribution);

  /// Batch-level transport health (the resilient executor reports fallback
  /// and retry counts per batch, not per sample).
  void record_transport(SimDuration at, std::uint64_t samples,
                        std::uint64_t cpu_fallback_samples, std::uint64_t retries);

  /// Admission-control and degradation-ladder outcome of one arrival/service
  /// event: how many samples were offered, shed outright, expired on their
  /// deadline, and served on a degraded (non-full) ladder tier.
  void record_admission(SimDuration at, std::uint64_t offered_samples,
                        std::uint64_t shed_samples, std::uint64_t expired_samples,
                        std::uint64_t degraded_samples);

  /// Device-quarantine gate for alarm edges (see `QuarantineGate`).
  void set_quarantined(bool quarantined, SimDuration at);

  // ---- windowed views (advance the window to `now`, then read) ----
  std::uint64_t window_samples(SimDuration now) { return latency_.count(now); }
  double windowed_accuracy(SimDuration now);
  double windowed_error_rate(SimDuration now);
  SimDuration latency_quantile(SimDuration now, double q) {
    return latency_.quantile(now, q);
  }
  double windowed_margin(SimDuration now) { return margin_.mean(now); }
  double slo_violation_fraction(SimDuration now);
  double slo_burn_rate(SimDuration now);
  double fallback_rate(SimDuration now);
  /// Windowed (shed + expired) / offered; 0 while nothing was offered.
  double shed_rate(SimDuration now);
  /// Windowed degraded-tier fraction of served samples.
  double degraded_fraction(SimDuration now);
  /// Margin-collapse drift score: relative collapse of the windowed margin
  /// against the slow-EWMA reference, in [0, 1].
  double drift_score() const;
  /// Request id of the slowest sample currently in the window (-1 = empty).
  std::int64_t slowest_request_id(SimDuration now);
  /// Windowed per-stage attributed seconds (index = obs::Stage).
  std::array<double, kNumStages> windowed_attribution_s(SimDuration now);

  std::uint64_t samples_total() const noexcept { return samples_total_; }
  std::uint64_t errors_total() const noexcept { return errors_total_; }

  const AlarmBank& alarms() const noexcept { return bank_; }

  MonitorSnapshot snapshot(SimDuration now);

  /// Exact-state round-trip for the serve checkpoint: resolved config, every
  /// sliding window (rings, cursors, slots), EWMAs, alarm states, the alarm
  /// event history and quarantine-gate state, and the lifetime totals.
  /// Restoring yields a monitor whose subsequent alarm edges and snapshots
  /// are byte-identical to one that was never serialized.
  void serialize(ByteWriter& writer) const;
  static ServingMonitor deserialize(ByteReader& reader);

 private:
  template <typename Self, typename Io>
  static void state_fields(Self& self, Io& io);

  /// Bank indices, in the historic snapshot and wire order.
  enum Alarm : std::size_t { kLatencySlo, kErrorRate, kFallbackRate, kDrift, kShedRate };

  void evaluate_alarms(SimDuration now);

  MonitorConfig config_;
  double tau_short_s_;
  double tau_long_s_;

  SlidingHistogram latency_;
  SlidingCounter samples_;
  SlidingCounter errors_;
  SlidingCounter slo_violations_;
  SlidingCounter transport_samples_;
  SlidingCounter fallback_samples_;
  SlidingCounter retries_;
  SlidingCounter offered_;
  SlidingCounter shed_;
  SlidingCounter expired_;
  SlidingCounter degraded_;
  SlidingMean margin_;
  detail::BucketRing<std::vector<std::uint64_t>> class_counts_;
  /// Per-bucket slowest sample (latency + request id) for exemplar linking.
  struct SlowestSlot {
    double latency_s = -1.0;
    std::int64_t request_id = -1;
  };
  detail::BucketRing<SlowestSlot> slowest_;
  /// Per-bucket attributed seconds by stage.
  detail::BucketRing<std::array<double, kNumStages>> attribution_;

  Ewma ewma_latency_;
  Ewma ewma_margin_;
  Ewma ewma_accuracy_;
  Ewma margin_reference_;  ///< slow EWMA, the drift detector's baseline

  AlarmBank bank_;

  std::uint64_t samples_total_ = 0;
  std::uint64_t errors_total_ = 0;
  std::uint64_t shed_total_ = 0;
  std::uint64_t expired_total_ = 0;
  std::uint64_t degraded_total_ = 0;
};

}  // namespace hdc::obs

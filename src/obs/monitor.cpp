#include "obs/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/json.hpp"

namespace hdc::obs {

void WindowConfig::validate() const {
  HDC_CHECK(span > SimDuration(), "window span must be positive");
  HDC_CHECK(buckets > 0, "window needs at least one bucket");
}

// ------------------------------------------------------- SlidingCounter ----

std::uint64_t SlidingCounter::sum(SimDuration now) {
  ring_.advance_to(now);
  std::uint64_t total = 0;
  for (const auto slot : ring_.slots()) {
    total += slot;
  }
  return total;
}

// ---------------------------------------------------------- SlidingMean ----

std::uint64_t SlidingMean::count(SimDuration now) {
  ring_.advance_to(now);
  std::uint64_t total = 0;
  for (const auto& slot : ring_.slots()) {
    total += slot.count;
  }
  return total;
}

double SlidingMean::mean(SimDuration now) {
  ring_.advance_to(now);
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const auto& slot : ring_.slots()) {
    sum += slot.sum;
    n += slot.count;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

// ----------------------------------------------------- SlidingHistogram ----

std::size_t SlidingHistogram::bin_index(double seconds) {
  if (seconds < 1e-9) {
    return 0;  // underflow
  }
  const double f = (std::log10(seconds) - kMinExponent) * kBinsPerDecade;
  const auto finite = static_cast<std::size_t>(f);
  if (finite >= kFiniteBins) {
    return kBins - 1;  // overflow
  }
  return finite + 1;
}

double SlidingHistogram::bin_lower_seconds(std::size_t bin) {
  if (bin == 0) {
    return 0.0;
  }
  if (bin >= kBins - 1) {
    return std::pow(10.0, kMaxExponent);
  }
  return std::pow(10.0, kMinExponent +
                            static_cast<double>(bin - 1) / kBinsPerDecade);
}

double SlidingHistogram::bin_upper_seconds(std::size_t bin) {
  if (bin == 0) {
    return 1e-9;
  }
  if (bin >= kBins - 1) {
    return std::pow(10.0, kMaxExponent);  // clamped by the observed max anyway
  }
  return std::pow(10.0, kMinExponent + static_cast<double>(bin) / kBinsPerDecade);
}

void SlidingHistogram::observe(SimDuration t, SimDuration value) {
  Slot& slot = ring_.at(t);
  const double s = value.to_seconds();
  ++slot.bins[bin_index(s)];
  if (slot.count == 0 || s < slot.min_s) {
    slot.min_s = s;
  }
  if (slot.count == 0 || s > slot.max_s) {
    slot.max_s = s;
  }
  ++slot.count;
  slot.sum_s += s;
}

std::uint64_t SlidingHistogram::count(SimDuration now) {
  ring_.advance_to(now);
  std::uint64_t total = 0;
  for (const auto& slot : ring_.slots()) {
    total += slot.count;
  }
  return total;
}

SimDuration SlidingHistogram::mean(SimDuration now) {
  ring_.advance_to(now);
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const auto& slot : ring_.slots()) {
    sum += slot.sum_s;
    n += slot.count;
  }
  return n == 0 ? SimDuration() : SimDuration::seconds(sum / static_cast<double>(n));
}

SimDuration SlidingHistogram::quantile(SimDuration now, double q) {
  ring_.advance_to(now);
  std::array<std::uint64_t, kBins> merged{};
  std::uint64_t total = 0;
  double win_min = 0.0;
  double win_max = 0.0;
  for (const auto& slot : ring_.slots()) {
    if (slot.count == 0) {
      continue;
    }
    for (std::size_t i = 0; i < kBins; ++i) {
      merged[i] += slot.bins[i];
    }
    if (total == 0 || slot.min_s < win_min) {
      win_min = slot.min_s;
    }
    if (total == 0 || slot.max_s > win_max) {
      win_max = slot.max_s;
    }
    total += slot.count;
  }
  if (total == 0) {
    return SimDuration();
  }
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total - 1);
  std::uint64_t cumulative = 0;
  for (std::size_t bin = 0; bin < kBins; ++bin) {
    if (merged[bin] == 0) {
      continue;
    }
    const auto before = static_cast<double>(cumulative);
    cumulative += merged[bin];
    if (rank < static_cast<double>(cumulative)) {
      const double frac = (rank - before + 0.5) / static_cast<double>(merged[bin]);
      const double lo = bin_lower_seconds(bin);
      const double hi = bin_upper_seconds(bin);
      const double value = std::clamp(lo + frac * (hi - lo), win_min, win_max);
      return SimDuration::seconds(value);
    }
  }
  return SimDuration::seconds(win_max);
}

// ------------------------------------------------------------------ Ewma ----

void Ewma::observe(SimDuration t, double value) {
  if (!seeded_) {
    value_ = value;
    last_ = t;
    seeded_ = true;
    return;
  }
  const double dt = std::max(0.0, (t - last_).to_seconds());
  const double alpha = 1.0 - std::exp(-dt / tau_s_);
  value_ += alpha * (value - value_);
  last_ = t;
}

// -------------------------------------------------------- ThresholdAlarm ----

std::optional<AlarmEvent> ThresholdAlarm::update(SimDuration t, double value) {
  last_value_ = value;
  const auto edge = [&](bool fired) {
    AlarmEvent event;
    event.alarm = name_;
    event.fired = fired;
    event.at = t;
    event.value = value;
    event.threshold = threshold_;
    return event;
  };
  if (!firing_ && value > threshold_) {
    firing_ = true;
    ++fired_total_;
    return edge(true);
  }
  if (firing_ && value <= threshold_) {
    firing_ = false;
    return edge(false);
  }
  return std::nullopt;
}

// ------------------------------------------------------------- AlarmBank ----

namespace {

/// The canonical `alarm=... event=fire|clear ...` WARN line for one edge:
/// one grammar for every family's log consumers.
void log_alarm_event(const AlarmEvent& event) {
  char message[192];
  std::snprintf(message, sizeof(message),
                "alarm=%s event=%s value=%.6g threshold=%.6g t_s=%.9g",
                event.alarm.c_str(), event.fired ? "fire" : "clear", event.value,
                event.threshold, event.at.to_seconds());
  std::string line = message;
  if (event.exemplar_request_id >= 0) {
    line += " exemplar=";
    line += std::to_string(event.exemplar_request_id);
  }
  if (!event.detail.empty()) {
    line += " detail=";
    line += event.detail;
  }
  HDC_LOG_WARN << line;
}

}  // namespace

void detail::log_quarantine_summary(std::uint64_t suppressed, std::uint64_t replayed,
                                    SimDuration at) {
  char message[160];
  std::snprintf(message, sizeof(message),
                "alarm=quarantine event=summary suppressed=%llu replayed=%llu t_s=%.9g",
                static_cast<unsigned long long>(suppressed),
                static_cast<unsigned long long>(replayed), at.to_seconds());
  HDC_LOG_WARN << message;
}

AlarmBank::AlarmBank(std::vector<ThresholdAlarm> alarms, bool with_details)
    : alarms_(std::move(alarms)), details_(with_details ? alarms_.size() : 0) {}

void AlarmBank::update(std::size_t i, SimDuration t, double value, std::int64_t exemplar) {
  std::optional<AlarmEvent> event = alarms_[i].update(t, value);
  if (event.has_value()) {
    event->exemplar_request_id = exemplar;
    if (!details_.empty()) {
      event->detail = details_[i];
    }
  }
  gate_.dispatch(std::move(event), [this](const AlarmEvent& e) { emit(e); });
}

void AlarmBank::set_quarantined(bool quarantined, SimDuration at) {
  gate_.set_quarantined(
      quarantined, at, [this](std::string_view name) { return find(name); },
      [this](const AlarmEvent& e) { emit(e); });
}

void AlarmBank::emit(const AlarmEvent& event) {
  events_.push_back(event);
  log_alarm_event(event);
}

const ThresholdAlarm* AlarmBank::find(std::string_view name) const {
  for (const ThresholdAlarm& alarm : alarms_) {
    if (alarm.name() == name) {
      return &alarm;
    }
  }
  return nullptr;
}

bool AlarmBank::firing(std::string_view name) const {
  const ThresholdAlarm* alarm = find(name);
  return alarm != nullptr && alarm->firing();
}

std::uint64_t AlarmBank::fired_total(std::string_view name) const {
  const ThresholdAlarm* alarm = find(name);
  return alarm == nullptr ? 0 : alarm->fired_total();
}

std::vector<AlarmState> AlarmBank::states() const {
  std::vector<AlarmState> states;
  states.reserve(alarms_.size());
  for (std::size_t i = 0; i < alarms_.size(); ++i) {
    const ThresholdAlarm& alarm = alarms_[i];
    states.push_back(AlarmState{alarm.name(), alarm.firing(), alarm.fired_total(),
                                alarm.last_value(), alarm.threshold(),
                                details_.empty() ? std::nullopt
                                                 : std::optional(details_[i])});
  }
  return states;
}

void AlarmBank::append_json(std::string& out, const std::vector<AlarmState>& alarms) {
  out += ",\"alarms\":{";
  for (std::size_t i = 0; i < alarms.size(); ++i) {
    const AlarmState& alarm = alarms[i];
    if (i > 0) {
      out.push_back(',');
    }
    detail::append_json_string(out, alarm.name);
    out += ":{\"firing\":";
    out += alarm.firing ? "true" : "false";
    out += ",\"fired_total\":" + std::to_string(alarm.fired_total);
    detail::append_field(out, "value", alarm.value, true);
    detail::append_field(out, "threshold", alarm.threshold, true);
    if (alarm.detail.has_value()) {
      out += ",\"detail\":";
      detail::append_json_string(out, *alarm.detail);
    }
    out.push_back('}');
  }
  out.push_back('}');
}

void AlarmBank::append_prometheus(std::string& out, const std::vector<AlarmState>& alarms,
                                  std::string_view prefix, std::string_view noun) {
  const std::string firing = std::string(prefix) + "_alarm_firing";
  const std::string fired = std::string(prefix) + "_alarm_fired_total";
  detail::prom_header(out, firing, "gauge",
                      "1 while the " + std::string(noun) + "alarm condition holds");
  for (const AlarmState& alarm : alarms) {
    detail::prom_line(out, firing, "alarm=\"" + alarm.name + "\"", alarm.firing ? 1.0 : 0.0);
  }
  detail::prom_header(out, fired, "counter",
                      "Edge-triggered " + std::string(noun) + "alarm fire count");
  for (const AlarmState& alarm : alarms) {
    detail::prom_line(out, fired, "alarm=\"" + alarm.name + "\"",
                      static_cast<double>(alarm.fired_total));
  }
}

// --------------------------------------------------------- MonitorConfig ----

void MonitorConfig::validate() const {
  HDC_CHECK(num_classes > 0, "monitor needs the class count");
  window.validate();
  HDC_CHECK(slo_latency > SimDuration(), "SLO latency target must be positive");
  HDC_CHECK(slo_error_budget > 0.0 && slo_error_budget <= 1.0,
            "SLO error budget must be in (0, 1]");
  HDC_CHECK(alarm_burn_rate >= 0.0 && alarm_error_rate >= 0.0 &&
                alarm_fallback_rate >= 0.0 && alarm_drift_score >= 0.0 &&
                alarm_shed_rate >= 0.0,
            "alarm thresholds must be non-negative");
}

// -------------------------------------------------------- ServingMonitor ----

ServingMonitor::ServingMonitor(MonitorConfig config)
    : config_(config),
      tau_short_s_(config.ewma_tau_short_s > 0.0
                       ? config.ewma_tau_short_s
                       : config.window.span.to_seconds() / 4.0),
      tau_long_s_(config.ewma_tau_long_s > 0.0 ? config.ewma_tau_long_s
                                               : config.window.span.to_seconds() * 8.0),
      latency_(config.window),
      samples_(config.window),
      errors_(config.window),
      slo_violations_(config.window),
      transport_samples_(config.window),
      fallback_samples_(config.window),
      retries_(config.window),
      offered_(config.window),
      shed_(config.window),
      expired_(config.window),
      degraded_(config.window),
      margin_(config.window),
      class_counts_(config.window, std::vector<std::uint64_t>(config.num_classes, 0)),
      slowest_(config.window, SlowestSlot{}),
      attribution_(config.window, std::array<double, kNumStages>{}),
      ewma_latency_(tau_short_s_),
      ewma_margin_(tau_short_s_),
      ewma_accuracy_(tau_short_s_),
      margin_reference_(tau_long_s_),
      bank_({ThresholdAlarm("latency_slo", config.alarm_burn_rate),
             ThresholdAlarm("error_rate", config.alarm_error_rate),
             ThresholdAlarm("fallback_rate", config.alarm_fallback_rate),
             ThresholdAlarm("drift", config.alarm_drift_score),
             ThresholdAlarm("shed_rate", config.alarm_shed_rate)},
            /*with_details=*/false) {
  config_.validate();
}

void ServingMonitor::record(const Sample& sample) {
  HDC_CHECK(sample.predicted < config_.num_classes,
            "predicted class out of monitor range");
  ++samples_total_;
  if (!sample.correct) {
    ++errors_total_;
  }
  latency_.observe(sample.at, sample.latency);
  samples_.add(sample.at);
  if (!sample.correct) {
    errors_.add(sample.at);
  }
  if (sample.latency > config_.slo_latency) {
    slo_violations_.add(sample.at);
  }
  margin_.add(sample.at, sample.margin);
  ++class_counts_.at(sample.at)[sample.predicted];
  SlowestSlot& slow = slowest_.at(sample.at);
  if (sample.latency.to_seconds() > slow.latency_s) {
    slow.latency_s = sample.latency.to_seconds();
    slow.request_id = sample.request_id;
  }

  ewma_latency_.observe(sample.at, sample.latency.to_seconds());
  ewma_margin_.observe(sample.at, sample.margin);
  ewma_accuracy_.observe(sample.at, sample.correct ? 1.0 : 0.0);
  margin_reference_.observe(sample.at, sample.margin);

  evaluate_alarms(sample.at);
}

void ServingMonitor::record_attribution(SimDuration at,
                                        const RequestAttribution& attribution) {
  std::array<double, kNumStages>& slot = attribution_.at(at);
  for (std::size_t i = 0; i < kNumStages; ++i) {
    slot[i] += attribution.stages[i].to_seconds();
  }
}

std::int64_t ServingMonitor::slowest_request_id(SimDuration now) {
  slowest_.advance_to(now);
  double worst = -1.0;
  std::int64_t id = -1;
  for (const SlowestSlot& slot : slowest_.slots()) {
    if (slot.latency_s > worst) {
      worst = slot.latency_s;
      id = slot.request_id;
    }
  }
  return id;
}

std::array<double, kNumStages> ServingMonitor::windowed_attribution_s(SimDuration now) {
  attribution_.advance_to(now);
  std::array<double, kNumStages> sums{};
  for (const auto& slot : attribution_.slots()) {
    for (std::size_t i = 0; i < kNumStages; ++i) {
      sums[i] += slot[i];
    }
  }
  return sums;
}

void ServingMonitor::record_transport(SimDuration at, std::uint64_t samples,
                                      std::uint64_t cpu_fallback_samples,
                                      std::uint64_t retries) {
  transport_samples_.add(at, samples);
  fallback_samples_.add(at, cpu_fallback_samples);
  retries_.add(at, retries);
  evaluate_alarms(at);
}

void ServingMonitor::record_admission(SimDuration at, std::uint64_t offered_samples,
                                      std::uint64_t shed_samples,
                                      std::uint64_t expired_samples,
                                      std::uint64_t degraded_samples) {
  offered_.add(at, offered_samples);
  shed_.add(at, shed_samples);
  expired_.add(at, expired_samples);
  degraded_.add(at, degraded_samples);
  shed_total_ += shed_samples;
  expired_total_ += expired_samples;
  degraded_total_ += degraded_samples;
  evaluate_alarms(at);
}

void ServingMonitor::set_quarantined(bool quarantined, SimDuration at) {
  bank_.set_quarantined(quarantined, at);
}

double ServingMonitor::windowed_accuracy(SimDuration now) {
  const std::uint64_t s = samples_.sum(now);
  if (s == 0) {
    return 0.0;
  }
  return 1.0 - static_cast<double>(errors_.sum(now)) / static_cast<double>(s);
}

double ServingMonitor::windowed_error_rate(SimDuration now) {
  const std::uint64_t s = samples_.sum(now);
  return s == 0 ? 0.0
               : static_cast<double>(errors_.sum(now)) / static_cast<double>(s);
}

double ServingMonitor::slo_violation_fraction(SimDuration now) {
  const std::uint64_t s = samples_.sum(now);
  return s == 0 ? 0.0
               : static_cast<double>(slo_violations_.sum(now)) / static_cast<double>(s);
}

double ServingMonitor::slo_burn_rate(SimDuration now) {
  return slo_violation_fraction(now) / config_.slo_error_budget;
}

double ServingMonitor::fallback_rate(SimDuration now) {
  const std::uint64_t s = transport_samples_.sum(now);
  return s == 0 ? 0.0
               : static_cast<double>(fallback_samples_.sum(now)) / static_cast<double>(s);
}

double ServingMonitor::shed_rate(SimDuration now) {
  const std::uint64_t offered = offered_.sum(now);
  return offered == 0
             ? 0.0
             : static_cast<double>(shed_.sum(now) + expired_.sum(now)) /
                   static_cast<double>(offered);
}

double ServingMonitor::degraded_fraction(SimDuration now) {
  const std::uint64_t served = transport_samples_.sum(now);
  return served == 0
             ? 0.0
             : static_cast<double>(degraded_.sum(now)) / static_cast<double>(served);
}

double ServingMonitor::drift_score() const {
  if (margin_reference_.empty() || ewma_margin_.empty()) {
    return 0.0;
  }
  const double reference = margin_reference_.value();
  if (reference <= 1e-12) {
    return 0.0;
  }
  const double collapse = (reference - ewma_margin_.value()) / reference;
  return std::clamp(collapse, 0.0, 1.0);
}

void ServingMonitor::evaluate_alarms(SimDuration now) {
  // Every edge produced at `now` carries the windowed slowest request id, so
  // alarm lines link straight to a retained exemplar chain.
  const std::int64_t exemplar = slowest_request_id(now);
  const std::uint64_t in_window = samples_.sum(now);
  if (in_window >= config_.min_samples) {
    bank_.update(kLatencySlo, now, slo_burn_rate(now), exemplar);
    bank_.update(kErrorRate, now, windowed_error_rate(now), exemplar);
    bank_.update(kDrift, now, drift_score(), exemplar);
  }
  if (transport_samples_.sum(now) >= config_.min_samples) {
    bank_.update(kFallbackRate, now, fallback_rate(now), exemplar);
  }
  if (offered_.sum(now) >= config_.min_samples) {
    bank_.update(kShedRate, now, shed_rate(now), exemplar);
  }
}

MonitorSnapshot ServingMonitor::snapshot(SimDuration now) {
  MonitorSnapshot snap;
  snap.at = now;
  snap.samples_total = samples_total_;
  snap.errors_total = errors_total_;
  snap.lifetime_accuracy =
      samples_total_ == 0
          ? 0.0
          : 1.0 - static_cast<double>(errors_total_) / static_cast<double>(samples_total_);

  snap.window_span_s = config_.window.span.to_seconds();
  snap.window_samples = samples_.sum(now);
  const double effective_span =
      std::min(snap.window_span_s, std::max(now.to_seconds(), 1e-12));
  snap.throughput_sps = static_cast<double>(snap.window_samples) / effective_span;
  snap.latency_mean_s = latency_.mean(now).to_seconds();
  snap.latency_p50_s = latency_.quantile(now, 0.50).to_seconds();
  snap.latency_p95_s = latency_.quantile(now, 0.95).to_seconds();
  snap.latency_p99_s = latency_.quantile(now, 0.99).to_seconds();
  snap.windowed_accuracy = windowed_accuracy(now);
  snap.windowed_error_rate = windowed_error_rate(now);
  snap.margin_mean = margin_.mean(now);
  snap.fallback_rate = fallback_rate(now);
  const std::uint64_t transported = transport_samples_.sum(now);
  snap.retry_rate = transported == 0 ? 0.0
                                     : static_cast<double>(retries_.sum(now)) /
                                           static_cast<double>(transported);

  snap.ewma_latency_s = ewma_latency_.value();
  snap.ewma_margin = ewma_margin_.value();
  snap.ewma_accuracy = ewma_accuracy_.value();

  snap.slo_latency_s = config_.slo_latency.to_seconds();
  snap.slo_violation_fraction = slo_violation_fraction(now);
  snap.slo_error_budget = config_.slo_error_budget;
  snap.slo_burn_rate = slo_burn_rate(now);

  snap.drift_score = drift_score();
  snap.drift_margin_reference = margin_reference_.value();
  snap.drift_margin_current = ewma_margin_.value();

  snap.offered_samples = offered_.sum(now);
  snap.shed_rate = shed_rate(now);
  snap.degraded_fraction = degraded_fraction(now);
  snap.shed_total = shed_total_;
  snap.expired_total = expired_total_;
  snap.degraded_total = degraded_total_;
  snap.quarantined = bank_.quarantined();
  snap.suppressed_alarms_total = bank_.suppressed_total();

  const std::array<double, kNumStages> attribution = windowed_attribution_s(now);
  double attribution_total = 0.0;
  for (const double stage_s : attribution) {
    attribution_total += stage_s;
  }
  snap.attribution_total_s = attribution_total;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    snap.attribution_fractions[i] =
        attribution_total == 0.0 ? 0.0 : attribution[i] / attribution_total;
  }
  snap.exemplar_request_id = slowest_request_id(now);

  snap.class_counts.assign(config_.num_classes, 0);
  class_counts_.advance_to(now);
  for (const auto& slot : class_counts_.slots()) {
    for (std::size_t c = 0; c < slot.size(); ++c) {
      snap.class_counts[c] += slot[c];
    }
  }

  snap.alarms = bank_.states();
  return snap;
}

// ------------------------------------- monitor checkpoint round-trip --------
//
// Every number below is written raw (doubles bit-exact through ByteWriter),
// so a restored monitor's subsequent windows, EWMAs, alarm edges and
// snapshots are byte-identical to a monitor that was never serialized.

template <typename Self, typename Io>
void SlidingCounter::fields(Self& self, Io& io) {
  io.pod(self.ring_.cursor());
  io.fixed(self.ring_.slots());
}

template <typename Self, typename Io>
void SlidingMean::fields(Self& self, Io& io) {
  detail::ring_fields(self.ring_, io, [&](auto& slot) {
    io.pod(slot.sum);
    io.pod(slot.count);
  });
}

template <typename Self, typename Io>
void SlidingHistogram::fields(Self& self, Io& io) {
  detail::ring_fields(self.ring_, io, [&](auto& slot) {
    io.raw(slot.bins);
    io.pod(slot.count);
    io.pod(slot.sum_s);
    io.pod(slot.min_s);
    io.pod(slot.max_s);
  });
}

namespace {

/// The resolved config comes first: deserialize reconstructs the monitor
/// from it, so auto-sized windows and SLOs round-trip without re-deriving.
template <typename Config, typename Io>
void monitor_config_fields(Config& config, Io& io) {
  io.pod(config.num_classes);
  io.duration(config.window.span);
  io.pod(config.window.buckets);
  io.pod(config.ewma_tau_short_s);
  io.pod(config.ewma_tau_long_s);
  io.duration(config.slo_latency);
  io.pod(config.slo_error_budget);
  io.pod(config.alarm_burn_rate);
  io.pod(config.alarm_error_rate);
  io.pod(config.alarm_fallback_rate);
  io.pod(config.alarm_drift_score);
  io.pod(config.alarm_shed_rate);
  io.pod(config.min_samples);
}

}  // namespace

template <typename Self, typename Io>
void ServingMonitor::state_fields(Self& self, Io& io) {
  io.object(self.latency_);
  io.object(self.samples_);
  io.object(self.errors_);
  io.object(self.slo_violations_);
  io.object(self.transport_samples_);
  io.object(self.fallback_samples_);
  io.object(self.retries_);
  io.object(self.offered_);
  io.object(self.shed_);
  io.object(self.expired_);
  io.object(self.degraded_);
  io.object(self.margin_);
  detail::ring_fields(self.class_counts_, io, [&](auto& slot) { io.fixed(slot); });
  detail::ring_fields(self.slowest_, io, [&](auto& slot) {
    io.pod(slot.latency_s);
    io.pod(slot.request_id);
  });
  detail::ring_fields(self.attribution_, io, [&](auto& slot) { io.raw(slot); });

  io.object(self.ewma_latency_);
  io.object(self.ewma_margin_);
  io.object(self.ewma_accuracy_);
  io.object(self.margin_reference_);

  io.object(self.bank_);

  io.pod(self.samples_total_);
  io.pod(self.errors_total_);
  io.pod(self.shed_total_);
  io.pod(self.expired_total_);
  io.pod(self.degraded_total_);
}

void ServingMonitor::serialize(ByteWriter& writer) const {
  monitor_config_fields(config_, writer);
  state_fields(*this, writer);
}

ServingMonitor ServingMonitor::deserialize(ByteReader& reader) {
  MonitorConfig config;
  monitor_config_fields(config, reader);
  // Bound the window shape by the bytes left before the constructor sizes
  // it: each class-count bucket is a length plus one count per class.
  reader.fits(config.num_classes, 8);
  reader.fits(config.window.buckets, 8 * (1 + std::uint64_t{config.num_classes}));
  ServingMonitor monitor(config);
  state_fields(monitor, reader);
  return monitor;
}

// ------------------------------------------------------ MonitorSnapshot ----

using detail::append_field;
using detail::append_gate_metric;
using detail::prom_header;
using detail::prom_line;

std::string MonitorSnapshot::to_json() const {
  std::string out;
  out += "{\"schema\":\"hdc-monitor-v1\",\"t_s\":";
  detail::append_json_number(out, at.to_seconds());

  out += ",\"lifetime\":{\"samples\":" + std::to_string(samples_total) +
         ",\"errors\":" + std::to_string(errors_total);
  append_field(out, "accuracy", lifetime_accuracy, /*leading_comma=*/true);
  out += "}";

  out += ",\"window\":{\"span_s\":";
  detail::append_json_number(out, window_span_s);
  out += ",\"samples\":" + std::to_string(window_samples);
  append_field(out, "throughput_sps", throughput_sps, true);
  out += ",\"latency\":{";
  append_field(out, "mean_s", latency_mean_s, false);
  append_field(out, "p50_s", latency_p50_s, true);
  append_field(out, "p95_s", latency_p95_s, true);
  append_field(out, "p99_s", latency_p99_s, true);
  out += "}";
  append_field(out, "accuracy", windowed_accuracy, true);
  append_field(out, "error_rate", windowed_error_rate, true);
  append_field(out, "margin", margin_mean, true);
  append_field(out, "fallback_rate", fallback_rate, true);
  append_field(out, "retry_rate", retry_rate, true);
  out += ",\"exemplar_request_id\":" + std::to_string(exemplar_request_id);
  out += "}";

  out += ",\"ewma\":{";
  append_field(out, "latency_s", ewma_latency_s, false);
  append_field(out, "margin", ewma_margin, true);
  append_field(out, "accuracy", ewma_accuracy, true);
  out += "}";

  out += ",\"slo\":{";
  append_field(out, "latency_target_s", slo_latency_s, false);
  append_field(out, "violation_fraction", slo_violation_fraction, true);
  append_field(out, "error_budget", slo_error_budget, true);
  append_field(out, "burn_rate", slo_burn_rate, true);
  out += "}";

  out += ",\"drift\":{";
  append_field(out, "score", drift_score, false);
  append_field(out, "margin_reference", drift_margin_reference, true);
  append_field(out, "margin_current", drift_margin_current, true);
  out += "}";

  out += ",\"attribution\":{";
  append_field(out, "total_s", attribution_total_s, false);
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const std::string key =
        std::string(stage_name(static_cast<Stage>(i))) + "_fraction";
    append_field(out, key.c_str(), attribution_fractions[i], true);
  }
  out += "}";

  out += ",\"admission\":{\"offered\":" + std::to_string(offered_samples);
  append_field(out, "shed_rate", shed_rate, true);
  append_field(out, "degraded_fraction", degraded_fraction, true);
  out += ",\"shed_total\":" + std::to_string(shed_total) +
         ",\"expired_total\":" + std::to_string(expired_total) +
         ",\"degraded_total\":" + std::to_string(degraded_total) +
         ",\"quarantined\":";
  out += quarantined ? "true" : "false";
  out += ",\"suppressed_alarms_total\":" + std::to_string(suppressed_alarms_total);
  out += "}";

  out += ",\"classes\":[";
  for (std::size_t c = 0; c < class_counts.size(); ++c) {
    if (c > 0) {
      out.push_back(',');
    }
    out += std::to_string(class_counts[c]);
  }
  out += "]";

  AlarmBank::append_json(out, alarms);

  // Model-quality section (obs/model_stats.hpp), pre-rendered by the owner.
  if (!model_json.empty()) {
    out += ",\"model\":";
    out += model_json;
  }

  // Energy section (obs/energy.hpp), pre-rendered by the owner.
  if (!energy_json.empty()) {
    out += ",\"energy\":";
    out += energy_json;
  }

  // Flat gate map in the hdc-bench-v1 entry shape: `hdc_perfdiff` diffs a
  // snapshot against a committed baseline exactly like a bench JSON.
  out += ",\"metrics\":{";
  append_gate_metric(out, "lifetime.accuracy", lifetime_accuracy, "fraction", "sim",
                     "higher", false);
  append_gate_metric(out, "window.accuracy", windowed_accuracy, "fraction", "sim",
                     "higher", true);
  append_gate_metric(out, "window.error_rate", windowed_error_rate, "fraction", "sim",
                     "lower", true);
  append_gate_metric(out, "window.latency_p95_s", latency_p95_s, "s", "sim", "lower",
                     true);
  append_gate_metric(out, "window.latency_p99_s", latency_p99_s, "s", "sim", "lower",
                     true);
  append_gate_metric(out, "window.fallback_rate", fallback_rate, "fraction", "sim",
                     "lower", true);
  append_gate_metric(out, "slo.burn_rate", slo_burn_rate, "x", "sim", "lower", true);
  append_gate_metric(out, "window.shed_rate", shed_rate, "fraction", "sim", "lower",
                     true);
  append_gate_metric(out, "window.degraded_fraction", degraded_fraction, "fraction",
                     "sim", "lower", true);
  append_gate_metric(out, "window.samples", static_cast<double>(window_samples), "",
                     "info", "higher", true);
  append_gate_metric(out, "drift.score", drift_score, "fraction", "info", "lower", true);
  // Attribution fractions: waste stages (queue wait, backoff, host fallback)
  // gate as simulated-time regressions; the useful-work split is report-only.
  append_gate_metric(out, "attribution.queue_wait_fraction",
                     attribution_fractions[static_cast<std::size_t>(Stage::kQueueWait)],
                     "fraction", "sim", "lower", true);
  append_gate_metric(out, "attribution.batch_wait_fraction",
                     attribution_fractions[static_cast<std::size_t>(Stage::kBatchWait)],
                     "fraction", "sim", "lower", true);
  append_gate_metric(out, "attribution.backoff_fraction",
                     attribution_fractions[static_cast<std::size_t>(Stage::kBackoff)],
                     "fraction", "sim", "lower", true);
  append_gate_metric(out, "attribution.swap_fraction",
                     attribution_fractions[static_cast<std::size_t>(Stage::kSwap)],
                     "fraction", "info", "lower", true);
  append_gate_metric(out, "attribution.host_fraction",
                     attribution_fractions[static_cast<std::size_t>(Stage::kHost)],
                     "fraction", "sim", "lower", true);
  append_gate_metric(out, "attribution.transfer_fraction",
                     attribution_fractions[static_cast<std::size_t>(Stage::kTransfer)],
                     "fraction", "info", "lower", true);
  append_gate_metric(out, "attribution.device_fraction",
                     attribution_fractions[static_cast<std::size_t>(Stage::kDevice)],
                     "fraction", "info", "higher", true);
  append_gate_metric(out, "attribution.update_fraction",
                     attribution_fractions[static_cast<std::size_t>(Stage::kUpdate)],
                     "fraction", "info", "lower", true);
  double drift_fired = 0.0;
  for (const AlarmState& alarm : alarms) {
    if (alarm.name == "drift") {
      drift_fired = static_cast<double>(alarm.fired_total);
    }
  }
  append_gate_metric(out, "alarms.drift.fired_total", drift_fired, "", "info", "lower",
                     true);
  out += model_metrics_json;   // ",\"model.x\":{...}" entries (possibly empty)
  out += energy_metrics_json;  // ",\"energy.x\":{...}" entries (possibly empty)
  out += "}}";
  return out;
}

std::string MonitorSnapshot::to_prometheus() const {
  std::string out;
  prom_header(out, "hdc_serve_samples_total", "counter", "Samples served (lifetime)");
  prom_line(out, "hdc_serve_samples_total", "", static_cast<double>(samples_total));
  prom_header(out, "hdc_serve_errors_total", "counter",
              "Prequential misclassifications (lifetime)");
  prom_line(out, "hdc_serve_errors_total", "", static_cast<double>(errors_total));
  prom_header(out, "hdc_serve_lifetime_accuracy", "gauge", "Lifetime accuracy");
  prom_line(out, "hdc_serve_lifetime_accuracy", "", lifetime_accuracy);

  prom_header(out, "hdc_serve_window_samples", "gauge", "Samples in the sliding window");
  prom_line(out, "hdc_serve_window_samples", "", static_cast<double>(window_samples));
  prom_header(out, "hdc_serve_window_accuracy", "gauge", "Windowed prequential accuracy");
  prom_line(out, "hdc_serve_window_accuracy", "", windowed_accuracy);
  prom_header(out, "hdc_serve_window_error_rate", "gauge", "Windowed error rate");
  prom_line(out, "hdc_serve_window_error_rate", "", windowed_error_rate);
  prom_header(out, "hdc_serve_throughput_sps", "gauge",
              "Windowed throughput (samples per simulated second)");
  prom_line(out, "hdc_serve_throughput_sps", "", throughput_sps);

  prom_header(out, "hdc_serve_latency_seconds", "gauge",
              "Windowed latency quantiles (simulated seconds)");
  prom_line(out, "hdc_serve_latency_seconds", "quantile=\"0.5\"", latency_p50_s);
  prom_line(out, "hdc_serve_latency_seconds", "quantile=\"0.95\"", latency_p95_s);
  prom_line(out, "hdc_serve_latency_seconds", "quantile=\"0.99\"", latency_p99_s);
  prom_header(out, "hdc_serve_latency_mean_seconds", "gauge",
              "Windowed mean latency (simulated seconds)");
  prom_line(out, "hdc_serve_latency_mean_seconds", "", latency_mean_s);

  prom_header(out, "hdc_serve_margin", "gauge", "Windowed mean prediction margin");
  prom_line(out, "hdc_serve_margin", "", margin_mean);
  prom_header(out, "hdc_serve_slo_burn_rate", "gauge", "Latency SLO burn rate");
  prom_line(out, "hdc_serve_slo_burn_rate", "", slo_burn_rate);
  prom_header(out, "hdc_serve_drift_score", "gauge", "Margin-collapse drift score");
  prom_line(out, "hdc_serve_drift_score", "", drift_score);
  prom_header(out, "hdc_serve_fallback_rate", "gauge",
              "Windowed CPU-fallback sample fraction");
  prom_line(out, "hdc_serve_fallback_rate", "", fallback_rate);
  prom_header(out, "hdc_serve_retry_rate", "gauge",
              "Windowed device retries per transported sample");
  prom_line(out, "hdc_serve_retry_rate", "", retry_rate);
  prom_header(out, "hdc_serve_shed_rate", "gauge",
              "Windowed fraction of offered samples shed or expired");
  prom_line(out, "hdc_serve_shed_rate", "", shed_rate);
  prom_header(out, "hdc_serve_degraded_fraction", "gauge",
              "Windowed fraction of served samples on a degraded ladder tier");
  prom_line(out, "hdc_serve_degraded_fraction", "", degraded_fraction);
  prom_header(out, "hdc_serve_shed_samples_total", "counter",
              "Samples shed by admission control (lifetime)");
  prom_line(out, "hdc_serve_shed_samples_total", "", static_cast<double>(shed_total));
  prom_header(out, "hdc_serve_expired_samples_total", "counter",
              "Samples expired on their deadline (lifetime)");
  prom_line(out, "hdc_serve_expired_samples_total", "",
            static_cast<double>(expired_total));
  prom_header(out, "hdc_serve_degraded_samples_total", "counter",
              "Samples served on a degraded ladder tier (lifetime)");
  prom_line(out, "hdc_serve_degraded_samples_total", "",
            static_cast<double>(degraded_total));
  prom_header(out, "hdc_serve_quarantined", "gauge",
              "1 while the device is quarantined");
  prom_line(out, "hdc_serve_quarantined", "", quarantined ? 1.0 : 0.0);
  prom_header(out, "hdc_serve_suppressed_alarms_total", "counter",
              "Alarm fire edges suppressed during quarantine (lifetime)");
  prom_line(out, "hdc_serve_suppressed_alarms_total", "",
            static_cast<double>(suppressed_alarms_total));

  prom_header(out, "hdc_serve_attribution_fraction", "gauge",
              "Windowed latency attribution fraction per stage");
  for (std::size_t i = 0; i < kNumStages; ++i) {
    char labels[64];
    std::snprintf(labels, sizeof(labels), "stage=\"%s\"",
                  stage_name(static_cast<Stage>(i)));
    prom_line(out, "hdc_serve_attribution_fraction", labels, attribution_fractions[i]);
  }
  prom_header(out, "hdc_serve_exemplar_request_id", "gauge",
              "Request id of the slowest sample in the window (-1 = empty)");
  prom_line(out, "hdc_serve_exemplar_request_id", "",
            static_cast<double>(exemplar_request_id));

  prom_header(out, "hdc_serve_class_predictions", "gauge",
              "Windowed predictions per class");
  for (std::size_t c = 0; c < class_counts.size(); ++c) {
    char labels[48];
    std::snprintf(labels, sizeof(labels), "class=\"%zu\"", c);
    prom_line(out, "hdc_serve_class_predictions", labels,
              static_cast<double>(class_counts[c]));
  }

  AlarmBank::append_prometheus(out, alarms, "hdc_serve", "");
  out += model_prometheus;   // hdc_model_* families (possibly empty)
  out += energy_prometheus;  // hdc_energy_* families (possibly empty)
  return out;
}

}  // namespace hdc::obs

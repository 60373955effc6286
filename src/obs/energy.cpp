#include "obs/energy.hpp"

#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace hdc::obs {

const char* component_name(EnergyComponent component) noexcept {
  switch (component) {
    case EnergyComponent::kMxuActive: return "mxu_active";
    case EnergyComponent::kUsbLink: return "usb_link";
    case EnergyComponent::kSramSwap: return "sram_swap";
    case EnergyComponent::kHostBusy: return "host_busy";
    case EnergyComponent::kRetryWaste: return "retry_waste";
    case EnergyComponent::kIdle: return "idle";
  }
  return "unknown";
}

EnergyComponent stage_component(Stage stage) noexcept {
  switch (stage) {
    case Stage::kDevice: return EnergyComponent::kMxuActive;
    case Stage::kTransfer: return EnergyComponent::kUsbLink;
    case Stage::kSwap: return EnergyComponent::kSramSwap;
    case Stage::kDeviceHost:
    case Stage::kHost:
    case Stage::kUpdate: return EnergyComponent::kHostBusy;
    case Stage::kBackoff: return EnergyComponent::kRetryWaste;
    case Stage::kQueueWait:
    case Stage::kBatchWait:
    case Stage::kOther: return EnergyComponent::kIdle;
  }
  return EnergyComponent::kIdle;
}

RequestEnergy attribute_energy(const RequestAttribution& attribution,
                               const PowerProfile& profile) {
  RequestEnergy energy;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const Stage stage = static_cast<Stage>(i);
    const double joules =
        profile.stage_watts(stage) * attribution.stages[i].to_seconds();
    energy.stage_pj[i] = static_cast<std::int64_t>(std::llround(joules * 1e12));
  }
  return energy;
}

void EnergyConfig::validate() const {
  profile.validate();
  window.validate();
  HDC_CHECK(ewma_tau_s >= 0.0, "energy EWMA time constant must be >= 0");
}

EnergyAccountant::EnergyAccountant(EnergyConfig config)
    : config_(config),
      window_(config.window, WindowSlot{}),
      watts_ewma_(config.ewma_tau_s > 0.0 ? config.ewma_tau_s
                                          : config.window.span.to_seconds() / 4.0),
      bank_({ThresholdAlarm("energy_budget", config.alarm_joules_per_inference)},
            /*with_details=*/true) {
  config_.validate();
}

RequestEnergy EnergyAccountant::record(const Request& request) {
  const RequestEnergy energy = attribute_energy(request.attribution, config_.profile);
  const std::int64_t total = energy.total_pj();

  total_pj_ += total;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    stage_pj_[i] += energy.stage_pj[i];
  }
  switch (request.outcome) {
    case RequestOutcome::kServed: served_pj_ += total; break;
    case RequestOutcome::kShed: shed_pj_ += total; break;
    case RequestOutcome::kExpired: expired_pj_ += total; break;
  }
  if (request.degraded && request.outcome == RequestOutcome::kServed) {
    degraded_pj_ += total;
  }
  ++requests_total_;
  samples_served_ += request.outcome == RequestOutcome::kServed ? request.samples : 0;

  WindowSlot& slot = window_.at(request.at);
  slot.pj += total;
  if (request.outcome == RequestOutcome::kServed) {
    slot.samples += request.samples;
  }

  const double elapsed_s = request.attribution.total().to_seconds();
  if (elapsed_s > 0.0) {
    watts_ewma_.observe(request.at,
                        static_cast<double>(total) * 1e-12 / elapsed_s);
  }

  if (config_.alarm_joules_per_inference > 0.0) {
    std::int64_t window_pj = 0;
    std::uint64_t window_samples = 0;
    for (const WindowSlot& s : window_.slots()) {
      window_pj += s.pj;
      window_samples += s.samples;
    }
    if (window_samples >= config_.min_samples) {
      const double jpi = static_cast<double>(window_pj) * 1e-12 /
                         static_cast<double>(window_samples);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "jpi=%.6g", jpi);
      bank_.detail(0) = buf;
      bank_.update(0, request.at, jpi, request.request_id);
    }
  }
  return energy;
}

void EnergyAccountant::set_quarantined(bool quarantined, SimDuration at) {
  bank_.set_quarantined(quarantined, at);
}

EnergySnapshot EnergyAccountant::snapshot(SimDuration now) {
  EnergySnapshot snap;
  snap.at = now;
  snap.profile = config_.profile;

  snap.total_pj = total_pj_;
  snap.stage_pj = stage_pj_;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const std::size_t c =
        static_cast<std::size_t>(stage_component(static_cast<Stage>(i)));
    snap.component_pj[c] += stage_pj_[i];
  }
  snap.served_pj = served_pj_;
  snap.shed_pj = shed_pj_;
  snap.expired_pj = expired_pj_;
  snap.degraded_pj = degraded_pj_;
  snap.requests_total = requests_total_;
  snap.samples_served = samples_served_;

  window_.advance_to(now);
  for (const WindowSlot& slot : window_.slots()) {
    snap.window_pj += slot.pj;
    snap.window_samples += slot.samples;
  }
  snap.window_joules_per_inference =
      snap.window_samples == 0
          ? 0.0
          : static_cast<double>(snap.window_pj) * 1e-12 /
                static_cast<double>(snap.window_samples);

  snap.watts_ewma = watts_ewma_.value();

  snap.alarms = bank_.states();
  snap.quarantined = bank_.quarantined();
  snap.suppressed_alarms_total = bank_.suppressed_total();
  return snap;
}

// -------------------------------------- checkpoint round-trip ---------------

namespace {

template <typename Config, typename Io>
void energy_config_fields(Config& config, Io& io) {
  io.pod(config.profile.idle_watts);
  io.pod(config.profile.mxu_active_watts);
  io.pod(config.profile.link_watts);
  io.pod(config.profile.sram_write_watts);
  io.pod(config.profile.host_busy_watts);
  io.pod(config.profile.backoff_watts);
  io.duration(config.window.span);
  io.pod(config.window.buckets);
  io.pod(config.alarm_joules_per_inference);
  io.pod(config.min_samples);
  io.pod(config.ewma_tau_s);
}

}  // namespace

template <typename Self, typename Io>
void EnergyAccountant::state_fields(Self& self, Io& io) {
  detail::ring_fields(self.window_, io, [&](auto& slot) {
    io.pod(slot.pj);
    io.pod(slot.samples);
  });
  io.pod(self.total_pj_);
  io.raw(self.stage_pj_);
  io.pod(self.served_pj_);
  io.pod(self.shed_pj_);
  io.pod(self.expired_pj_);
  io.pod(self.degraded_pj_);
  io.pod(self.requests_total_);
  io.pod(self.samples_served_);

  io.object(self.watts_ewma_);
  io.object(self.bank_);
}

void EnergyAccountant::serialize(ByteWriter& writer) const {
  energy_config_fields(config_, writer);
  state_fields(*this, writer);
}

EnergyAccountant EnergyAccountant::deserialize(ByteReader& reader) {
  EnergyConfig config;
  energy_config_fields(config, reader);
  // Bound the window by the bytes left before the constructor sizes it.
  reader.fits(config.window.buckets, 2 * 8);
  EnergyAccountant accountant(config);
  state_fields(accountant, reader);
  return accountant;
}

// --------------------------------------------- snapshot rendering -----------

using detail::append_field;
using detail::append_gate_metric;
using detail::prom_header;
using detail::prom_line;

namespace {

/// Picojoule ledgers render as exact integers (no float formatting) so
/// `hdc energy inspect --assert-conservation` re-verifies sums without
/// parsing slop; |pj| stays far below 2^53, so a double-based JSON parser
/// recovers the integer exactly.
void append_pj(std::string& out, const char* key, std::int64_t pj, bool leading_comma) {
  if (leading_comma) {
    out.push_back(',');
  }
  detail::append_json_string(out, key);
  out.push_back(':');
  out += std::to_string(pj);
}

}  // namespace

std::string EnergySnapshot::to_json() const {
  std::string out;
  out += "{\"schema\":\"hdc-energy-v1\"";
  append_pj(out, "total_pj", total_pj, true);
  append_field(out, "total_joules", total_joules(), true);

  out += ",\"profile\":{";
  append_field(out, "idle_watts", profile.idle_watts, false);
  append_field(out, "mxu_active_watts", profile.mxu_active_watts, true);
  append_field(out, "link_watts", profile.link_watts, true);
  append_field(out, "sram_write_watts", profile.sram_write_watts, true);
  append_field(out, "host_busy_watts", profile.host_busy_watts, true);
  append_field(out, "backoff_watts", profile.backoff_watts, true);
  out += "}";

  out += ",\"stages\":{";
  for (std::size_t i = 0; i < kNumStages; ++i) {
    append_pj(out, stage_name(static_cast<Stage>(i)), stage_pj[i], i > 0);
  }
  out += "}";

  out += ",\"components\":{";
  for (std::size_t i = 0; i < kNumEnergyComponents; ++i) {
    append_pj(out, component_name(static_cast<EnergyComponent>(i)), component_pj[i],
              i > 0);
  }
  out += "}";

  out += ",\"outcomes\":{";
  append_pj(out, "served_pj", served_pj, false);
  append_pj(out, "shed_pj", shed_pj, true);
  append_pj(out, "expired_pj", expired_pj, true);
  append_pj(out, "degraded_pj", degraded_pj, true);
  out += "}";

  out += ",\"requests\":" + std::to_string(requests_total);
  out += ",\"samples_served\":" + std::to_string(samples_served);

  out += ",\"window\":{";
  append_pj(out, "pj", window_pj, false);
  out += ",\"samples\":" + std::to_string(window_samples);
  append_field(out, "joules_per_inference", window_joules_per_inference, true);
  out += "}";

  append_field(out, "watts_ewma", watts_ewma, true);

  AlarmBank::append_json(out, alarms);

  out += ",\"quarantined\":";
  out += quarantined ? "true" : "false";
  out += ",\"suppressed_alarms_total\":" + std::to_string(suppressed_alarms_total);
  out += "}";
  return out;
}

std::string EnergySnapshot::metrics_json() const {
  std::string out;
  append_gate_metric(out, "energy.joules_per_inference", window_joules_per_inference,
                     "J", "sim", "lower");
  append_gate_metric(out, "energy.total_joules", total_joules(), "J", "info", "lower");
  append_gate_metric(out, "energy.watts_ewma", watts_ewma, "W", "info", "lower");
  append_gate_metric(out, "energy.alarms.energy_budget.fired_total",
                     static_cast<double>(alarms.front().fired_total), "", "info",
                     "lower");
  return out;
}

std::string EnergySnapshot::to_prometheus() const {
  std::string out;
  prom_header(out, "hdc_energy_joules_total", "counter",
              "Total attributed energy (lifetime, simulated)");
  prom_line(out, "hdc_energy_joules_total", "", total_joules());
  prom_header(out, "hdc_energy_component_joules_total", "counter",
              "Attributed energy per hardware component (lifetime, simulated)");
  for (std::size_t i = 0; i < kNumEnergyComponents; ++i) {
    prom_line(out, "hdc_energy_component_joules_total",
              "component=\"" +
                  std::string(component_name(static_cast<EnergyComponent>(i))) + "\"",
              static_cast<double>(component_pj[i]) * 1e-12);
  }
  prom_header(out, "hdc_energy_stage_joules_total", "counter",
              "Attributed energy per request stage (lifetime, simulated)");
  for (std::size_t i = 0; i < kNumStages; ++i) {
    prom_line(out, "hdc_energy_stage_joules_total",
              "stage=\"" + std::string(stage_name(static_cast<Stage>(i))) + "\"",
              static_cast<double>(stage_pj[i]) * 1e-12);
  }
  prom_header(out, "hdc_energy_outcome_joules_total", "counter",
              "Attributed energy per request outcome (lifetime, simulated)");
  prom_line(out, "hdc_energy_outcome_joules_total", "outcome=\"served\"",
            static_cast<double>(served_pj) * 1e-12);
  prom_line(out, "hdc_energy_outcome_joules_total", "outcome=\"shed\"",
            static_cast<double>(shed_pj) * 1e-12);
  prom_line(out, "hdc_energy_outcome_joules_total", "outcome=\"expired\"",
            static_cast<double>(expired_pj) * 1e-12);
  prom_header(out, "hdc_energy_joules_per_inference", "gauge",
              "Windowed joules per served inference (all-outcome numerator)");
  prom_line(out, "hdc_energy_joules_per_inference", "", window_joules_per_inference);
  prom_header(out, "hdc_energy_watts", "gauge",
              "EWMA of per-request average power draw");
  prom_line(out, "hdc_energy_watts", "", watts_ewma);
  AlarmBank::append_prometheus(out, alarms, "hdc_energy", "energy ");
  return out;
}

}  // namespace hdc::obs

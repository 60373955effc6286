#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/byte_io.hpp"
#include "common/error.hpp"
#include "common/sim_time.hpp"
#include "obs/monitor.hpp"
#include "obs/request_trace.hpp"

namespace hdc::obs {

/// Whole-edge-node power draw per attribution stage, in watts. The profile
/// prices *simulated* time: energy is derived purely from the deterministic
/// `RequestAttribution` stage durations, so for a fixed config/seed every
/// joule figure reproduces bit-exactly across hosts.
///
/// The defaults describe the paper's Coral-class edge node (a ~15 W host CPU
/// profile driving a USB accelerator that adds ~2 W when active, with the
/// host able to drop to ~30% of its budget while a request merely waits):
/// they equal `from_components(15.0, 2.0, 0.3)`, which a test pins.
struct PowerProfile {
  double idle_watts = 4.5;        ///< queue/batch waits and untracked time
  double mxu_active_watts = 6.5;  ///< systolic-array execution (kDevice)
  double link_watts = 6.5;        ///< USB bus transfers (kTransfer)
  double sram_write_watts = 6.5;  ///< on-chip parameter writes (kSwap)
  double host_busy_watts = 15.0;  ///< host thread-pool busy (kDeviceHost/kHost/kUpdate)
  double backoff_watts = 6.5;     ///< retry/backoff waste (kBackoff)

  /// Derives a profile from the coarse `platform::EnergyModel` vocabulary:
  /// the host idles at `host_watts * host_idle_fraction`, accelerator-active
  /// stages add `tpu_active_watts` on top of that idle floor, and host-busy
  /// stages draw the full `host_watts`. Keeps the live telemetry reconcilable
  /// with the paper-facing `codesign_training` / `codesign_inference` costs.
  static constexpr PowerProfile from_components(double host_watts,
                                                double tpu_active_watts,
                                                double host_idle_fraction) {
    PowerProfile p;
    p.idle_watts = host_watts * host_idle_fraction;
    p.mxu_active_watts = p.idle_watts + tpu_active_watts;
    p.link_watts = p.mxu_active_watts;
    p.sram_write_watts = p.mxu_active_watts;
    p.host_busy_watts = host_watts;
    p.backoff_watts = p.mxu_active_watts;
    return p;
  }

  void validate() const {
    HDC_CHECK(idle_watts >= 0.0, "PowerProfile: idle_watts must be >= 0");
    HDC_CHECK(mxu_active_watts > 0.0, "PowerProfile: mxu_active_watts must be > 0");
    HDC_CHECK(link_watts > 0.0, "PowerProfile: link_watts must be > 0");
    HDC_CHECK(sram_write_watts > 0.0, "PowerProfile: sram_write_watts must be > 0");
    HDC_CHECK(host_busy_watts > 0.0, "PowerProfile: host_busy_watts must be > 0");
    HDC_CHECK(backoff_watts >= 0.0, "PowerProfile: backoff_watts must be >= 0");
  }

  /// Watts drawn while a request sits in `stage`.
  constexpr double stage_watts(Stage stage) const {
    switch (stage) {
      case Stage::kQueueWait:
      case Stage::kBatchWait:
      case Stage::kOther: return idle_watts;
      case Stage::kBackoff: return backoff_watts;
      case Stage::kSwap: return sram_write_watts;
      case Stage::kTransfer: return link_watts;
      case Stage::kDevice: return mxu_active_watts;
      case Stage::kDeviceHost:
      case Stage::kHost:
      case Stage::kUpdate: return host_busy_watts;
    }
    return idle_watts;
  }
};

/// Component rollup of the ten attribution stages: a partition, so component
/// joules sum *exactly* to total joules (same integer-picojoule atoms,
/// regrouped).
enum class EnergyComponent : std::uint8_t {
  kMxuActive = 0,  ///< kDevice
  kUsbLink,        ///< kTransfer
  kSramSwap,       ///< kSwap
  kHostBusy,       ///< kDeviceHost + kHost + kUpdate
  kRetryWaste,     ///< kBackoff
  kIdle,           ///< kQueueWait + kBatchWait + kOther
};
inline constexpr std::size_t kNumEnergyComponents = 6;

const char* component_name(EnergyComponent component) noexcept;
EnergyComponent stage_component(Stage stage) noexcept;

/// Per-request energy atoms. All conservation-bearing ledgers are integer
/// picojoules: `stage_pj[i] = llround(stage_watts * stage_seconds * 1e12)`.
/// Integer addition is exact under any regrouping, so component sums, outcome
/// sums and tenant-to-fleet sums all equal the total *bit-exactly* — no
/// floating-point reassociation caveats. Totals stay far below 2^53 pJ
/// (~9 kJ of simulated work), so the derived double joules (and JSON
/// round-trips through doubles) are exact too.
struct RequestEnergy {
  std::array<std::int64_t, kNumStages> stage_pj{};

  std::int64_t total_pj() const noexcept {
    std::int64_t sum = 0;
    for (const std::int64_t pj : stage_pj) sum += pj;
    return sum;
  }
  double total_joules() const noexcept { return static_cast<double>(total_pj()) * 1e-12; }
};

/// Prices one request's stage attribution under `profile`. Deterministic:
/// same attribution + profile => identical integer atoms, which is what lets
/// independent ledgers (per-shard, per-tenant, fleet) recompute a request's
/// energy and still HDC_CHECK-sum exactly.
RequestEnergy attribute_energy(const RequestAttribution& attribution,
                               const PowerProfile& profile);

/// Shape of the energy accountant. Like `MonitorConfig`, the serving layer
/// fills `window` from the session it attaches to; the profile and alarm
/// threshold are user tunables.
struct EnergyConfig {
  PowerProfile profile;
  WindowConfig window;  ///< joules-per-inference window (matches the monitor's)
  /// "energy_budget" fires while windowed joules-per-served-inference exceeds
  /// this; <= 0 disables the alarm.
  double alarm_joules_per_inference = 0.0;
  std::uint64_t min_samples = 32;  ///< served samples required before alarming
  /// Time constant of the watts EWMA; 0 derives window.span / 4.
  double ewma_tau_s = 0.0;

  void validate() const;
};

/// Point-in-time view of the energy accountant. Renders as the `energy`
/// object inside hdc-monitor-v1 snapshots (deterministic bytes), as
/// `energy.*` entries in the flat perfdiff gate map, and as `hdc_energy_*`
/// Prometheus families.
struct EnergySnapshot {
  SimDuration at;
  PowerProfile profile;

  // Lifetime conservation ledgers (pinned by `hdc energy inspect
  // --assert-conservation`): stage_pj and component_pj are partitions of
  // total_pj; served + shed + expired == total; degraded is an overlay on
  // served (degraded requests were served).
  std::int64_t total_pj = 0;
  std::array<std::int64_t, kNumStages> stage_pj{};
  std::array<std::int64_t, kNumEnergyComponents> component_pj{};
  std::int64_t served_pj = 0;
  std::int64_t shed_pj = 0;
  std::int64_t expired_pj = 0;
  std::int64_t degraded_pj = 0;

  std::uint64_t requests_total = 0;
  std::uint64_t samples_served = 0;

  // Windowed figure of merit. The numerator counts *all* outcomes (shed and
  // expired requests burned real joules — waste is part of the cost), the
  // denominator only served samples.
  std::int64_t window_pj = 0;
  std::uint64_t window_samples = 0;
  double window_joules_per_inference = 0.0;

  double watts_ewma = 0.0;

  std::vector<AlarmState> alarms;  ///< "energy_budget", detail "jpi=..."
  bool quarantined = false;
  std::uint64_t suppressed_alarms_total = 0;

  double total_joules() const noexcept { return static_cast<double>(total_pj) * 1e-12; }

  /// The `"energy"` JSON object (deterministic bytes, schema hdc-energy-v1).
  /// Picojoule ledgers render as exact integers so downstream conservation
  /// checks re-verify them without float parsing slop.
  std::string to_json() const;
  /// `,"energy.x":{...}` gate entries for the flat hdc-bench-v1 metrics map.
  std::string metrics_json() const;
  /// `hdc_energy_*` Prometheus families.
  std::string to_prometheus() const;
};

/// Deterministic, simulated-time energy accountant: prices each request's
/// ten-stage attribution under a `PowerProfile` into integer-picojoule atoms,
/// folds them into lifetime stage/component/outcome ledgers, a windowed
/// joules-per-inference figure and a watts EWMA, and raises an edge-triggered
/// "energy_budget" alarm through an `AlarmBank` like the serving monitor's
/// (same edge rule, quarantine gate and log grammar). Strictly observational,
/// like `ServingMonitor`: it receives copies of values the serving path
/// already computed and never feeds anything back.
class EnergyAccountant {
 public:
  explicit EnergyAccountant(EnergyConfig config);

  const EnergyConfig& config() const noexcept { return config_; }

  /// One finished request on any outcome path. `samples > 0` only for served
  /// requests; `degraded` marks a served-degraded request. Returns the priced
  /// atoms so callers can fold the *identical* integers into their own
  /// ledgers (per-shard, per-tenant) and keep exact sum equality with this
  /// accountant.
  struct Request {
    SimDuration at;
    RequestAttribution attribution;
    RequestOutcome outcome = RequestOutcome::kServed;
    std::uint64_t samples = 0;
    bool degraded = false;
    std::int64_t request_id = -1;
  };
  RequestEnergy record(const Request& request);

  /// Mirrors `ServingMonitor::set_quarantined` (suppress-and-summarize).
  void set_quarantined(bool quarantined, SimDuration at);

  std::int64_t total_pj() const noexcept { return total_pj_; }
  std::uint64_t requests_total() const noexcept { return requests_total_; }
  const AlarmBank& alarms() const noexcept { return bank_; }

  EnergySnapshot snapshot(SimDuration now);

  /// Exact-state round-trip for the serve checkpoint (doubles bit-exact):
  /// a restored instance's subsequent snapshots and alarm edges are
  /// byte-identical to one that was never serialized.
  void serialize(ByteWriter& writer) const;
  static EnergyAccountant deserialize(ByteReader& reader);

 private:
  template <typename Self, typename Io>
  static void state_fields(Self& self, Io& io);

  struct WindowSlot {
    std::int64_t pj = 0;          ///< all outcomes — waste counts
    std::uint64_t samples = 0;    ///< served samples only
  };

  EnergyConfig config_;

  detail::BucketRing<WindowSlot> window_;

  std::int64_t total_pj_ = 0;
  std::array<std::int64_t, kNumStages> stage_pj_{};
  std::int64_t served_pj_ = 0;
  std::int64_t shed_pj_ = 0;
  std::int64_t expired_pj_ = 0;
  std::int64_t degraded_pj_ = 0;
  std::uint64_t requests_total_ = 0;
  std::uint64_t samples_served_ = 0;

  Ewma watts_ewma_;
  AlarmBank bank_;  ///< the one "energy_budget" alarm
};

}  // namespace hdc::obs

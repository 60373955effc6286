#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/byte_io.hpp"
#include "common/sim_time.hpp"

namespace hdc::runtime {

/// Where a served batch runs on the degradation ladder. Tier 0 is the full
/// TPU model; tier 1 is the reduced-dimension (LDC-style) model on the same
/// accelerator — HDC tolerates drastic dimension reduction with small
/// accuracy loss, which is what makes a cheaper *model* a principled
/// degraded mode; tier 2 is the host CPU scalar path (no device at all).
enum class ServeTier : std::uint8_t { kFull = 0, kReduced = 1, kHost = 2 };

const char* tier_name(ServeTier tier);

/// Lifecycle of a (simulated) accelerator as seen by the serving loop:
///
///   healthy -> degraded -> quarantined -> probing -> healthy
///
/// replacing the resilient executor's one-way circuit breaker with half-open
/// probing, so a device that recovers (e.g. a detach window ends) returns to
/// service instead of staying benched forever.
enum class DeviceHealth : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kQuarantined = 2,
  kProbing = 3,
};

const char* health_name(DeviceHealth state);

/// Thresholds of the health state machine. All counters are *consecutive*
/// batch outcomes, so the machine is a deterministic function of the batch
/// fault sequence (never of wall-clock or monitor thresholds — health feeds
/// the monitor, not the other way around, preserving result-invariance).
struct HealthConfig {
  /// Consecutive faulty batches before a healthy device is degraded.
  std::uint32_t degrade_after_faults = 2;
  /// Consecutive faulty batches before the device is quarantined outright.
  /// A circuit-breaker trip quarantines immediately regardless of count.
  std::uint32_t quarantine_after_faults = 4;
  /// Consecutive clean batches for a degraded device to return to healthy.
  std::uint32_t recover_after_successes = 4;
  /// Simulated time a quarantined device sits out before a half-open probe.
  SimDuration probe_interval = SimDuration::millis(2);
  /// Consecutive clean probe batches to re-admit the device as healthy.
  std::uint32_t probe_successes = 2;

  void validate() const;
};

/// How the bounded admission queue sheds load when it is full.
enum class ShedPolicy : std::uint8_t {
  kRejectNewest = 0,  ///< arriving request is refused (queue keeps its order)
  kDropOldest = 1,    ///< oldest queued request is dropped to admit the new one
};

const char* shed_policy_name(ShedPolicy policy);
/// Parses "reject-newest" / "drop-oldest" (the CLI `--shed-policy` values).
ShedPolicy parse_shed_policy(const std::string& name);

/// Overload protection of the serve path: a bounded queue of pending chunks
/// with deterministic, simulated-time-priced load shedding and per-request
/// deadlines.
struct AdmissionConfig {
  /// Offered load as a multiple of the tier-0 (full TPU model) service rate.
  /// 0 = closed loop: each chunk arrives exactly when the previous one
  /// finished, so no queue ever builds (the legacy serve behaviour).
  double offered_load = 0.0;
  /// Pending chunks the queue holds before shedding kicks in.
  std::uint32_t queue_capacity = 4;
  ShedPolicy policy = ShedPolicy::kRejectNewest;
  /// Per-request completion budget, measured from a chunk's arrival. A chunk
  /// whose queue wait already exceeds the budget is expired unserved; the
  /// remaining budget propagates into the executor as the per-sample retry
  /// watchdog. Zero = no deadline.
  SimDuration deadline;
  /// Queue depth at which a *healthy* device pre-emptively serves the
  /// reduced-dimension tier to drain backlog faster.
  std::uint32_t degrade_backlog = 2;

  void validate() const;
};

/// Per-device health state machine driven by the resilient executor's fault
/// counters. Purely deterministic in simulated time; serializes into serve
/// checkpoints so a detach-and-restart resumes the exact same lifecycle.
class DeviceHealthTracker {
 public:
  explicit DeviceHealthTracker(HealthConfig config = {});

  const HealthConfig& config() const noexcept { return config_; }
  DeviceHealth state() const noexcept { return state_; }
  /// When the current state was entered (simulated time).
  SimDuration entered_at() const noexcept { return entered_at_; }

  struct Transition {
    DeviceHealth from = DeviceHealth::kHealthy;
    DeviceHealth to = DeviceHealth::kHealthy;
    SimDuration at;
  };
  const std::vector<Transition>& transitions() const noexcept { return transitions_; }
  std::uint64_t quarantines() const noexcept { return quarantines_; }
  std::uint64_t probes_attempted() const noexcept { return probes_; }

  /// Picks the ladder tier for a batch starting at `now` with
  /// `backlog_chunks` requests still queued behind it. A quarantined device
  /// whose probe interval elapsed transitions to probing here (the half-open
  /// edge); otherwise quarantine routes the batch to the host tier.
  ServeTier admit_tier(SimDuration now, std::size_t backlog_chunks,
                       std::uint32_t degrade_backlog);

  /// Feeds one device-batch outcome. `faulty` = the batch saw any retry,
  /// fallback sample, or fault; `circuit_opened` quarantines immediately.
  /// No-op while quarantined (host-served batches never touch the device).
  void on_batch(SimDuration at, bool faulty, bool circuit_opened);

  /// Checkpoint field list: the state machine and its transition log. The
  /// config is not stored: the owner constructs the tracker from its own.
  template <typename Self, typename Io>
  static void fields(Self& self, Io& io) {
    io.enumeration(self.state_, DeviceHealth::kProbing);
    io.duration(self.entered_at_);
    io.pod(self.consecutive_faults_);
    io.pod(self.consecutive_successes_);
    io.pod(self.probe_clean_);
    io.pod(self.quarantines_);
    io.pod(self.probes_);
    io.seq(self.transitions_, std::uint64_t{1} << 20, 2 + 8, [&](auto& t) {
      io.enumeration(t.from, DeviceHealth::kProbing);
      io.enumeration(t.to, DeviceHealth::kProbing);
      io.duration(t.at);
    });
  }
  void serialize(ByteWriter& writer) const { fields(*this, writer); }
  static DeviceHealthTracker deserialize(ByteReader& reader, const HealthConfig& config) {
    DeviceHealthTracker tracker(config);
    fields(tracker, reader);
    return tracker;
  }

 private:
  void enter(DeviceHealth to, SimDuration at);

  HealthConfig config_;
  DeviceHealth state_ = DeviceHealth::kHealthy;
  SimDuration entered_at_;
  std::uint32_t consecutive_faults_ = 0;
  std::uint32_t consecutive_successes_ = 0;
  std::uint32_t probe_clean_ = 0;
  std::uint64_t quarantines_ = 0;
  std::uint64_t probes_ = 0;
  std::vector<Transition> transitions_;
};

}  // namespace hdc::runtime

#include "runtime/health.hpp"

#include "common/error.hpp"

namespace hdc::runtime {

const char* tier_name(ServeTier tier) {
  switch (tier) {
    case ServeTier::kFull:
      return "full";
    case ServeTier::kReduced:
      return "reduced";
    case ServeTier::kHost:
      return "host";
  }
  return "unknown";
}

const char* health_name(DeviceHealth state) {
  switch (state) {
    case DeviceHealth::kHealthy:
      return "healthy";
    case DeviceHealth::kDegraded:
      return "degraded";
    case DeviceHealth::kQuarantined:
      return "quarantined";
    case DeviceHealth::kProbing:
      return "probing";
  }
  return "unknown";
}

void HealthConfig::validate() const {
  HDC_CHECK(degrade_after_faults >= 1, "degrade threshold must be positive");
  HDC_CHECK(quarantine_after_faults >= degrade_after_faults,
            "quarantine threshold must be at least the degrade threshold");
  HDC_CHECK(recover_after_successes >= 1, "recovery threshold must be positive");
  HDC_CHECK(probe_interval > SimDuration(),
            "probe interval must be positive (a quarantined device must "
            "eventually be probed, or it is quarantined forever)");
  HDC_CHECK(probe_successes >= 1, "probe success threshold must be positive");
}

const char* shed_policy_name(ShedPolicy policy) {
  return policy == ShedPolicy::kDropOldest ? "drop-oldest" : "reject-newest";
}

ShedPolicy parse_shed_policy(const std::string& name) {
  if (name == "reject-newest") {
    return ShedPolicy::kRejectNewest;
  }
  if (name == "drop-oldest") {
    return ShedPolicy::kDropOldest;
  }
  HDC_CHECK(false, "unknown shed policy '" + name +
                       "' (expected 'reject-newest' or 'drop-oldest')");
  return ShedPolicy::kRejectNewest;
}

void AdmissionConfig::validate() const {
  HDC_CHECK(offered_load >= 0.0,
            "offered load must be non-negative (0 = closed loop)");
  HDC_CHECK(queue_capacity >= 1,
            "admission queue capacity must be at least one chunk");
  HDC_CHECK(deadline >= SimDuration(),
            "request deadline must be non-negative (0 disables deadlines)");
  HDC_CHECK(degrade_backlog >= 1,
            "degrade backlog threshold must be at least one chunk");
}

DeviceHealthTracker::DeviceHealthTracker(HealthConfig config) : config_(config) {
  config_.validate();
}

void DeviceHealthTracker::enter(DeviceHealth to, SimDuration at) {
  if (to == state_) {
    return;
  }
  transitions_.push_back(Transition{state_, to, at});
  state_ = to;
  entered_at_ = at;
  if (to == DeviceHealth::kQuarantined) {
    ++quarantines_;
    probe_clean_ = 0;
  }
  consecutive_faults_ = 0;
  consecutive_successes_ = 0;
}

ServeTier DeviceHealthTracker::admit_tier(SimDuration now, std::size_t backlog_chunks,
                                          std::uint32_t degrade_backlog) {
  switch (state_) {
    case DeviceHealth::kHealthy:
      return backlog_chunks >= degrade_backlog ? ServeTier::kReduced : ServeTier::kFull;
    case DeviceHealth::kDegraded:
      return ServeTier::kReduced;
    case DeviceHealth::kProbing:
      return ServeTier::kReduced;
    case DeviceHealth::kQuarantined:
      if (now - entered_at_ >= config_.probe_interval) {
        // Half-open: one probe stream on the cheap tier; success re-admits,
        // any fault sends the device straight back to quarantine.
        enter(DeviceHealth::kProbing, now);
        probe_clean_ = 0;
        ++probes_;
        return ServeTier::kReduced;
      }
      return ServeTier::kHost;
  }
  return ServeTier::kHost;
}

void DeviceHealthTracker::on_batch(SimDuration at, bool faulty, bool circuit_opened) {
  if (state_ == DeviceHealth::kQuarantined) {
    return;  // nothing ran on the device
  }
  if (circuit_opened) {
    enter(DeviceHealth::kQuarantined, at);
    return;
  }
  if (faulty) {
    consecutive_successes_ = 0;
    ++consecutive_faults_;
    switch (state_) {
      case DeviceHealth::kHealthy:
        if (consecutive_faults_ >= config_.degrade_after_faults) {
          const std::uint32_t carried = consecutive_faults_;
          enter(DeviceHealth::kDegraded, at);
          consecutive_faults_ = carried;  // keep counting toward quarantine
        }
        break;
      case DeviceHealth::kDegraded:
        if (consecutive_faults_ >= config_.quarantine_after_faults) {
          enter(DeviceHealth::kQuarantined, at);
        }
        break;
      case DeviceHealth::kProbing:
        enter(DeviceHealth::kQuarantined, at);
        break;
      case DeviceHealth::kQuarantined:
        break;
    }
    return;
  }
  consecutive_faults_ = 0;
  switch (state_) {
    case DeviceHealth::kHealthy:
      break;
    case DeviceHealth::kDegraded:
      if (++consecutive_successes_ >= config_.recover_after_successes) {
        enter(DeviceHealth::kHealthy, at);
      }
      break;
    case DeviceHealth::kProbing:
      if (++probe_clean_ >= config_.probe_successes) {
        enter(DeviceHealth::kHealthy, at);
      }
      break;
    case DeviceHealth::kQuarantined:
      break;
  }
}

}  // namespace hdc::runtime

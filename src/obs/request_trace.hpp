#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/sim_time.hpp"

namespace hdc::obs {

/// Per-request causal tracing and latency attribution.
///
/// A *request* on the serve path is one offered chunk; its id is the offered
/// chunk index, which is stable across `--checkpoint`/`--resume`. Every
/// request carries a chain of stage spans (queue wait, each retry attempt
/// with its backoff, transfer, MXU compute, host fallback, online update)
/// recorded purely from the simulated-time cost model — tracing never feeds
/// back into timings, so attaching it cannot change results.
///
/// The attribution invariant: grouping the span durations by stage and
/// assigning the residual to `kOther` makes the stage durations sum *exactly*
/// (bitwise, in simulated seconds) to the request's end-to-end latency. The
/// spans themselves cover the serviced interval gap-free by construction, so
/// the residual is at most a few ULPs of accumulated rounding.

/// Stage taxonomy for attribution. Order is load-bearing: `RequestAttribution`
/// sums stages in index order with `kOther` last, which is what makes the
/// sum-to-latency invariant exact (see `RequestTrace::finalize`).
enum class Stage : std::uint8_t {
  kQueueWait = 0,   ///< admission queue wait before service starts
  kBatchWait,       ///< router hold while a micro-batch coalesces on a device
  kBackoff,         ///< retry backoff charged between device attempts
  kSwap,            ///< model swap: weight upload to make a tenant resident
  kTransfer,        ///< USB transfer + weight streaming/upload
  kDevice,          ///< MXU compute on the simulated TPU
  kDeviceHost,      ///< host-partition ops inside the device pipeline
  kHost,            ///< CPU execution: host tier service or fallback samples
  kUpdate,          ///< online learner update priced after the chunk
  kOther,           ///< residual (latency minus all recorded stages)
};

inline constexpr std::size_t kNumStages = 10;
static_assert(kNumStages == static_cast<std::size_t>(Stage::kOther) + 1);

const char* stage_name(Stage stage) noexcept;

/// One span in a request's causal chain.
struct StageSpan {
  Stage stage{};
  SimDuration start;
  SimDuration duration;
  std::uint32_t sample = 0;   ///< batch row for per-sample spans (0 otherwise)
  std::uint32_t attempt = 0;  ///< retry attempt index (0 = first try)
};

/// Stage-grouped durations for one request (or an aggregate over many).
struct RequestAttribution {
  std::array<SimDuration, kNumStages> stages{};

  SimDuration& operator[](Stage s) { return stages[static_cast<std::size_t>(s)]; }
  SimDuration operator[](Stage s) const { return stages[static_cast<std::size_t>(s)]; }

  /// Sum in fixed index order (`kOther` last) — the order `finalize` used to
  /// compute the residual, so `total()` reproduces the latency bit-exactly.
  SimDuration total() const;

  /// Stage share of `total()`; 0 when the total is zero.
  double fraction(Stage s) const;

  RequestAttribution& operator+=(const RequestAttribution& other);
};

/// How a request left the serve loop.
enum class RequestOutcome : std::uint8_t {
  kServed = 0,
  kShed,     ///< rejected (or displaced) by the bounded admission queue
  kExpired,  ///< admitted but its deadline elapsed before service started
};

const char* outcome_name(RequestOutcome outcome) noexcept;

/// Causal chain + attribution for one request. Built by the serve loop,
/// populated by the resilient executor / serving endpoint as spans complete.
struct RequestTrace {
  std::uint64_t request_id = 0;
  RequestOutcome outcome = RequestOutcome::kServed;
  std::uint8_t tier = 0;       ///< runtime::ServeTier the request was served on
  std::uint64_t samples = 0;   ///< samples in the chunk
  bool faulty = false;         ///< retries, fallback, or circuit events occurred
  SimDuration arrival;
  SimDuration end;             ///< set by finalize()
  SimDuration cursor;          ///< append position for the next span
  std::vector<StageSpan> spans;
  RequestAttribution attribution;  ///< filled by finalize()

  /// Starts the chain: stamps the id, sets arrival, and places the append
  /// cursor at the arrival time.
  void begin(std::uint64_t id, SimDuration arrival_time);

  /// Appends a span at the cursor and advances the cursor by its duration.
  void append(Stage stage, SimDuration duration, std::uint32_t sample = 0,
              std::uint32_t attempt = 0);

  /// Closes the chain at `end_time` and computes the attribution: spans are
  /// grouped by stage, then `kOther` takes the residual
  /// `latency - sum(other stages)`. Summing the stages back in the same fixed
  /// order (see RequestAttribution::total) returns `latency()` bit-exactly
  /// (Sterbenz: the final add is of two nearly-equal magnitudes).
  void finalize(SimDuration end_time);

  SimDuration latency() const { return end - arrival; }

  /// Deterministic memory estimate used for the exemplar store's hard bound.
  std::size_t approx_bytes() const;
};

/// Why an exemplar was retained.
enum class ExemplarReason : std::uint8_t {
  kShed = 0,
  kExpired,
  kTierFallback,  ///< served off the full tier, or device samples fell back to CPU
  kTailLatency,   ///< per-sample latency landed at/above the windowed p99
};

inline constexpr std::size_t kNumExemplarReasons = 4;

const char* exemplar_reason_name(ExemplarReason reason) noexcept;

struct RequestExemplar {
  ExemplarReason reason{};
  RequestTrace trace;
};

/// Tail-based exemplar retention bounds. `max_bytes` is a hard cap on the
/// deterministic `approx_bytes` footprint of all retained chains together.
struct ExemplarConfig {
  std::size_t max_bytes = 256 * 1024;
  std::size_t max_per_reason = 16;

  void validate() const;  ///< throws hdc::Error on nonsensical bounds
};

/// Bounded store of full span chains for interesting requests (shed, expired,
/// tier-fallback, tail-latency). Eviction is deterministic: oldest exemplar
/// of the same reason once the per-reason cap is hit, then oldest overall
/// until the new chain fits under `max_bytes`; a chain that cannot fit even
/// into an empty store is dropped (counted, never partially stored).
class ExemplarStore {
 public:
  explicit ExemplarStore(ExemplarConfig config = {});

  /// Offers a chain for retention; returns true when it was stored.
  bool offer(ExemplarReason reason, RequestTrace trace);

  const std::deque<RequestExemplar>& exemplars() const { return exemplars_; }
  const RequestTrace* find(std::uint64_t request_id) const;

  std::size_t approx_bytes() const { return bytes_; }
  std::size_t peak_bytes() const { return peak_bytes_; }
  std::uint64_t offered() const { return offered_; }
  std::uint64_t retained() const { return static_cast<std::uint64_t>(exemplars_.size()); }
  std::uint64_t evicted() const { return evicted_; }

  /// One `hdc-request-trace-v1` JSON object per line (consumed by `hdc trace analyze`).
  std::string to_jsonl() const;

 private:
  void evict_front();
  void evict_oldest_of(ExemplarReason reason);

  ExemplarConfig config_;
  std::deque<RequestExemplar> exemplars_;
  std::size_t bytes_ = 0;
  std::size_t peak_bytes_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t evicted_ = 0;
  std::array<std::size_t, kNumExemplarReasons> per_reason_{};
};

/// Serializes one exemplar as an `hdc-request-trace-v1` JSON object (no
/// trailing newline). Strings are JSON-escaped.
std::string request_trace_json(const RequestTrace& trace, const char* reason);

}  // namespace hdc::obs

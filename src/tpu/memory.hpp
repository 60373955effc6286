#pragma once

#include <cstdint>
#include <string>

namespace hdc::obs {
class TraceContext;
}  // namespace hdc::obs

namespace hdc::tpu {

/// On-chip parameter SRAM. The Edge TPU caches one compiled model's weights,
/// and swapping models forces a full re-upload — exactly the sub-model swap
/// overhead that motivates the paper's stacked single inference model
/// (Section III-B). At most one model is resident at a time.
class OnChipMemory {
 public:
  explicit OnChipMemory(std::uint64_t capacity_bytes = 8ULL * 1024 * 1024);

  std::uint64_t capacity() const noexcept { return capacity_bytes_; }
  std::uint64_t used_bytes() const noexcept { return used_bytes_; }
  std::size_t resident_count() const noexcept { return resident_id_.empty() ? 0 : 1; }

  bool fits(std::uint64_t bytes) const noexcept { return bytes <= capacity_bytes_; }

  /// True if `model_id`'s parameters are currently cached.
  bool is_resident(const std::string& model_id) const noexcept {
    return !resident_id_.empty() && resident_id_ == model_id;
  }

  /// Residency query at a *cache decision point*: same answer as
  /// `is_resident`, but counted into the `sram.lookups` / `sram.hits` /
  /// `sram.misses` metrics (hits + misses == lookups by construction).
  /// Integrity probes (e.g. scrub checks) should keep using `is_resident`
  /// so they don't distort the hit rate.
  bool lookup(const std::string& model_id) const;

  /// Attaches a metrics recorder (null disables, the default). Residency
  /// lookups, insertions and evictions then publish `sram.*` counters and
  /// the `sram.used_bytes` gauge (whose watermark is the peak residency).
  void set_trace(obs::TraceContext* trace) noexcept { trace_ = trace; }

  /// Evicts the resident model, then caches `model_id`. Returns false if it
  /// cannot fit at all — in that case the resident model is left untouched
  /// (no self-inflicted flush).
  bool make_resident(const std::string& model_id, std::uint64_t bytes);

  /// Evicts `model_id` (no-op unless it is the resident model).
  void evict(const std::string& model_id);

  /// Evicts the resident model, if any.
  void evict();

 private:
  void count(const char* name, std::uint64_t n = 1) const;
  void publish_usage() const;

  std::uint64_t capacity_bytes_;
  std::uint64_t used_bytes_ = 0;
  std::string resident_id_;  ///< empty when nothing is resident
  obs::TraceContext* trace_ = nullptr;
};

}  // namespace hdc::tpu

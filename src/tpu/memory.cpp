#include "tpu/memory.hpp"

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hdc::tpu {

OnChipMemory::OnChipMemory(std::uint64_t capacity_bytes) : capacity_bytes_(capacity_bytes) {
  HDC_CHECK(capacity_bytes_ > 0, "on-chip memory capacity must be positive");
}

void OnChipMemory::count(const char* name, std::uint64_t n) const {
  if (trace_ == nullptr || n == 0) {
    return;
  }
  if (obs::MetricsRegistry* metrics = trace_->metrics()) {
    metrics->counter(name).add(n);
  }
}

void OnChipMemory::publish_usage() const {
  if (trace_ == nullptr) {
    return;
  }
  if (obs::MetricsRegistry* metrics = trace_->metrics()) {
    metrics->gauge("sram.used_bytes").set(static_cast<double>(used_bytes_));
  }
}

bool OnChipMemory::lookup(const std::string& model_id) const {
  const bool hit = is_resident(model_id);
  count("sram.lookups");
  count(hit ? "sram.hits" : "sram.misses");
  return hit;
}

bool OnChipMemory::make_resident(const std::string& model_id, std::uint64_t bytes) {
  HDC_CHECK(!model_id.empty(), "model id must be non-empty");
  if (is_resident(model_id)) {
    // Warm no-op: re-asserting residency of the model that already owns the
    // cache must not count evictions/insertions — those counters feed the
    // parameter-cache hit-rate signal that cache-aware placement routes on.
    return true;
  }
  if (!fits(bytes)) {
    // Rejected admission must not flush the cache: the previously resident
    // model stays warm, so its next invocation costs no re-upload.
    return false;
  }
  evict();
  resident_id_ = model_id;
  used_bytes_ = bytes;
  count("sram.insertions");
  publish_usage();
  return true;
}

void OnChipMemory::evict(const std::string& model_id) {
  if (is_resident(model_id)) {
    evict();
  }
}

void OnChipMemory::evict() {
  count("sram.evictions", resident_count());
  resident_id_.clear();
  used_bytes_ = 0;
  publish_usage();
}

}  // namespace hdc::tpu

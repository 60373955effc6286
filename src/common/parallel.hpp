#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace hdc {

/// Fixed-size host worker pool with a deterministic `parallel_for`.
///
/// The library parallelizes only *independent outputs* (matmul column
/// blocks, per-sample scoring, interpreter rows), so results are
/// bit-identical to serial execution for any thread count: every output
/// element is written by exactly one chunk and each chunk performs the same
/// floating-point accumulation order the serial loop would. Chunking is
/// static (the partition depends only on the range and the pool size), so
/// scheduling never influences the work assignment either.
class ThreadPool {
 public:
  /// `num_threads` is the number of compute lanes including the calling
  /// thread; `ThreadPool(1)` spawns no workers and runs everything inline.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return num_threads_; }

  /// Chunk body: invoked as `body(chunk_begin, chunk_end)` over a contiguous
  /// sub-range of the iteration space.
  using RangeBody = std::function<void(std::size_t, std::size_t)>;

  /// Splits [begin, end) into at most size() near-equal contiguous chunks,
  /// runs the tail chunks on the workers while the calling thread executes
  /// the first one, and waits for all of them. The first exception thrown by
  /// any chunk is rethrown on the calling thread (after every chunk
  /// finished, so no work is left in flight). Nested calls — from a worker
  /// or from a body already inside a `parallel_for` — run inline serially,
  /// which keeps the pool deadlock-free under nested parallelism.
  void parallel_for(std::size_t begin, std::size_t end, const RangeBody& body);

 private:
  struct Impl;
  Impl* impl_;  ///< null when num_threads_ == 1 (pure inline mode)
  std::size_t num_threads_;
};

namespace parallel {

/// Detected hardware concurrency, clamped to at least 1.
std::size_t hardware_threads();

/// Sets the process-wide thread count used by `parallel::parallel_for`
/// (and thus by matmul / encode_batch / batch prediction / bagging).
/// 0 restores the default: the `HDC_THREADS` environment variable if set,
/// otherwise `hardware_threads()`. Must not be called concurrently with
/// in-flight parallel work.
void set_num_threads(std::size_t n);

/// The raw setting last passed to `set_num_threads` (0 = default).
std::size_t num_threads_setting();

/// The resolved thread count the global pool runs with.
std::size_t num_threads();

/// The lazily created process-wide pool, resized when the setting changes.
ThreadPool& global_pool();

/// `ThreadPool::parallel_for` on the global pool.
void parallel_for(std::size_t begin, std::size_t end, const ThreadPool::RangeBody& body);

/// Cumulative wall-clock accounting of fanned-out `parallel_for` regions
/// (process-wide, lock-free). Only regions that actually dispatched to
/// workers are counted; inline/serial/nested runs are not. `busy_seconds`
/// sums the wall-clock time of every chunk body across all lanes, while
/// `wall_seconds` sums the caller-observed region times, so
/// `busy / wall` is the achieved parallel speedup and
/// `busy / (wall * lanes)` the pool's busy fraction. Wall-clock only — the
/// numbers never feed back into any simulated-time result.
struct PoolStats {
  std::uint64_t regions = 0;  ///< parallel_for calls that fanned out
  std::uint64_t chunks = 0;   ///< chunk bodies executed across all regions
  double busy_seconds = 0.0;  ///< summed per-chunk body wall-clock
  double wall_seconds = 0.0;  ///< summed caller-observed region wall-clock

  /// Achieved speedup over serial execution (busy / wall); 0 when idle.
  double speedup() const noexcept {
    return wall_seconds > 0.0 ? busy_seconds / wall_seconds : 0.0;
  }
  /// Fraction of `lanes * wall` spent executing chunk bodies; 0 when idle.
  double busy_fraction(std::size_t lanes) const noexcept {
    return (wall_seconds > 0.0 && lanes > 0)
               ? busy_seconds / (wall_seconds * static_cast<double>(lanes))
               : 0.0;
  }
};

/// Snapshot of the counters accumulated since process start (or the last
/// `reset_pool_stats`).
PoolStats pool_stats();

/// Zeroes the accumulated pool statistics (e.g. between bench phases).
void reset_pool_stats();

/// RAII thread-count override (e.g. from `HdConfig::threads`): sets the
/// global count on construction when `n != 0`, restores the previous
/// setting on destruction. A zero `n` is a no-op override.
class ScopedThreadCount {
 public:
  explicit ScopedThreadCount(std::size_t n);
  ~ScopedThreadCount();

  ScopedThreadCount(const ScopedThreadCount&) = delete;
  ScopedThreadCount& operator=(const ScopedThreadCount&) = delete;

 private:
  std::size_t previous_;
  bool active_;
};

}  // namespace parallel
}  // namespace hdc

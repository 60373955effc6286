#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/bagging.hpp"
#include "core/config.hpp"
#include "core/encoder.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"

namespace hdc {
namespace {

// ------------------------------------------------------- pool mechanics ----

TEST(ThreadPoolTest, EmptyRangeIsNoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, 0, [&](std::size_t, std::size_t) { ++calls; });
  pool.parallel_for(7, 7, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ChunksCoverRangeExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {1U, 2U, 3U, 4U, 5U, 17U, 100U}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
      ASSERT_LE(lo, hi);
      for (std::size_t i = lo; i < hi; ++i) {
        ++hits[i];
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of range " << n;
    }
  }
}

TEST(PoolStatsTest, FannedOutRegionsAreCounted) {
  ThreadPool pool(4);
  parallel::reset_pool_stats();

  std::atomic<std::uint64_t> sink{0};
  pool.parallel_for(0, 64, [&](std::size_t lo, std::size_t hi) {
    std::uint64_t acc = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      acc += i * i;
    }
    sink += acc;
  });

  const parallel::PoolStats stats = parallel::pool_stats();
  EXPECT_EQ(stats.regions, 1u);
  EXPECT_GE(stats.chunks, 2u);  // fanned out across at least two lanes
  EXPECT_LE(stats.chunks, 4u);
  EXPECT_GE(stats.busy_seconds, 0.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  // Derived ratios are well-defined and bounded: busy time across 4 lanes
  // can at most be 4x the wall time.
  EXPECT_GE(stats.speedup(), 0.0);
  EXPECT_LE(stats.speedup(), 4.0 + 1e-9);
  EXPECT_GE(stats.busy_fraction(4), 0.0);
  EXPECT_LE(stats.busy_fraction(4), 1.0 + 1e-9);
}

TEST(PoolStatsTest, InlineAndSerialRunsAreNotCounted) {
  parallel::reset_pool_stats();

  // A single-lane pool runs everything inline — no fan-out, no stats.
  ThreadPool serial(1);
  serial.parallel_for(0, 32, [](std::size_t, std::size_t) {});
  EXPECT_EQ(parallel::pool_stats().regions, 0u);

  // An empty range on a real pool never dispatches either.
  ThreadPool pool(4);
  pool.parallel_for(5, 5, [](std::size_t, std::size_t) {});
  EXPECT_EQ(parallel::pool_stats().regions, 0u);
}

TEST(PoolStatsTest, ResetZeroesTheAccumulators) {
  ThreadPool pool(2);
  pool.parallel_for(0, 16, [](std::size_t, std::size_t) {});
  parallel::reset_pool_stats();
  const parallel::PoolStats stats = parallel::pool_stats();
  EXPECT_EQ(stats.regions, 0u);
  EXPECT_EQ(stats.chunks, 0u);
  EXPECT_EQ(stats.busy_seconds, 0.0);
  EXPECT_EQ(stats.wall_seconds, 0.0);
  EXPECT_EQ(stats.speedup(), 0.0);
  EXPECT_EQ(stats.busy_fraction(2), 0.0);
}

TEST(ThreadPoolTest, RangeSmallerThanPoolStillCoversEveryIndex) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(0, 3, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      ++hits[i];
    }
  });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
  EXPECT_EQ(hits[2].load(), 1);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::mutex mu;
  std::vector<std::thread::id> seen;
  pool.parallel_for(0, 8, [&](std::size_t, std::size_t) {
    const std::lock_guard<std::mutex> lock(mu);
    seen.push_back(std::this_thread::get_id());
  });
  ASSERT_FALSE(seen.empty());
  for (const auto& id : seen) {
    EXPECT_EQ(id, caller);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 64,
                                 [&](std::size_t lo, std::size_t) {
                                   if (lo >= 16) {  // thrown on a worker chunk
                                     throw std::runtime_error("chunk failed");
                                   }
                                 }),
               std::runtime_error);

  // The pool survives the failed batch and schedules new work correctly.
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 64, [&](std::size_t lo, std::size_t hi) { total += hi - lo; });
  EXPECT_EQ(total.load(), 64U);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<std::size_t> inner_total{0};
  pool.parallel_for(0, 8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // Nested use of the *global* helper from inside a chunk body must run
      // inline (serially) rather than re-entering a pool and deadlocking.
      parallel::parallel_for(0, 10, [&](std::size_t ilo, std::size_t ihi) {
        inner_total += ihi - ilo;
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 80U);
}

TEST(ParallelGlobalTest, SetNumThreadsResizesGlobalPool) {
  parallel::set_num_threads(3);
  EXPECT_EQ(parallel::num_threads_setting(), 3U);
  EXPECT_EQ(parallel::num_threads(), 3U);
  EXPECT_EQ(parallel::global_pool().size(), 3U);
  parallel::set_num_threads(0);
  EXPECT_EQ(parallel::num_threads_setting(), 0U);
  EXPECT_GE(parallel::num_threads(), 1U);
}

TEST(ParallelGlobalTest, ScopedThreadCountRestoresPreviousSetting) {
  parallel::set_num_threads(2);
  {
    const parallel::ScopedThreadCount scope(5);
    EXPECT_EQ(parallel::num_threads(), 5U);
  }
  EXPECT_EQ(parallel::num_threads(), 2U);
  {
    const parallel::ScopedThreadCount noop(0);  // 0 = keep current setting
    EXPECT_EQ(parallel::num_threads(), 2U);
  }
  EXPECT_EQ(parallel::num_threads(), 2U);
  parallel::set_num_threads(0);
}

// ---------------------------------------------------------- determinism ----
//
// The library's hard guarantee: any thread count produces bit-identical
// results, because parallelism only partitions independent output rows and
// never changes a row's floating-point accumulation order.

tensor::MatrixF random_f(std::size_t r, std::size_t c, std::uint64_t seed) {
  tensor::MatrixF m(r, c);
  Rng rng(seed);
  rng.fill_gaussian(m.data(), m.size());
  return m;
}

/// Runs `make()` under 1 thread, then asserts 2 and 4 threads reproduce it
/// element for element.
template <typename Fn>
void expect_threads_invariant(const Fn& make) {
  parallel::set_num_threads(1);
  const auto serial = make();
  for (const std::size_t threads : {2U, 4U}) {
    parallel::set_num_threads(threads);
    const auto parallel_result = make();
    parallel::set_num_threads(0);
    ASSERT_EQ(parallel_result, serial) << "diverged at " << threads << " threads";
  }
}

TEST(DeterminismTest, MatmulIsBitIdenticalAcrossThreadCounts) {
  const auto a = random_f(37, 53, 1);
  const auto b = random_f(53, 29, 2);
  expect_threads_invariant([&] { return tensor::matmul(a, b).storage(); });
}

TEST(DeterminismTest, FusedMatmulTanhMatchesUnfusedSerial) {
  const auto a = random_f(19, 31, 3);
  const auto b = random_f(31, 41, 4);
  parallel::set_num_threads(1);
  tensor::MatrixF reference = tensor::matmul(a, b);
  tensor::tanh_inplace(reference.storage());
  expect_threads_invariant([&] { return tensor::matmul_tanh(a, b).storage(); });
  parallel::set_num_threads(4);
  EXPECT_EQ(tensor::matmul_tanh(a, b).storage(), reference.storage());
  parallel::set_num_threads(0);
}

TEST(DeterminismTest, EncodeBatchIsBitIdenticalAcrossThreadCounts) {
  const core::Encoder encoder(24, 512, 7);
  const auto samples = random_f(33, 24, 8);
  expect_threads_invariant([&] { return encoder.encode_batch(samples).storage(); });
}

TEST(DeterminismTest, TiledMatmulEqualsKAscendingReferenceAtEveryThreadCount) {
  // Row counts that split unevenly across 2 and 4 lanes and leave partial
  // 4-row tiles in some chunks; whole zero columns exercise tile skipping.
  for (const std::size_t rows : {5U, 65U}) {
    auto a = random_f(rows, 129, rows);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t k = 0; k < a.cols(); k += 4) {
        a(i, k) = 0.0F;
      }
    }
    const auto b = random_f(129, 17, rows + 1);
    tensor::MatrixF expected(rows, b.cols(), 0.0F);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < b.cols(); ++j) {
        float acc = 0.0F;
        for (std::size_t k = 0; k < a.cols(); ++k) {
          acc += a(i, k) * b(k, j);
        }
        expected(i, j) = acc;
      }
    }
    tensor::MatrixF expected_tanh = expected;
    tensor::tanh_inplace(expected_tanh.storage());
    for (const std::size_t threads : {1U, 2U, 4U}) {
      parallel::set_num_threads(threads);
      EXPECT_EQ(tensor::matmul(a, b), expected) << rows << " rows, " << threads << " threads";
      EXPECT_EQ(tensor::matmul_tanh(a, b), expected_tanh)
          << rows << " rows, " << threads << " threads";
      parallel::set_num_threads(0);
    }
  }
}

TEST(DeterminismTest, PackedInt8FcIsBitIdenticalAcrossThreadCounts) {
  tensor::MatrixI8 x(37, 561);
  tensor::MatrixI8 w(561, 70);
  Rng rng(12);
  for (auto& v : x.storage()) {
    v = static_cast<std::int8_t>(static_cast<std::int64_t>(rng.next_below(256)) - 128);
  }
  for (auto& v : w.storage()) {
    v = static_cast<std::int8_t>(static_cast<std::int64_t>(rng.next_below(256)) - 128);
  }
  const auto packed = tensor::pack_weights_i8({w.data(), w.size()}, w.rows(), w.cols());
  expect_threads_invariant([&] { return tensor::matmul_i8_packed(x, 127, packed).storage(); });
}

TEST(DeterminismTest, PlainTrainingIsBitIdenticalAcrossThreadCounts) {
  const data::SyntheticSpec spec = data::paper_dataset("ISOLET");
  const data::Dataset ds = data::generate_synthetic(spec, 200);
  core::HdConfig cfg;
  cfg.dim = 512;
  cfg.epochs = 3;
  cfg.seed = 11;
  const core::Encoder encoder(static_cast<std::uint32_t>(ds.num_features()), cfg.dim,
                              cfg.seed);
  expect_threads_invariant([&] {
    const core::Trainer trainer(cfg);
    const core::TrainResult result = trainer.fit(encoder, ds);
    return result.model.class_hypervectors().storage();
  });
}

TEST(DeterminismTest, HdConfigThreadsFieldKeepsTrainingDeterministic) {
  const data::SyntheticSpec spec = data::paper_dataset("ISOLET");
  const data::Dataset ds = data::generate_synthetic(spec, 150);
  core::HdConfig cfg;
  cfg.dim = 256;
  cfg.epochs = 2;
  cfg.seed = 13;
  const core::Encoder encoder(static_cast<std::uint32_t>(ds.num_features()), cfg.dim,
                              cfg.seed);
  std::vector<float> reference;
  for (const std::uint32_t threads : {1U, 2U, 4U}) {
    core::HdConfig run = cfg;
    run.threads = threads;  // per-run override, not the process-wide setting
    const core::Trainer trainer(run);
    const auto weights = trainer.fit(encoder, ds).model.class_hypervectors().storage();
    if (reference.empty()) {
      reference = weights;
    } else {
      ASSERT_EQ(weights, reference) << "HdConfig::threads = " << threads;
    }
  }
}

/// The bagging member protocol with each member fitted on the host.
core::BaggedEnsemble fit_bagged(const data::Dataset& train, const core::BaggingConfig& cfg) {
  return core::train_bagged(
      train, cfg,
      [](std::uint32_t, const core::Trainer& trainer, const core::Encoder& encoder,
         const data::Dataset& subset) { return trainer.fit(encoder, subset); });
}

TEST(DeterminismTest, BaggingIsBitIdenticalAcrossThreadCounts) {
  const data::SyntheticSpec spec = data::paper_dataset("UCIHAR");
  const data::Dataset all = data::generate_synthetic(spec, 240);
  const auto split = data::split_dataset(all, 0.25, 3);

  core::BaggingConfig cfg;
  cfg.num_models = 4;
  cfg.epochs = 3;
  cfg.base.dim = 512;
  cfg.base.seed = 99;
  cfg.bootstrap.dataset_ratio = 0.6;

  struct Snapshot {
    std::vector<float> stacked_weights;
    std::vector<float> stacked_base;
    std::vector<std::uint32_t> predictions;
    bool operator==(const Snapshot&) const = default;
  };

  expect_threads_invariant([&] {
    const core::TrainedClassifier stacked = core::stack(fit_bagged(split.train, cfg));
    return Snapshot{stacked.model.class_hypervectors().storage(),
                    stacked.encoder.base().storage(),
                    stacked.model.predict_batch(stacked.encoder.encode_batch(split.test.features),
                                                core::Similarity::kDot)};
  });
}

TEST(DeterminismTest, EnsemblePredictBatchMatchesPerSamplePredict) {
  const data::SyntheticSpec spec = data::paper_dataset("UCIHAR");
  const data::Dataset ds = data::generate_synthetic(spec, 120);

  core::BaggingConfig cfg;
  cfg.num_models = 2;
  cfg.epochs = 2;
  cfg.base.dim = 256;
  cfg.base.seed = 5;
  const core::BaggedEnsemble ensemble = fit_bagged(ds, cfg);

  parallel::set_num_threads(4);
  const auto batched = ensemble.predict_batch(ds.features);
  parallel::set_num_threads(0);
  ASSERT_EQ(batched.size(), ds.features.rows());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], ensemble.predict(ds.features.row(i))) << "sample " << i;
  }
}

}  // namespace
}  // namespace hdc

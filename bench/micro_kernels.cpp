// Microbenchmarks (google-benchmark) of the kernels everything else is
// built on: float GEMM/vecmat, HDC encoding, the int8 systolic tile engine
// and the quantized interpreter. These measure *host wall-clock* (unlike the
// figure harnesses, which report simulated time) and exist to keep the
// simulator's functional paths honest about their own cost.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/encoder.hpp"
#include "core/binary.hpp"
#include "core/level_encoder.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "lite/builder.hpp"
#include "lite/interpreter.hpp"
#include "lite/quantize.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tpu/systolic.hpp"

namespace {

using namespace hdc;

tensor::MatrixF random_f(std::size_t r, std::size_t c, std::uint64_t seed) {
  tensor::MatrixF m(r, c);
  Rng rng(seed);
  rng.fill_gaussian(m.data(), m.size());
  return m;
}

tensor::MatrixI8 random_i8(std::size_t r, std::size_t c, std::uint64_t seed) {
  tensor::MatrixI8 m(r, c);
  Rng rng(seed);
  for (auto& v : m.storage()) {
    v = static_cast<std::int8_t>(static_cast<std::int64_t>(rng.next_below(256)) - 128);
  }
  return m;
}

void BM_MatmulFloat(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_f(n, n, 1);
  const auto b = random_f(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulFloat)->Arg(64)->Arg(128)->Arg(256);

// Host-pool threads sweep on the paper-scale batch-encode GEMM shape
// (512 samples x 784 features -> d = 10000). The Arg is the thread count;
// the acceptance bar is >= 2x over 1 thread at 4 threads on a 4-core host.
void BM_MatmulThreads(benchmark::State& state) {
  parallel::set_num_threads(static_cast<std::size_t>(state.range(0)));
  const auto a = random_f(512, 784, 1);
  const auto b = random_f(784, 10000, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 512 * 784 * 10000);
  parallel::set_num_threads(0);
}
BENCHMARK(BM_MatmulThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

// Same sweep through the fused encode kernel (matmul + tanh per row block).
void BM_EncodeBatchThreads(benchmark::State& state) {
  parallel::set_num_threads(static_cast<std::size_t>(state.range(0)));
  const core::Encoder encoder(784, 10000, 5);
  const auto samples = random_f(512, 784, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode_batch(samples));
  }
  state.SetItemsProcessed(state.iterations() * 512 * 784 * 10000);
  parallel::set_num_threads(0);
}
BENCHMARK(BM_EncodeBatchThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

// One served chunk of the serve-online-wide shape (128 UCIHAR samples, 561
// features, d = 2048) encoded two ways on one lane: one batch through the
// register-tiled kernel, or sample by sample (vecmat + tanh, the path the
// serve loop took before it encoded each request once). main() reports the
// same-run ratio `ratio.encode_chunk_batched_over_per_sample`.
constexpr std::size_t kChunkRows = 128;
constexpr std::uint32_t kChunkFeatures = 561;
constexpr std::uint32_t kChunkDim = 2048;

void BM_EncodeChunkBatched(benchmark::State& state) {
  const parallel::ScopedThreadCount one_lane(1);
  const core::Encoder encoder(kChunkFeatures, kChunkDim, 12);
  const auto samples = random_f(kChunkRows, kChunkFeatures, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode_batch(samples));
  }
  state.SetItemsProcessed(state.iterations() * kChunkRows * kChunkFeatures * kChunkDim);
}
BENCHMARK(BM_EncodeChunkBatched)->Unit(benchmark::kMillisecond);

void BM_EncodeChunkPerSample(benchmark::State& state) {
  const core::Encoder encoder(kChunkFeatures, kChunkDim, 12);
  const auto samples = random_f(kChunkRows, kChunkFeatures, 13);
  std::vector<float> encoded(kChunkDim);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kChunkRows; ++i) {
      tensor::vecmat(samples.row(i), encoder.base(), encoded);
      tensor::tanh_inplace(encoded);
      benchmark::DoNotOptimize(encoded.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(state.iterations() * kChunkRows * kChunkFeatures * kChunkDim);
}
BENCHMARK(BM_EncodeChunkPerSample)->Unit(benchmark::kMillisecond);

// The int8 FULLY_CONNECTED accumulation of a 64-row block into d = 2048 on
// one lane, at the fleet's (27) and the serve workload's (561) input width:
// the packed kernel against the row-by-row loop it replaced. main() reports
// `ratio.fc_int8_packed_over_reference/<k>`.
constexpr std::size_t kFcRows = 64;
constexpr std::size_t kFcCols = 2048;

void BM_FcInt8Packed(benchmark::State& state) {
  const parallel::ScopedThreadCount one_lane(1);
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto x = random_i8(kFcRows, k, 14);
  const auto w = random_i8(k, kFcCols, 15);
  const auto packed = tensor::pack_weights_i8({w.data(), w.size()}, k, kFcCols);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul_i8_packed(x, 3, packed));
  }
  state.SetItemsProcessed(state.iterations() * kFcRows * k * kFcCols);
}
BENCHMARK(BM_FcInt8Packed)->Arg(27)->Arg(561);

void BM_FcInt8Reference(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto x = random_i8(kFcRows, k, 14);
  const auto w = random_i8(k, kFcCols, 15);
  std::vector<std::int32_t> acc(kFcCols);
  for (auto _ : state) {
    for (std::size_t r = 0; r < kFcRows; ++r) {
      std::fill(acc.begin(), acc.end(), 0);
      for (std::size_t i = 0; i < k; ++i) {
        const std::int32_t xi = static_cast<std::int32_t>(x(r, i)) - 3;
        if (xi == 0) {
          continue;
        }
        const std::int8_t* row = w.data() + i * kFcCols;
        for (std::size_t j = 0; j < kFcCols; ++j) {
          acc[j] += xi * static_cast<std::int32_t>(row[j]);
        }
      }
      benchmark::DoNotOptimize(acc.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(state.iterations() * kFcRows * k * kFcCols);
}
BENCHMARK(BM_FcInt8Reference)->Arg(27)->Arg(561);

// tanh over one sample's 2048 encoder pre-activations (the fleet shape: 27
// features, d = 2048): the 4-lane port against the C library's scalar tanhf,
// the encoder's tanh before the port. main() reports
// `ratio.tanh_vector_over_libm`.
std::vector<float> encoder_preactivations() {
  const core::Encoder encoder(27, kChunkDim, 16);
  const auto sample = random_f(1, 27, 17);
  std::vector<float> pre(kChunkDim);
  tensor::vecmat(sample.row(0), encoder.base(), pre);
  return pre;
}

void BM_TanhVector(benchmark::State& state) {
  const auto pre = encoder_preactivations();
  std::vector<float> v(pre.size());
  for (auto _ : state) {
    std::copy(pre.begin(), pre.end(), v.begin());
    tensor::tanh_inplace(v);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pre.size()));
}
BENCHMARK(BM_TanhVector);

void BM_TanhLibm(benchmark::State& state) {
  const auto pre = encoder_preactivations();
  std::vector<float> v(pre.size());
  for (auto _ : state) {
    std::copy(pre.begin(), pre.end(), v.begin());
    for (float& x : v) {
      x = std::tanh(x);
    }
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pre.size()));
}
BENCHMARK(BM_TanhLibm);

// The two compilations of the host kernels (tensor/kernels.hpp) on one lane:
// the portable (SSE2/NEON) instantiation against the AVX2 one, on the
// serve-online-wide encode shape (128 x 561 into d = 2048), the tanh
// pre-activations above, and the int8 FC shapes above. The AVX2 runs are
// skipped on a CPU without AVX2, and their ratios are then not reported.
// main() reports `ratio.gemm_avx2_over_portable`,
// `ratio.tanh_avx2_over_portable` and `ratio.fc_int8_avx2_over_portable/<k>`.
const tensor::kernels::KernelSet* kernel_set(benchmark::State& state, bool avx2) {
  const tensor::kernels::KernelSet* set =
      avx2 ? tensor::kernels::avx2() : &tensor::kernels::portable();
  if (set == nullptr) {
    state.SkipWithError("no AVX2 on this CPU or build");
  }
  return set;
}

void gemm_width(benchmark::State& state, bool avx2) {
  const tensor::kernels::KernelSet* set = kernel_set(state, avx2);
  if (set == nullptr) {
    return;
  }
  const auto a = random_f(kChunkRows, kChunkFeatures, 13);
  const auto b = random_f(kChunkFeatures, kChunkDim, 12);
  for (auto _ : state) {
    tensor::MatrixF c(kChunkRows, kChunkDim, 0.0F);
    set->matmul_cols(a, b, c, 0, kChunkDim);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * kChunkRows * kChunkFeatures * kChunkDim);
}
void BM_GemmPortable(benchmark::State& state) { gemm_width(state, false); }
void BM_GemmAvx2(benchmark::State& state) { gemm_width(state, true); }
BENCHMARK(BM_GemmPortable)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GemmAvx2)->Unit(benchmark::kMillisecond);

void tanh_width(benchmark::State& state, bool avx2) {
  const tensor::kernels::KernelSet* set = kernel_set(state, avx2);
  if (set == nullptr) {
    return;
  }
  const auto pre = encoder_preactivations();
  std::vector<float> v(pre.size());
  for (auto _ : state) {
    std::copy(pre.begin(), pre.end(), v.begin());
    set->tanh_inplace(v);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pre.size()));
}
void BM_TanhPortable(benchmark::State& state) { tanh_width(state, false); }
void BM_TanhAvx2(benchmark::State& state) { tanh_width(state, true); }
BENCHMARK(BM_TanhPortable);
BENCHMARK(BM_TanhAvx2);

void fc_int8_width(benchmark::State& state, bool avx2) {
  const tensor::kernels::KernelSet* set = kernel_set(state, avx2);
  if (set == nullptr) {
    return;
  }
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto x = random_i8(kFcRows, k, 14);
  const auto w = random_i8(k, kFcCols, 15);
  const auto packed = tensor::pack_weights_i8({w.data(), w.size()}, k, kFcCols);
  for (auto _ : state) {
    tensor::MatrixI32 c(kFcRows, kFcCols, 0);
    set->matmul_i8_packed_rows(x, 3, packed, c, 0, kFcRows);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * kFcRows * k * kFcCols);
}
void BM_FcInt8Portable(benchmark::State& state) { fc_int8_width(state, false); }
void BM_FcInt8Avx2(benchmark::State& state) { fc_int8_width(state, true); }
BENCHMARK(BM_FcInt8Portable)->Arg(27)->Arg(561);
BENCHMARK(BM_FcInt8Avx2)->Arg(27)->Arg(561);

// Requantisation of one 64-row block of int8 FC accumulators into d = 2048
// with per-channel scales: the vector kernel behind the interpreter (the
// active instantiation) against the per-element std::round loop it
// replaced. main() reports `ratio.requant_vector_over_round`.
struct RequantInput {
  tensor::MatrixI32 acc;
  std::vector<double> scales;
  double multiplier = 0.0;
};

RequantInput requant_input() {
  RequantInput in;
  in.acc = tensor::MatrixI32(kFcRows, kFcCols);
  Rng rng(18);
  for (auto& v : in.acc.storage()) {
    v = static_cast<std::int32_t>(rng.next_below(200001)) - 100000;
  }
  in.scales.resize(kFcCols);
  for (auto& s : in.scales) {
    s = 1e-3 * (1.0 + rng.next_double());
  }
  in.multiplier = 0.02 / 0.9;
  return in;
}

void BM_RequantVector(benchmark::State& state) {
  const RequantInput in = requant_input();
  tensor::MatrixI8 out(kFcRows, kFcCols);
  for (auto _ : state) {
    tensor::requantize_i8(in.acc, in.multiplier, in.scales, -5, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kFcRows * kFcCols);
}
BENCHMARK(BM_RequantVector);

void BM_RequantRound(benchmark::State& state) {
  const RequantInput in = requant_input();
  tensor::MatrixI8 out(kFcRows, kFcCols);
  for (auto _ : state) {
    for (std::size_t r = 0; r < kFcRows; ++r) {
      for (std::size_t j = 0; j < kFcCols; ++j) {
        const double scaled =
            std::round(static_cast<double>(in.acc(r, j)) * in.multiplier * in.scales[j]) - 5;
        out(r, j) = static_cast<std::int8_t>(std::clamp(scaled, -128.0, 127.0));
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kFcRows * kFcCols);
}
BENCHMARK(BM_RequantRound);

// Cosine scores of one encoded sample against k classes of width d: the fleet
// (k = 5, d = 2048) and the paper's ISOLET model (k = 26, d = 10000).
// HdModel::scores makes one pass over d per block of classes; the reference
// is the per-class loop it replaced (three passes over d per class). main()
// reports `ratio.scores_single_pass_over_per_class/<k>`.
std::vector<float> per_class_scores(const core::HdModel& model, std::span<const float> encoded) {
  std::vector<float> out(model.num_classes());
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c] = tensor::cosine(encoded, model.class_hypervectors().row(c));
  }
  return out;
}

core::HdModel random_model(std::uint32_t k, std::uint32_t d) {
  core::HdModel model(k, d);
  Rng rng(18);
  rng.fill_gaussian(model.class_hypervectors().data(), model.class_hypervectors().size());
  return model;
}

void BM_ScoresSinglePass(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto d = static_cast<std::uint32_t>(state.range(1));
  const auto model = random_model(k, d);
  const auto encoded = random_f(1, d, 19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.scores(encoded.row(0), core::Similarity::kCosine));
  }
  state.SetItemsProcessed(state.iterations() * k * d);
}
BENCHMARK(BM_ScoresSinglePass)->Args({5, 2048})->Args({26, 10000});

void BM_ScoresPerClass(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto d = static_cast<std::uint32_t>(state.range(1));
  const auto model = random_model(k, d);
  const auto encoded = random_f(1, d, 19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(per_class_scores(model, encoded.row(0)));
  }
  state.SetItemsProcessed(state.iterations() * k * d);
}
BENCHMARK(BM_ScoresPerClass)->Args({5, 2048})->Args({26, 10000});

void BM_Vecmat(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto a = random_f(617, d, 3);
  const auto x = random_f(1, 617, 4);
  std::vector<float> y(d);
  for (auto _ : state) {
    tensor::vecmat(x.row(0), a, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 617 * d);
}
BENCHMARK(BM_Vecmat)->Arg(1024)->Arg(4096)->Arg(10000);

void BM_HdcEncodeSample(benchmark::State& state) {
  const auto d = static_cast<std::uint32_t>(state.range(0));
  const core::Encoder encoder(617, d, 5);
  std::vector<float> sample(617, 0.5F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(sample));
  }
  state.SetItemsProcessed(state.iterations() * 617 * d);
}
BENCHMARK(BM_HdcEncodeSample)->Arg(2048)->Arg(10000);

void BM_SystolicMatmulI8(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tpu::SystolicArray mxu;
  const auto a = random_i8(1, n, 6);
  const auto w = random_i8(n, 2500, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mxu.matmul(a, w));
  }
  state.SetItemsProcessed(state.iterations() * n * 2500);
}
BENCHMARK(BM_SystolicMatmulI8)->Arg(128)->Arg(617);

void BM_QuantizedInterpreterSample(benchmark::State& state) {
  const auto d = static_cast<std::uint32_t>(state.range(0));
  const core::Encoder encoder(128, d, 8);
  const auto float_model = lite::build_encode_model(encoder);
  const auto calib = random_f(32, 128, 9);
  const auto quantized = lite::quantize_model(float_model, calib);
  const lite::LiteInterpreter interpreter(quantized);
  const auto input = random_f(1, 128, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(interpreter.run(input));
  }
  state.SetItemsProcessed(state.iterations() * 128 * d);
}
BENCHMARK(BM_QuantizedInterpreterSample)->Arg(1024)->Arg(4096);

void BM_LevelEncodeSample(benchmark::State& state) {
  const auto d = static_cast<std::uint32_t>(state.range(0));
  core::LevelEncoderConfig cfg;
  cfg.dim = d;
  const core::LevelEncoder encoder(128, cfg);
  std::vector<float> sample(128, 0.5F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(sample));
  }
  state.SetItemsProcessed(state.iterations() * 128 * d);
}
BENCHMARK(BM_LevelEncodeSample)->Arg(2048)->Arg(10000);

void BM_BinaryHammingPredict(benchmark::State& state) {
  const auto d = static_cast<std::uint32_t>(state.range(0));
  const core::Encoder encoder(128, d, 21);
  core::HdModel model(10, d);
  Rng rng(22);
  rng.fill_gaussian(model.class_hypervectors().data(), model.class_hypervectors().size());
  const auto binary =
      core::BinaryClassifier::binarize(core::TrainedClassifier{
          core::Encoder(encoder.base()), core::HdModel(model.class_hypervectors())});
  std::vector<float> sample(128, 0.4F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(binary.predict(sample));
  }
  state.SetItemsProcessed(state.iterations() * 10 * d);
}
BENCHMARK(BM_BinaryHammingPredict)->Arg(2048)->Arg(10000);

void BM_TrainerEpoch(benchmark::State& state) {
  // One update iteration over 256 pre-encoded samples at d = 2048, k = 10.
  const auto encoded = random_f(256, 2048, 11);
  std::vector<std::uint32_t> labels(256);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::uint32_t>(i % 10);
  }
  core::HdConfig cfg;
  cfg.dim = 2048;
  cfg.epochs = 1;
  const core::Trainer trainer(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.fit_encoded(encoded, labels, 10));
  }
  state.SetItemsProcessed(state.iterations() * 256 * 2048 * 10);
}
BENCHMARK(BM_TrainerEpoch);

// Console reporter that also collects per-iteration runs so they can be
// re-emitted through BenchReporter as hdc-bench-v1 wall metrics. All
// micro-kernel numbers are host wall-clock, so the perf gate treats them as
// report-only (see bench_util.hpp).
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double seconds_per_iter;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred ||
          run.iterations == 0) {
        continue;
      }
      entries_.push_back(Entry{run.benchmark_name(),
                               run.real_accumulated_time /
                                   static_cast<double>(run.iterations)});
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<Entry>& entries() const noexcept { return entries_; }

  /// Seconds per iteration of the named run; 0 when it did not run (e.g.
  /// filtered out by --benchmark_filter).
  double seconds_per_iter(const std::string& name) const {
    for (const Entry& entry : entries_) {
      if (entry.name == name) {
        return entry.seconds_per_iter;
      }
    }
    return 0.0;
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  hdc::bench::BenchReporter reporter(argc, argv, "micro_kernels");

  // google-benchmark rejects flags it does not know, so strip `--json <path>`
  // before handing argv over.
  std::vector<char*> filtered;
  filtered.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::string_view(argv[i]) == "--json") {
      ++i;  // skip the path operand too
      continue;
    }
    filtered.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, filtered.data())) {
    return 1;
  }

  CollectingReporter console;
  benchmark::RunSpecifiedBenchmarks(&console);
  reporter.workload("nproc", static_cast<std::uint64_t>(hdc::parallel::hardware_threads()));
  for (const auto& entry : console.entries()) {
    reporter.wall_seconds(entry.name + ".s_per_iter", entry.seconds_per_iter);
  }
  // Same-run speedups of the batched kernels over the per-sample paths they
  // replaced (report-only, like every wall figure; > 1 means faster).
  const auto ratio = [&](const std::string& name, const std::string& slow,
                         const std::string& fast) {
    const double slow_s = console.seconds_per_iter(slow);
    const double fast_s = console.seconds_per_iter(fast);
    if (slow_s > 0.0 && fast_s > 0.0) {
      std::printf("%s = %.2fx\n", name.c_str(), slow_s / fast_s);
      reporter.metric(name, slow_s / fast_s, "x", "wall", "higher");
    }
  };
  ratio("ratio.encode_chunk_batched_over_per_sample", "BM_EncodeChunkPerSample",
        "BM_EncodeChunkBatched");
  for (const char* k : {"27", "561"}) {
    ratio(std::string("ratio.fc_int8_packed_over_reference/") + k,
          std::string("BM_FcInt8Reference/") + k, std::string("BM_FcInt8Packed/") + k);
  }
  ratio("ratio.tanh_vector_over_libm", "BM_TanhLibm", "BM_TanhVector");
  for (const auto& [k, shape] : {std::pair{"5", "5/2048"}, std::pair{"26", "26/10000"}}) {
    ratio(std::string("ratio.scores_single_pass_over_per_class/") + k,
          std::string("BM_ScoresPerClass/") + shape, std::string("BM_ScoresSinglePass/") + shape);
  }
  ratio("ratio.gemm_avx2_over_portable", "BM_GemmPortable", "BM_GemmAvx2");
  ratio("ratio.tanh_avx2_over_portable", "BM_TanhPortable", "BM_TanhAvx2");
  for (const char* k : {"27", "561"}) {
    ratio(std::string("ratio.fc_int8_avx2_over_portable/") + k,
          std::string("BM_FcInt8Portable/") + k, std::string("BM_FcInt8Avx2/") + k);
  }
  ratio("ratio.requant_vector_over_round", "BM_RequantRound", "BM_RequantVector");
  reporter.write();
  return 0;
}

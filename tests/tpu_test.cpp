#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "lite/builder.hpp"
#include "lite/quantize.hpp"
#include "nn/graph.hpp"
#include "runtime/cost.hpp"
#include "tensor/ops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tpu/compiler.hpp"
#include "tpu/device.hpp"
#include "tpu/event_sim.hpp"
#include "tpu/memory.hpp"
#include "tpu/systolic.hpp"
#include "tpu/usb.hpp"

namespace hdc::tpu {
namespace {

tensor::MatrixI8 random_i8(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  tensor::MatrixI8 m(rows, cols);
  Rng rng(seed);
  for (auto& v : m.storage()) {
    v = static_cast<std::int8_t>(static_cast<std::int64_t>(rng.next_below(256)) - 128);
  }
  return m;
}

// ------------------------------------------------------------- systolic ----

struct SystolicShape {
  std::size_t batch, in, out;
};

class SystolicShapeTest : public ::testing::TestWithParam<SystolicShape> {};

TEST_P(SystolicShapeTest, TileEngineMatchesReferenceGemm) {
  const auto [batch, in, out] = GetParam();
  const SystolicArray mxu;
  const auto a = random_i8(batch, in, batch * 7 + in);
  const auto w = random_i8(in, out, in * 13 + out);
  EXPECT_EQ(mxu.matmul(a, w), tensor::matmul_i8(a, w));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SystolicShapeTest,
    ::testing::Values(SystolicShape{1, 1, 1}, SystolicShape{1, 64, 64},
                      SystolicShape{1, 65, 63}, SystolicShape{3, 128, 130},
                      SystolicShape{5, 20, 300}, SystolicShape{2, 700, 96},
                      SystolicShape{1, 27, 2500}, SystolicShape{4, 100, 1}));

TEST(SystolicTest, ShapeMismatchThrows) {
  const SystolicArray mxu;
  EXPECT_THROW(mxu.matmul(tensor::MatrixI8(1, 3), tensor::MatrixI8(4, 2)), Error);
}

TEST(SystolicTest, TileCounts) {
  const SystolicArray mxu;
  EXPECT_EQ(mxu.tiles_along_rows(64), 1U);
  EXPECT_EQ(mxu.tiles_along_rows(65), 2U);
  EXPECT_EQ(mxu.tiles_along_cols(1), 1U);
  EXPECT_EQ(mxu.tiles_along_cols(10000), 157U);
}

TEST(SystolicTest, CyclesMonotoneInEveryDimension) {
  const SystolicArray mxu;
  const auto base = mxu.matmul_cycles(1, 100, 1000);
  EXPECT_GE(mxu.matmul_cycles(2, 100, 1000), base);
  EXPECT_GE(mxu.matmul_cycles(1, 200, 1000), base);
  EXPECT_GE(mxu.matmul_cycles(1, 100, 2000), base);
}

TEST(SystolicTest, BatchAmortizesFillCost) {
  // Cycles per sample must strictly drop with batch size (pipelining).
  const SystolicArray mxu;
  const double single = static_cast<double>(mxu.matmul_cycles(1, 256, 1024));
  const double batched = static_cast<double>(mxu.matmul_cycles(256, 256, 1024)) / 256.0;
  EXPECT_LT(batched, single / 10.0);
}

TEST(SystolicTest, ElementwiseCyclesScaleWithLanes) {
  const SystolicArray mxu;
  EXPECT_EQ(mxu.elementwise_cycles(1), 1U);
  EXPECT_EQ(mxu.elementwise_cycles(64), 1U);
  EXPECT_EQ(mxu.elementwise_cycles(65), 2U);
  EXPECT_EQ(mxu.elementwise_cycles(10000), 157U);
}

TEST(SystolicTest, InvalidConfigRejected) {
  SystolicConfig cfg;
  cfg.rows = 0;
  EXPECT_THROW(SystolicArray{cfg}, Error);
}

TEST(SystolicTest, OutputStationarySkipsFillAtBatchOne) {
  SystolicConfig os_cfg;
  os_cfg.dataflow = Dataflow::kOutputStationary;
  const SystolicArray ws;
  const SystolicArray os(os_cfg);
  // Batch-1 hyper-wide gemv: OS avoids the per-tile fills and must be
  // cheaper under the default constants.
  EXPECT_LT(os.matmul_cycles(1, 784, 10000), ws.matmul_cycles(1, 784, 10000));
}

TEST(SystolicTest, WeightStationaryWinsAtLargeBatch) {
  SystolicConfig os_cfg;
  os_cfg.dataflow = Dataflow::kOutputStationary;
  const SystolicArray ws;
  const SystolicArray os(os_cfg);
  // Big batches amortize WS fills; OS re-streams weights per 64-row block.
  // The compute-cycle crossover is late (the bigger WS win — SRAM traffic —
  // is not charged in this model), so probe deep into the asymptote.
  EXPECT_LT(ws.matmul_cycles(65536, 784, 10000), os.matmul_cycles(65536, 784, 10000));
}

TEST(SystolicTest, OutputStationaryCyclesMonotone) {
  SystolicConfig os_cfg;
  os_cfg.dataflow = Dataflow::kOutputStationary;
  const SystolicArray os(os_cfg);
  const auto base = os.matmul_cycles(1, 100, 1000);
  EXPECT_GE(os.matmul_cycles(65, 100, 1000), base);  // next batch block
  EXPECT_GE(os.matmul_cycles(1, 200, 1000), base);
  EXPECT_GE(os.matmul_cycles(1, 100, 2000), base);
}

TEST(SystolicTest, DataflowDoesNotAffectFunctionalResult) {
  SystolicConfig os_cfg;
  os_cfg.dataflow = Dataflow::kOutputStationary;
  const SystolicArray ws;
  const SystolicArray os(os_cfg);
  const auto a = random_i8(3, 100, 1);
  const auto w = random_i8(100, 70, 2);
  EXPECT_EQ(ws.matmul(a, w), os.matmul(a, w));
}

// ------------------------------------------------------------------ usb ----

TEST(UsbTest, TransferTimeLinearInBytes) {
  const UsbLink link;
  const auto t1 = link.transfer_time(1000);
  const auto t2 = link.transfer_time(2000);
  EXPECT_DOUBLE_EQ(t2.to_seconds(), 2.0 * t1.to_seconds());
}

TEST(UsbTest, BandwidthHonored) {
  UsbLinkConfig cfg;
  cfg.bandwidth_bytes_per_s = 100e6;
  const UsbLink link(cfg);
  EXPECT_DOUBLE_EQ(link.transfer_time(100'000'000).to_seconds(), 1.0);
}

TEST(UsbTest, InvalidBandwidthRejected) {
  UsbLinkConfig cfg;
  cfg.bandwidth_bytes_per_s = 0.0;
  EXPECT_THROW(UsbLink{cfg}, Error);
}

TEST(UsbTest, NegativeInvokeOverheadRejected) {
  UsbLinkConfig cfg;
  cfg.invoke_overhead = SimDuration::micros(-1);
  EXPECT_THROW(UsbLink{cfg}, Error);
}

TEST(UsbTest, NegativeInteractiveRoundTripRejected) {
  UsbLinkConfig cfg;
  cfg.interactive_round_trip = SimDuration::micros(-450);
  EXPECT_THROW(UsbLink{cfg}, Error);
}

TEST(UsbTest, ZeroOverheadsAreValid) {
  UsbLinkConfig cfg;
  cfg.invoke_overhead = SimDuration();
  cfg.interactive_round_trip = SimDuration();
  EXPECT_NO_THROW(UsbLink{cfg});
}

// --------------------------------------------------------------- memory ----

TEST(MemoryTest, ResidencyLifecycle) {
  OnChipMemory mem(1000);
  EXPECT_FALSE(mem.is_resident("a"));
  EXPECT_TRUE(mem.make_resident("a", 800));
  EXPECT_TRUE(mem.is_resident("a"));
  EXPECT_TRUE(mem.make_resident("b", 500));
  EXPECT_FALSE(mem.is_resident("a"));  // evicted by b
  EXPECT_TRUE(mem.is_resident("b"));
  mem.evict();
  EXPECT_FALSE(mem.is_resident("b"));
}

TEST(MemoryTest, OversizedModelNeverResident) {
  OnChipMemory mem(100);
  EXPECT_FALSE(mem.make_resident("big", 200));
  EXPECT_FALSE(mem.is_resident("big"));
}

TEST(MemoryTest, EmptyIdRejected) {
  OnChipMemory mem(100);
  EXPECT_THROW(mem.make_resident("", 10), Error);
}

TEST(MemoryTest, SelectiveEviction) {
  OnChipMemory mem(1000);
  EXPECT_TRUE(mem.make_resident("a", 300));
  mem.evict("missing");  // no-op
  EXPECT_TRUE(mem.is_resident("a"));
  EXPECT_EQ(mem.used_bytes(), 300U);
  mem.evict("a");
  EXPECT_FALSE(mem.is_resident("a"));
  EXPECT_EQ(mem.used_bytes(), 0U);
  EXPECT_EQ(mem.resident_count(), 0U);
}

TEST(MemoryTest, FailedAdmissionPreservesResidents) {
  // Regression: make_resident used to evict everything *before* checking
  // capacity, so a rejected oversized model still flushed the warm cache.
  OnChipMemory mem(1000);
  EXPECT_TRUE(mem.make_resident("a", 800));
  EXPECT_FALSE(mem.make_resident("big", 2000));
  EXPECT_TRUE(mem.is_resident("a"));
  EXPECT_EQ(mem.used_bytes(), 800U);
  EXPECT_EQ(mem.resident_count(), 1U);
}

TEST(MemoryTest, WarmReResidencyIsANoOp) {
  // Regression: make_resident used to flush and re-insert even when the
  // model was already resident, counting spurious sram.evictions and
  // sram.insertions — the very counters the cache-aware placement hit-rate
  // signal is derived from.
  obs::TraceContext trace;
  obs::MetricsRegistry metrics;
  trace.set_metrics(&metrics);
  OnChipMemory mem(1000);
  mem.set_trace(&trace);

  EXPECT_TRUE(mem.make_resident("a", 800));
  EXPECT_EQ(metrics.counter("sram.insertions").value(), 1U);

  EXPECT_TRUE(mem.make_resident("a", 800));
  EXPECT_TRUE(mem.make_resident("a", 800));
  EXPECT_TRUE(mem.is_resident("a"));
  EXPECT_EQ(mem.used_bytes(), 800U);
  EXPECT_EQ(mem.resident_count(), 1U);
  EXPECT_EQ(metrics.counter("sram.insertions").value(), 1U);
  EXPECT_EQ(metrics.counter("sram.evictions").value(), 0U);

  // A different model still takes over exclusively (one eviction, one insert).
  EXPECT_TRUE(mem.make_resident("b", 500));
  EXPECT_FALSE(mem.is_resident("a"));
  EXPECT_EQ(metrics.counter("sram.insertions").value(), 2U);
  EXPECT_EQ(metrics.counter("sram.evictions").value(), 1U);
}

// -------------------------------------------------------------- compiler ----

TEST(CompilerTest, PartitionsQuantizedInferenceModel) {
  const auto model = runtime::make_int8_chain_model("m", 32, 256, 4);
  const EdgeTpuCompiler compiler(SystolicConfig{}, 8ULL << 20);
  const CompiledModel compiled = compiler.compile(model);

  // QUANTIZE (host), FC (device), TANH (device), FC (device), ARG_MAX (host).
  ASSERT_EQ(compiled.plan.size(), 5U);
  EXPECT_EQ(compiled.plan[0].placement, Placement::kHost);
  EXPECT_EQ(compiled.plan[1].placement, Placement::kDevice);
  EXPECT_EQ(compiled.plan[2].placement, Placement::kDevice);
  EXPECT_EQ(compiled.plan[3].placement, Placement::kDevice);
  EXPECT_EQ(compiled.plan[4].placement, Placement::kHost);
  EXPECT_EQ(compiled.report.device_ops, 3U);
  EXPECT_EQ(compiled.report.host_ops, 2U);
}

TEST(CompilerTest, FloatModelFallsBackEntirely) {
  nn::Graph g("float", 8);
  g.add_dense(tensor::MatrixF(8, 16, 0.1F));
  g.add_tanh();
  const auto model = lite::build_float_model(g);
  const EdgeTpuCompiler compiler(SystolicConfig{}, 8ULL << 20);
  const CompiledModel compiled = compiler.compile(model);
  EXPECT_EQ(compiled.report.device_ops, 0U);
  EXPECT_FALSE(compiled.has_device_segment());
}

TEST(CompilerTest, DeviceSegmentBoundaryBytes) {
  const auto model = runtime::make_int8_chain_model("m", 100, 2000, 10);
  const EdgeTpuCompiler compiler(SystolicConfig{}, 8ULL << 20);
  const CompiledModel compiled = compiler.compile(model);
  EXPECT_EQ(compiled.device_input_bytes, 100U);   // int8 features
  EXPECT_EQ(compiled.device_output_bytes, 10U);   // int8 logits
}

TEST(CompilerTest, EncodeModelOutputsHypervector) {
  const auto model = runtime::make_int8_chain_model("enc", 100, 2000);
  const EdgeTpuCompiler compiler(SystolicConfig{}, 8ULL << 20);
  const CompiledModel compiled = compiler.compile(model);
  EXPECT_EQ(compiled.device_output_bytes, 2000U);  // int8 hypervector
}

TEST(CompilerTest, SramFitDetection) {
  const auto small = runtime::make_int8_chain_model("s", 10, 100);
  const auto big = runtime::make_int8_chain_model("b", 1000, 10000);  // ~10 MB
  const EdgeTpuCompiler compiler(SystolicConfig{}, 8ULL << 20);
  EXPECT_TRUE(compiler.compile(small).report.fits_in_sram);
  EXPECT_FALSE(compiler.compile(big).report.fits_in_sram);
}

TEST(CompilerTest, CompileTimeGrowsWithModelSize) {
  const EdgeTpuCompiler compiler(SystolicConfig{}, 8ULL << 20);
  const auto small = compiler.compile(runtime::make_int8_chain_model("s", 10, 100));
  const auto large = compiler.compile(runtime::make_int8_chain_model("l", 700, 10000));
  EXPECT_GT(large.report.host_compile_time.to_seconds(),
            small.report.host_compile_time.to_seconds());
}

TEST(CompilerTest, UniqueModelIds) {
  const EdgeTpuCompiler compiler(SystolicConfig{}, 8ULL << 20);
  const auto model = runtime::make_int8_chain_model("same", 8, 16);
  const auto a = compiler.compile(model);
  const auto b = compiler.compile(model);
  EXPECT_NE(a.id, b.id);
}

TEST(CompilerTest, ReportRendersText) {
  const EdgeTpuCompiler compiler(SystolicConfig{}, 8ULL << 20);
  const auto compiled = compiler.compile(runtime::make_int8_chain_model("r", 8, 16, 2));
  const std::string text = compiled.report.to_string();
  EXPECT_NE(text.find("device"), std::string::npos);
  EXPECT_NE(text.find("ARG_MAX"), std::string::npos);
}

// --------------------------------------------------------------- device ----

class DeviceTest : public ::testing::Test {
 protected:
  EdgeTpuCompiler compiler_{SystolicConfig{}, 8ULL << 20};
  HostCostModel host_{2e9, 1e9};
};

TEST_F(DeviceTest, WeightUploadOnceWhenResident) {
  EdgeTpuDevice device;
  const auto compiled = compiler_.compile(runtime::make_int8_chain_model("m", 64, 1024));
  const auto first = device.load(compiled);
  EXPECT_GT(first.weight_upload.to_seconds(), 0.0);
  const auto second = device.load(compiled);
  EXPECT_EQ(second.weight_upload.to_seconds(), 0.0);
}

TEST_F(DeviceTest, RejectedOversizedLoadChargesNoReupload) {
  // A load that cannot fit in SRAM must neither charge an upload nor flush
  // the currently resident model: its next invocation stays upload-free.
  EdgeTpuDevice device;  // default 8 MB SRAM
  const auto small = compiler_.compile(runtime::make_int8_chain_model("small", 64, 1024));
  const auto big = compiler_.compile(runtime::make_int8_chain_model("big", 1000, 10000));
  EXPECT_GT(device.load(small).weight_upload.to_seconds(), 0.0);
  const auto rejected = device.load(big);
  EXPECT_EQ(rejected.weight_upload.to_seconds(), 0.0);
  EXPECT_TRUE(device.memory().is_resident(small.id));
  InvokeOptions options;
  options.mode = ExecutionMode::kTimingOnly;
  const auto timing = device.invoke_timing(small, 1, options, host_);
  EXPECT_EQ(timing.weight_upload.to_seconds(), 0.0);
}

TEST_F(DeviceTest, ModelSwapForcesReupload) {
  EdgeTpuDevice device;
  const auto a = compiler_.compile(runtime::make_int8_chain_model("a", 64, 1024));
  const auto b = compiler_.compile(runtime::make_int8_chain_model("b", 64, 1024));
  device.load(a);
  device.load(b);  // evicts a
  const auto again = device.load(a);
  EXPECT_GT(again.weight_upload.to_seconds(), 0.0);
}

TEST_F(DeviceTest, InteractiveCostsMoreThanStreaming) {
  EdgeTpuDevice device;
  const auto compiled = compiler_.compile(runtime::make_int8_chain_model("m", 64, 1024, 4));
  InvokeOptions streaming;
  streaming.mode = ExecutionMode::kTimingOnly;
  InvokeOptions interactive = streaming;
  interactive.interactive = true;
  const auto s = device.per_sample_cost(compiled, streaming, host_);
  const auto i = device.per_sample_cost(compiled, interactive, host_);
  EXPECT_GT(i.total().to_seconds(), s.total().to_seconds());
}

TEST_F(DeviceTest, PerSampleCostMonotoneInFeatures) {
  EdgeTpuDevice device;
  InvokeOptions options;
  options.mode = ExecutionMode::kTimingOnly;
  SimDuration previous;
  for (const std::uint32_t n : {20U, 100U, 300U, 700U}) {
    // std::string("m") rather than "m": the const char* + std::string&&
    // overload trips GCC 12's -Wrestrict false positive (PR 105329).
    const auto compiled = compiler_.compile(
        runtime::make_int8_chain_model(std::string("m") + std::to_string(n), n, 10000));
    const auto cost = device.per_sample_cost(compiled, options, host_).total();
    EXPECT_GE(cost.to_seconds(), previous.to_seconds());
    previous = cost;
  }
}

TEST_F(DeviceTest, TimingScalesLinearlyWithSamples) {
  EdgeTpuDevice device;
  const auto compiled = compiler_.compile(runtime::make_int8_chain_model("m", 64, 1024));
  InvokeOptions options;
  options.mode = ExecutionMode::kTimingOnly;
  device.load(compiled);  // make resident so upload does not skew the ratio
  const auto t100 = device.invoke_timing(compiled, 100, options, host_);
  const auto t200 = device.invoke_timing(compiled, 200, options, host_);
  EXPECT_NEAR(t200.device_compute.to_seconds(), 2.0 * t100.device_compute.to_seconds(),
              1e-12);
  EXPECT_NEAR(t200.transfer.to_seconds(), 2.0 * t100.transfer.to_seconds(), 1e-12);
  EXPECT_EQ(t200.invocations, 200U);
}

TEST_F(DeviceTest, OversizedModelPaysWeightStreamPerSample) {
  EdgeTpuDevice device(SystolicConfig{}, UsbLinkConfig{}, 1024);  // tiny SRAM
  const auto compiled = compiler_.compile(runtime::make_int8_chain_model("m", 64, 1024));
  InvokeOptions options;
  options.mode = ExecutionMode::kTimingOnly;
  const auto t1 = device.invoke_timing(compiled, 1, options, host_);
  const auto t2 = device.invoke_timing(compiled, 2, options, host_);
  EXPECT_GT(t1.weight_upload.to_seconds(), 0.0);
  // No one-time residency possible: the parameter stream scales with the
  // sample count instead.
  EXPECT_NEAR(t2.weight_upload.to_seconds(), 2.0 * t1.weight_upload.to_seconds(),
              t1.weight_upload.to_seconds() * 0.01);
  EXPECT_FALSE(device.memory().is_resident(compiled.id));
}

TEST_F(DeviceTest, FunctionalInvokeMatchesInterpreter) {
  EdgeTpuDevice device;
  // A real (non-zero-weight) quantized model: build from a small graph.
  nn::Graph g("real", 8);
  tensor::MatrixF w1(8, 64);
  Rng rng(3);
  rng.fill_gaussian(w1.data(), w1.size());
  g.add_dense(std::move(w1));
  g.add_tanh();
  const auto float_model = lite::build_float_model(g);
  tensor::MatrixF inputs(16, 8);
  rng.fill_gaussian(inputs.data(), inputs.size(), 0.5F, 0.25F);
  const auto quantized = lite::quantize_model(float_model, inputs);
  const auto compiled = compiler_.compile(quantized);

  InvokeOptions options;
  options.mode = ExecutionMode::kFunctional;
  auto [result, stats] = device.invoke(compiled, inputs, options, host_);
  const auto expected = lite::LiteInterpreter(quantized).run(inputs);
  EXPECT_EQ(result.values, expected.values);
  EXPECT_GT(stats.total().to_seconds(), 0.0);
}

TEST_F(DeviceTest, TimingOnlyReturnsEmptyResult) {
  EdgeTpuDevice device;
  const auto compiled = compiler_.compile(runtime::make_int8_chain_model("m", 8, 64));
  InvokeOptions options;
  options.mode = ExecutionMode::kTimingOnly;
  auto [result, stats] = device.invoke(compiled, tensor::MatrixF(4, 8), options, host_);
  EXPECT_TRUE(result.values.empty());
  EXPECT_EQ(stats.invocations, 4U);
}

TEST_F(DeviceTest, HostOpsPricedWithHostModel) {
  EdgeTpuDevice device;
  const auto compiled = compiler_.compile(runtime::make_int8_chain_model("m", 64, 1024, 4));
  InvokeOptions options;
  options.mode = ExecutionMode::kTimingOnly;
  const HostCostModel fast{2e9, 1e9};
  const HostCostModel slow{2e9 / 14.0, 1e9 / 8.0};
  const auto tf = device.per_sample_cost(compiled, options, fast);
  const auto ts = device.per_sample_cost(compiled, options, slow);
  EXPECT_GT(ts.host_compute.to_seconds(), tf.host_compute.to_seconds());
  EXPECT_EQ(ts.device_compute.to_seconds(), tf.device_compute.to_seconds());
}

// ------------------------------------------------------------- event sim ----

TEST(EventSimTest, SerialModeSumsAllStages) {
  StageTimes stages;
  stages.host = SimDuration::micros(5);
  stages.link_in = SimDuration::micros(10);
  stages.device = SimDuration::micros(100);
  stages.link_out = SimDuration::micros(20);
  const auto result = simulate_stream(stages, 10, /*double_buffered=*/false);
  EXPECT_DOUBLE_EQ(result.makespan.to_micros(), 10 * 135.0);
}

TEST(EventSimTest, DoubleBufferedConvergesToBottleneck) {
  StageTimes stages;
  stages.host = SimDuration::micros(5);
  stages.link_in = SimDuration::micros(10);
  stages.device = SimDuration::micros(100);  // the bottleneck
  stages.link_out = SimDuration::micros(20);
  const auto long_run = simulate_stream(stages, 1001, true);
  const auto short_run = simulate_stream(stages, 1, true);
  const double steady =
      (long_run.makespan - short_run.makespan).to_micros() / 1000.0;
  EXPECT_NEAR(steady, 100.0, 1e-9);
}

TEST(EventSimTest, BottleneckResourceFullyUtilized) {
  StageTimes stages;
  stages.host = SimDuration::micros(1);
  stages.link_in = SimDuration::micros(2);
  stages.device = SimDuration::micros(50);
  stages.link_out = SimDuration::micros(3);
  const auto result = simulate_stream(stages, 2000, true);
  EXPECT_GT(result.device_utilization, 0.99);
  EXPECT_LT(result.host_utilization, 0.05);
}

TEST(EventSimTest, PipeliningNeverSlowerThanSerial) {
  Rng rng(77);
  for (int i = 0; i < 50; ++i) {
    StageTimes stages;
    stages.host = SimDuration::micros(static_cast<double>(rng.next_below(100)));
    stages.link_in = SimDuration::micros(static_cast<double>(rng.next_below(100)));
    stages.device = SimDuration::micros(static_cast<double>(rng.next_below(100)));
    stages.link_out = SimDuration::micros(static_cast<double>(rng.next_below(100)));
    const auto serial = simulate_stream(stages, 64, false);
    const auto pipelined = simulate_stream(stages, 64, true);
    EXPECT_LE(pipelined.makespan.to_seconds(), serial.makespan.to_seconds() + 1e-12);
  }
}

TEST(EventSimTest, SingleSampleIdenticalEitherWay) {
  StageTimes stages;
  stages.host = SimDuration::micros(7);
  stages.link_in = SimDuration::micros(11);
  stages.device = SimDuration::micros(13);
  stages.link_out = SimDuration::micros(17);
  EXPECT_DOUBLE_EQ(simulate_stream(stages, 1, true).makespan.to_micros(),
                   simulate_stream(stages, 1, false).makespan.to_micros());
  EXPECT_DOUBLE_EQ(simulate_stream(stages, 1, true).makespan.to_micros(), 48.0);
}

TEST(EventSimTest, ZeroSamplesRejected) {
  EXPECT_THROW(simulate_stream(StageTimes{}, 0, true), Error);
}

TEST(EventSimTest, HalfDuplexLinkUtilizationNeverExceedsOne) {
  // Regression: link_in and link_out used to be independent free-time
  // resources (a full-duplex link), so under saturating overlap the shared
  // bus was busy for more seconds than existed — link_utilization > 1.
  StageTimes stages;
  stages.host = SimDuration::micros(1);
  stages.link_in = SimDuration::micros(30);
  stages.device = SimDuration::micros(10);
  stages.link_out = SimDuration::micros(30);
  const auto result = simulate_stream(stages, 200, /*double_buffered=*/true);
  EXPECT_LE(result.link_utilization, 1.0 + 1e-12);
  EXPECT_GT(result.link_utilization, 0.95);
}

TEST(EventSimTest, HalfDuplexSteadyStateIsLinkSum) {
  // With the link as the bottleneck, the steady-state cost per sample is the
  // *sum* of both transfer directions — they serialize on the shared bus.
  StageTimes stages;
  stages.host = SimDuration::micros(1);
  stages.link_in = SimDuration::micros(30);
  stages.device = SimDuration::micros(10);
  stages.link_out = SimDuration::micros(30);
  // Difference of two long runs so the pipeline fill/drain transient cancels
  // exactly (a single-sample run pays the device wait the steady schedule
  // hides inside the in(i+1)/out(i) interleave).
  const auto long_run = simulate_stream(stages, 2001, true);
  const auto short_run = simulate_stream(stages, 1001, true);
  const double steady =
      (long_run.makespan - short_run.makespan).to_micros() / 1000.0;
  EXPECT_NEAR(steady, 60.0, 1e-9);
}

// ------------------------------------------------------------ pipelining ----

TEST_F(DeviceTest, PipelinedStreamingNeverSlower) {
  EdgeTpuDevice device;
  const auto compiled = compiler_.compile(runtime::make_int8_chain_model("p", 617, 10000));
  InvokeOptions serial;
  serial.mode = ExecutionMode::kTimingOnly;
  InvokeOptions pipelined = serial;
  pipelined.pipelined = true;

  device.load(compiled);
  const auto t_serial = device.invoke_timing(compiled, 1000, serial, host_);
  const auto t_pipe = device.invoke_timing(compiled, 1000, pipelined, host_);
  EXPECT_LE(t_pipe.total().to_seconds(), t_serial.total().to_seconds());
  EXPECT_GT(t_pipe.pipelined_makespan.to_seconds(), 0.0);
}

TEST_F(DeviceTest, PipelinedSteadyStateIsBottleneckBound) {
  EdgeTpuDevice device;
  const auto compiled = compiler_.compile(runtime::make_int8_chain_model("p", 617, 10000));
  InvokeOptions options;
  options.mode = ExecutionMode::kTimingOnly;
  options.pipelined = true;
  device.load(compiled);
  const auto per = device.per_sample_cost(compiled, options, host_);
  const double bottleneck =
      std::max({per.device_compute.to_seconds(), per.host_compute.to_seconds(),
                per.transfer.to_seconds()});
  const auto t1k = device.invoke_timing(compiled, 1001, options, host_);
  const auto t1 = device.invoke_timing(compiled, 1, options, host_);
  const double steady =
      (t1k.pipelined_makespan - t1.pipelined_makespan).to_seconds() / 1000.0;
  EXPECT_NEAR(steady, bottleneck, bottleneck * 1e-9);
}

TEST_F(DeviceTest, InteractiveModeIgnoresPipelining) {
  EdgeTpuDevice device;
  const auto compiled = compiler_.compile(runtime::make_int8_chain_model("p", 64, 1024));
  InvokeOptions options;
  options.mode = ExecutionMode::kTimingOnly;
  options.pipelined = true;
  options.interactive = true;  // request/response cannot overlap
  const auto stats = device.invoke_timing(compiled, 10, options, host_);
  EXPECT_EQ(stats.pipelined_makespan.to_seconds(), 0.0);
}

TEST_F(DeviceTest, StatsAccumulate) {
  ExecutionStats a;
  a.device_compute = SimDuration::millis(1);
  a.invocations = 2;
  ExecutionStats b;
  b.device_compute = SimDuration::millis(3);
  b.transfer = SimDuration::micros(10);
  b.invocations = 5;
  a += b;
  EXPECT_DOUBLE_EQ(a.device_compute.to_millis(), 4.0);
  EXPECT_DOUBLE_EQ(a.transfer.to_micros(), 10.0);
  EXPECT_EQ(a.invocations, 7U);
  EXPECT_DOUBLE_EQ(a.total().to_millis(), 4.01);
}

// Fills every ExecutionStats field with a distinct value so a field the
// aggregation forgets shows up as a precise mismatch.
ExecutionStats fully_populated_stats(double scale) {
  ExecutionStats s;
  s.device_compute = SimDuration::millis(1 * scale);
  s.host_compute = SimDuration::millis(2 * scale);
  s.transfer = SimDuration::millis(3 * scale);
  s.weight_upload = SimDuration::millis(4 * scale);
  s.pipelined_makespan = SimDuration::millis(5 * scale);
  s.retry_backoff = SimDuration::millis(6 * scale);
  s.invocations = static_cast<std::uint64_t>(7 * scale);
  s.device_macs = static_cast<std::uint64_t>(8 * scale);
  s.host_element_ops = static_cast<std::uint64_t>(9 * scale);
  s.transfer_retries = static_cast<std::uint64_t>(10 * scale);
  s.nak_stalls = static_cast<std::uint64_t>(11 * scale);
  s.sram_scrubs = static_cast<std::uint64_t>(12 * scale);
  s.device_detaches = static_cast<std::uint64_t>(13 * scale);
  s.invoke_retries = static_cast<std::uint64_t>(14 * scale);
  s.fallback_samples = static_cast<std::uint64_t>(15 * scale);
  return s;
}

TEST_F(DeviceTest, StatsAggregateEveryField) {
  ExecutionStats a = fully_populated_stats(1.0);
  const ExecutionStats b = fully_populated_stats(10.0);
  a += b;
  EXPECT_DOUBLE_EQ(a.device_compute.to_millis(), 11.0);
  EXPECT_DOUBLE_EQ(a.host_compute.to_millis(), 22.0);
  EXPECT_DOUBLE_EQ(a.transfer.to_millis(), 33.0);
  EXPECT_DOUBLE_EQ(a.weight_upload.to_millis(), 44.0);
  EXPECT_DOUBLE_EQ(a.pipelined_makespan.to_millis(), 55.0);
  EXPECT_DOUBLE_EQ(a.retry_backoff.to_millis(), 66.0);
  EXPECT_EQ(a.invocations, 77U);
  EXPECT_EQ(a.device_macs, 88U);
  EXPECT_EQ(a.host_element_ops, 99U);
  EXPECT_EQ(a.transfer_retries, 110U);
  EXPECT_EQ(a.nak_stalls, 121U);
  EXPECT_EQ(a.sram_scrubs, 132U);
  EXPECT_EQ(a.device_detaches, 143U);
  EXPECT_EQ(a.invoke_retries, 154U);
  EXPECT_EQ(a.fallback_samples, 165U);
}

TEST_F(DeviceTest, StatsTotalChargesRetryBackoff) {
  ExecutionStats s;
  s.device_compute = SimDuration::millis(1);
  s.retry_backoff = SimDuration::millis(2);
  EXPECT_DOUBLE_EQ(s.total().to_millis(), 3.0);
}

}  // namespace
}  // namespace hdc::tpu

// Tests for the observability layer (src/obs): the simulated-time tracer,
// the metrics registry, the timing-report algebra they summarize, and the
// end-to-end CLI contract (`hdc infer --trace` emits valid Chrome trace
// JSON whose phase spans reconcile with the reported totals).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "../tools/json_min.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "runtime/framework.hpp"
#include "runtime/report.hpp"
#include "tool_run.hpp"
#include "tpu/stats.hpp"

namespace {

using namespace hdc;
using tools::Json;
using tools::JsonParser;

// ---------------------------------------------------------------------------
// TraceContext
// ---------------------------------------------------------------------------

TEST(TraceContextTest, SpanAdvancesCursorSpanAtDoesNot) {
  obs::TraceContext trace;
  EXPECT_EQ(trace.now(), SimDuration());

  trace.span(obs::Track::kLink, "usb.transfer", SimDuration::micros(10));
  EXPECT_EQ(trace.now(), SimDuration::micros(10));

  trace.span_at(obs::Track::kDevice, "mxu.invoke", SimDuration::micros(2),
                SimDuration::micros(100));
  EXPECT_EQ(trace.now(), SimDuration::micros(10));  // cursor untouched

  trace.instant(obs::Track::kHost, "fault.detached");
  EXPECT_EQ(trace.now(), SimDuration::micros(10));

  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.events()[0].start, SimDuration());
  EXPECT_EQ(trace.events()[0].duration, SimDuration::micros(10));
  EXPECT_EQ(trace.events()[1].start, SimDuration::micros(2));
  EXPECT_EQ(trace.events()[2].kind, obs::TraceEvent::Kind::kInstant);
}

TEST(TraceContextTest, SpanTotalSumsByExactName) {
  obs::TraceContext trace;
  trace.span(obs::Track::kLink, "usb.transfer", SimDuration::micros(3));
  trace.span(obs::Track::kLink, "usb.transfer", SimDuration::micros(4));
  trace.span(obs::Track::kDevice, "mxu.invoke", SimDuration::micros(5));
  EXPECT_EQ(trace.span_total("usb.transfer"), SimDuration::micros(7));
  EXPECT_EQ(trace.span_total("mxu.invoke"), SimDuration::micros(5));
  EXPECT_EQ(trace.span_total("usb"), SimDuration());  // no prefix matching
}

TEST(TraceContextTest, EventCapDropsAndExportNotesTruncation) {
  obs::TraceConfig config;
  config.max_events = 2;
  obs::TraceContext trace(config);
  for (int i = 0; i < 5; ++i) {
    trace.span(obs::Track::kHost, "host.compute", SimDuration::micros(1));
  }
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.dropped(), 3u);
  // The cursor still tracks all charged time so later spans stay aligned.
  EXPECT_EQ(trace.now(), SimDuration::micros(5));

  const std::string json = trace.chrome_trace_json();
  EXPECT_NE(json.find("trace.truncated"), std::string::npos);

  const std::optional<Json> doc = JsonParser(json).parse();
  ASSERT_TRUE(doc.has_value());
  bool found = false;
  for (const auto& event : doc->at("traceEvents").array) {
    if (event.has("name") && event.at("name").string == "trace.truncated") {
      found = true;
      EXPECT_EQ(event.at("args").at("dropped_events").number, 3.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceContextTest, ChromeTraceExportIsValidAndComplete) {
  obs::TraceContext trace;
  trace.span(obs::Track::kLink, "usb.transfer", SimDuration::micros(12),
             {{"bytes", 1024}, {"ratio", 0.5}, {"mode", "bulk"}});
  trace.instant(obs::Track::kExecutor, "resilient.retry", {{"attempt", 1}});

  const std::optional<Json> doc = JsonParser(trace.chrome_trace_json()).parse();
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("displayTimeUnit").string, "ms");
  const auto& events = doc->at("traceEvents").array;

  // One process_name metadata record per track, plus the two real events.
  int metadata = 0, spans = 0, instants = 0;
  for (const auto& event : events) {
    const std::string& ph = event.at("ph").string;
    if (ph == "M") {
      if (event.at("name").string == "process_name") {
        ++metadata;
      }
    } else if (ph == "X") {
      ++spans;
      EXPECT_EQ(event.at("name").string, "usb.transfer");
      EXPECT_DOUBLE_EQ(event.at("dur").number, 12.0);
      EXPECT_EQ(event.at("args").at("bytes").number, 1024.0);
      EXPECT_EQ(event.at("args").at("ratio").number, 0.5);
      EXPECT_EQ(event.at("args").at("mode").string, "bulk");
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(event.at("name").string, "resilient.retry");
      EXPECT_EQ(event.at("s").string, "p");
    }
  }
  EXPECT_EQ(metadata, static_cast<int>(obs::kNumTracks));
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(instants, 1);
}

TEST(TraceContextTest, JsonStringEscaping) {
  obs::TraceContext trace;
  trace.instant(obs::Track::kHost, "weird \"name\"\\with\nstuff",
                {{"key", std::string("a\tb\x01c")}});
  const std::optional<Json> doc = JsonParser(trace.chrome_trace_json()).parse();
  ASSERT_TRUE(doc.has_value());
  bool found = false;
  for (const auto& event : doc->at("traceEvents").array) {
    if (event.at("ph").string == "i") {
      found = true;
      EXPECT_EQ(event.at("name").string, "weird \"name\"\\with\nstuff");
      EXPECT_EQ(event.at("args").at("key").string, "a\tb\x01c");
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceContextTest, RequestScopeStampsEventsAndExportsReqArg) {
  obs::TraceContext trace;
  trace.span(obs::Track::kHost, "outside.before", SimDuration::micros(1));
  trace.begin_request(7);
  trace.span(obs::Track::kDevice, "inside.compute", SimDuration::micros(2));
  trace.instant(obs::Track::kExecutor, "inside.mark");
  trace.end_request();
  trace.span(obs::Track::kHost, "outside.after", SimDuration::micros(1));

  ASSERT_EQ(trace.events().size(), 4u);
  EXPECT_EQ(trace.events()[0].request_id, -1);
  EXPECT_EQ(trace.events()[1].request_id, 7);
  EXPECT_EQ(trace.events()[2].request_id, 7);
  EXPECT_EQ(trace.events()[3].request_id, -1);
  EXPECT_EQ(trace.active_request(), -1);

  // The export stamps a "req" arg on exactly the scoped events, so request
  // chains can be reassembled from the Chrome trace (`hdc trace analyze`
  // does).
  const std::optional<Json> doc = JsonParser(trace.chrome_trace_json()).parse();
  ASSERT_TRUE(doc.has_value());
  int with_req = 0, without_req = 0;
  for (const auto& event : doc->at("traceEvents").array) {
    const std::string& ph = event.at("ph").string;
    if (ph != "X" && ph != "i") {
      continue;
    }
    if (event.has("args") && event.at("args").has("req")) {
      ++with_req;
      EXPECT_EQ(event.at("args").at("req").number, 7.0);
    } else {
      ++without_req;
    }
  }
  EXPECT_EQ(with_req, 2);
  EXPECT_EQ(without_req, 2);
}

TEST(TraceContextTest, EventCapWarnsOnceInsteadOfSilentlyDropping) {
  const std::filesystem::path sink =
      std::filesystem::temp_directory_path() / "hdc_trace_drop_warn.jsonl";
  std::filesystem::remove(sink);
  log::set_json_sink(sink.string());

  obs::TraceConfig config;
  config.max_events = 1;
  obs::TraceContext trace(config);
  for (int i = 0; i < 4; ++i) {
    trace.span(obs::Track::kHost, "s", SimDuration::micros(1));
  }
  log::close_json_sink();
  EXPECT_EQ(trace.dropped(), 3u);

  // Exactly one warning for the whole run — the first drop announces the
  // truncation (with the remedy), the rest stay quiet.
  std::ifstream in(sink);
  std::string line;
  int cap_warnings = 0;
  while (std::getline(in, line)) {
    if (line.find("event cap") != std::string::npos) {
      ++cap_warnings;
    }
  }
  EXPECT_EQ(cap_warnings, 1);
  std::filesystem::remove(sink);
}

TEST(TraceContextTest, HostileNamesRoundTripThroughToolsParser) {
  // The adversarial case: quotes, backslashes, raw control bytes, UTF-8,
  // and text that *looks* like an escape. Round-trip through the same
  // parser the offline tools use (tools/json_min.hpp), not the exporter's
  // own inverse, so both sides of the contract are exercised.
  const std::string hostile =
      "\"quoted\" back\\slash\nnewline\rret\ttab \x01\x1f ctrl "
      "\xE2\x9C\x93 utf8 literal \\u0041 not-an-escape";
  obs::TraceContext trace;
  trace.begin_request(3);
  trace.span(obs::Track::kLink, hostile, SimDuration::micros(5),
             {{hostile, hostile}});
  trace.end_request();

  const std::optional<Json> doc = JsonParser(trace.chrome_trace_json()).parse();
  ASSERT_TRUE(doc.has_value());
  bool found = false;
  for (const auto& event : doc->at("traceEvents").array) {
    if (event.at("ph").string != "X") {
      continue;
    }
    found = true;
    EXPECT_EQ(event.at("name").string, hostile);
    EXPECT_EQ(event.at("args").at(hostile).string, hostile);
    EXPECT_EQ(event.at("args").at("req").number, 3.0);
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Request traces and the exemplar store
// ---------------------------------------------------------------------------

TEST(RequestTraceTest, FinalizeMakesStagesSumExactlyToLatency) {
  obs::RequestTrace request;
  request.begin(42, SimDuration::seconds(0.1));
  // Awkward magnitudes on purpose: thirds and sevenths accumulate rounding
  // that a naive "sum whatever order" would expose as a ULP mismatch.
  request.append(obs::Stage::kQueueWait, SimDuration::seconds(1e-3 / 3.0));
  request.append(obs::Stage::kTransfer, SimDuration::seconds(7e-7 / 3.0));
  for (std::uint32_t i = 0; i < 48; ++i) {
    request.append(obs::Stage::kDevice, SimDuration::seconds(2.29167e-6), i);
    request.append(obs::Stage::kHost, SimDuration::seconds(3.2e-8 / 7.0), i);
  }
  request.append(obs::Stage::kUpdate, SimDuration::seconds(4.6064e-5));
  // End strictly past the cursor: the slack lands in kOther.
  request.finalize(request.cursor + SimDuration::seconds(1e-9));

  EXPECT_EQ(request.attribution.total(), request.latency());
  EXPECT_GT(request.attribution[obs::Stage::kOther].to_seconds(), 0.0);

  // The JSONL record re-verifies downstream: %.17g survives the round trip,
  // so the parsed stage values still sum exactly to the parsed latency when
  // replayed in the canonical stage order.
  const std::optional<Json> doc =
      JsonParser(obs::request_trace_json(request, "tail_latency")).parse();
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->str_or("schema", ""), "hdc-request-trace-v1");
  EXPECT_EQ(doc->num_or("request_id", -1.0), 42.0);
  const Json& attribution = doc->at("attribution");
  double replayed = 0.0;
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    replayed += attribution.num_or(obs::stage_name(static_cast<obs::Stage>(i)), 0.0);
  }
  EXPECT_EQ(replayed, doc->num_or("latency_s", -1.0));
}

TEST(ExemplarStoreTest, EnforcesByteBoundAndPerReasonCap) {
  obs::RequestTrace chain;
  chain.begin(0, SimDuration());
  chain.append(obs::Stage::kDevice, SimDuration::micros(1));
  chain.finalize(chain.cursor);
  const std::size_t chain_bytes = chain.approx_bytes();

  obs::ExemplarConfig config;
  config.max_bytes = chain_bytes * 3 + chain_bytes / 2;  // room for 3 chains
  config.max_per_reason = 2;
  obs::ExemplarStore store(config);

  const auto offer = [&](std::uint64_t id, obs::ExemplarReason reason) {
    obs::RequestTrace copy = chain;
    copy.request_id = id;
    const bool stored = store.offer(reason, std::move(copy));
    // The hard bound holds after every single offer, not just at the end.
    EXPECT_LE(store.approx_bytes(), config.max_bytes);
    EXPECT_LE(store.peak_bytes(), config.max_bytes);
    return stored;
  };

  EXPECT_TRUE(offer(1, obs::ExemplarReason::kTailLatency));
  EXPECT_TRUE(offer(2, obs::ExemplarReason::kTailLatency));
  // Per-reason cap: the oldest tail exemplar makes room for the newest.
  EXPECT_TRUE(offer(3, obs::ExemplarReason::kTailLatency));
  EXPECT_EQ(store.find(1), nullptr);
  EXPECT_NE(store.find(2), nullptr);
  EXPECT_NE(store.find(3), nullptr);
  EXPECT_EQ(store.evicted(), 1u);

  // Byte bound: a fourth chain of a different reason evicts the global
  // oldest until it fits.
  EXPECT_TRUE(offer(4, obs::ExemplarReason::kShed));
  EXPECT_TRUE(offer(5, obs::ExemplarReason::kShed));
  EXPECT_EQ(store.find(2), nullptr);
  EXPECT_EQ(store.retained(), 3u);
  EXPECT_EQ(store.offered(), 5u);

  // A chain that cannot fit even into an empty store is refused whole.
  obs::RequestTrace oversized = chain;
  oversized.request_id = 6;
  oversized.spans.resize(config.max_bytes / sizeof(obs::StageSpan) + 1);
  EXPECT_FALSE(store.offer(obs::ExemplarReason::kExpired, std::move(oversized)));
  EXPECT_EQ(store.find(6), nullptr);

  // The JSONL export has one parseable record per retained exemplar.
  std::istringstream lines(store.to_jsonl());
  std::string line;
  std::size_t records = 0;
  while (std::getline(lines, line)) {
    const std::optional<Json> doc = JsonParser(line).parse();
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_EQ(doc->str_or("schema", ""), "hdc-request-trace-v1");
    ++records;
  }
  EXPECT_EQ(records, store.retained());
}

TEST(TraceContextTest, TrackNamesAreDistinct) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < obs::kNumTracks; ++i) {
    names.emplace_back(obs::track_name(static_cast<obs::Track>(i)));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CountersAndGaugesAccumulate) {
  obs::MetricsRegistry metrics;
  EXPECT_TRUE(metrics.empty());
  metrics.counter("usb.transfers").add(2);
  metrics.counter("usb.transfers").add(3);
  metrics.gauge("infer.accuracy").set(0.25);
  metrics.gauge("infer.accuracy").set(0.75);
  EXPECT_FALSE(metrics.empty());
  EXPECT_EQ(metrics.counter("usb.transfers").value(), 5u);
  EXPECT_DOUBLE_EQ(metrics.gauge("infer.accuracy").value(), 0.75);
}

TEST(MetricsTest, ReferencesAreStableAcrossInserts) {
  obs::MetricsRegistry metrics;
  obs::Counter& first = metrics.counter("a");
  for (int i = 0; i < 100; ++i) {
    metrics.counter("name" + std::to_string(i)).add(1);
  }
  first.add(7);
  EXPECT_EQ(metrics.counter("a").value(), 7u);
}

TEST(MetricsTest, HistogramBucketsAndMoments) {
  obs::MetricsRegistry metrics;
  obs::DurationHistogram& h = metrics.histogram("latency");
  h.observe(SimDuration::nanos(0.5));    // <= 1 ns -> bucket 0
  h.observe(SimDuration::micros(5));     // <= 10 us -> bucket 4
  h.observe(SimDuration::micros(5));
  h.observe(SimDuration::seconds(5000));  // beyond 1000 s -> overflow bucket

  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(4), 2u);
  EXPECT_EQ(h.bucket_count(obs::DurationHistogram::kFiniteBuckets), 1u);
  EXPECT_EQ(h.min(), SimDuration::nanos(0.5));
  EXPECT_EQ(h.max(), SimDuration::seconds(5000));
  EXPECT_DOUBLE_EQ(h.sum().to_seconds(),
                   (SimDuration::nanos(0.5) + SimDuration::micros(10) +
                    SimDuration::seconds(5000))
                       .to_seconds());
  EXPECT_DOUBLE_EQ(h.mean().to_seconds(), h.sum().to_seconds() / 4.0);
}

TEST(MetricsTest, WeightedObserveCountsOnce) {
  obs::DurationHistogram h;
  h.observe(SimDuration::micros(2), 10);  // 10 equal samples in one call
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.sum().to_micros(), 20.0);
  EXPECT_EQ(h.min(), SimDuration::micros(2));
  EXPECT_EQ(h.max(), SimDuration::micros(2));
}

TEST(MetricsTest, JsonExportParsesAndRoundTrips) {
  obs::MetricsRegistry metrics;
  metrics.counter("tpu.invocations").add(42);
  metrics.gauge("train.total_s").set(1.5);
  metrics.histogram("tpu.sample_latency").observe(SimDuration::micros(3));

  const std::optional<Json> doc = JsonParser(metrics.to_json()).parse();
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("counters").at("tpu.invocations").number, 42.0);
  EXPECT_DOUBLE_EQ(doc->at("gauges").at("train.total_s").at("value").number, 1.5);
  EXPECT_DOUBLE_EQ(doc->at("gauges").at("train.total_s").at("max").number, 1.5);
  const Json& h = doc->at("histograms").at("tpu.sample_latency");
  EXPECT_EQ(h.at("count").number, 1.0);
  EXPECT_NEAR(h.at("sum_s").number, 3e-6, 1e-12);
  // 13 finite log-scale buckets + the overflow bucket.
  EXPECT_EQ(h.at("buckets").array.size(),
            static_cast<std::size_t>(obs::DurationHistogram::kBuckets));
  EXPECT_EQ(h.at("buckets").array.back().at("le_s").string, "inf");
}

TEST(MetricsTest, TableRendersAllMetricTypes) {
  obs::MetricsRegistry metrics;
  metrics.counter("usb.transfers").add(5);
  metrics.gauge("infer.accuracy").set(0.875);
  metrics.histogram("latency").observe(SimDuration::micros(7));

  const std::string table = metrics.to_table();
  EXPECT_NE(table.find("metric"), std::string::npos);
  EXPECT_NE(table.find("usb.transfers"), std::string::npos);
  EXPECT_NE(table.find("counter"), std::string::npos);
  EXPECT_NE(table.find("infer.accuracy"), std::string::npos);
  EXPECT_NE(table.find("gauge"), std::string::npos);
  EXPECT_NE(table.find("latency"), std::string::npos);
  EXPECT_NE(table.find("histogram"), std::string::npos);
}

TEST(MetricsTest, GaugeTracksMaxWatermark) {
  obs::MetricsRegistry metrics;
  obs::Gauge& g = metrics.gauge("sram.used_bytes");
  g.set(3000.0);
  g.set(1000.0);
  EXPECT_DOUBLE_EQ(g.value(), 1000.0);
  EXPECT_DOUBLE_EQ(g.max(), 3000.0);

  const std::optional<Json> doc = JsonParser(metrics.to_json()).parse();
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->at("gauges").at("sram.used_bytes").at("value").number, 1000.0);
  EXPECT_DOUBLE_EQ(doc->at("gauges").at("sram.used_bytes").at("max").number, 3000.0);
}

TEST(MetricsTest, HistogramQuantilesInterpolateAndClamp) {
  obs::DurationHistogram h;
  // 100 identical 5 us observations: every quantile must clamp to the exact
  // observed value, not a bucket midpoint.
  h.observe(SimDuration::micros(5), 100);
  EXPECT_EQ(h.quantile(0.5), SimDuration::micros(5));
  EXPECT_EQ(h.quantile(0.99), SimDuration::micros(5));

  obs::DurationHistogram spread;
  for (int i = 1; i <= 100; ++i) {
    spread.observe(SimDuration::micros(i));  // spans the 1..100 us decades
  }
  const SimDuration p50 = spread.quantile(0.50);
  const SimDuration p95 = spread.quantile(0.95);
  const SimDuration p99 = spread.quantile(0.99);
  // Monotone and bounded by the observed extremes.
  EXPECT_LE(spread.min(), p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, spread.max());
  // p50 of a 1..100 us uniform sweep sits in the 10..100 us decade.
  EXPECT_GE(p50, SimDuration::micros(10));
  EXPECT_LE(p50, SimDuration::micros(100));
}

TEST(MetricsTest, QuantileOfOverflowBucketReturnsMax) {
  obs::DurationHistogram h;
  h.observe(SimDuration::seconds(5000), 10);  // all mass beyond the last decade
  EXPECT_EQ(h.quantile(0.5), SimDuration::seconds(5000));
}

TEST(MetricsTest, EmptyHistogramExportsNullStats) {
  obs::MetricsRegistry metrics;
  metrics.histogram("never.observed");

  const std::optional<Json> doc = JsonParser(metrics.to_json()).parse();
  ASSERT_TRUE(doc.has_value());
  const Json& h = doc->at("histograms").at("never.observed");
  EXPECT_EQ(h.at("count").number, 0.0);
  // No observations -> no min/max/quantiles, exported as null rather than a
  // misleading default-constructed duration.
  EXPECT_EQ(h.at("min_s").type, Json::Type::kNull);
  EXPECT_EQ(h.at("max_s").type, Json::Type::kNull);
  EXPECT_EQ(h.at("mean_s").type, Json::Type::kNull);
  EXPECT_EQ(h.at("p50_s").type, Json::Type::kNull);
  EXPECT_EQ(h.at("p99_s").type, Json::Type::kNull);

  EXPECT_NE(metrics.to_table().find("n=0"), std::string::npos);
}

TEST(MetricsTest, HistogramJsonExportsQuantiles) {
  obs::MetricsRegistry metrics;
  obs::DurationHistogram& h = metrics.histogram("latency");
  for (int i = 1; i <= 50; ++i) {
    h.observe(SimDuration::micros(2 * i));
  }
  const std::optional<Json> doc = JsonParser(metrics.to_json()).parse();
  ASSERT_TRUE(doc.has_value());
  const Json& exported = doc->at("histograms").at("latency");
  EXPECT_DOUBLE_EQ(exported.at("p50_s").number, h.quantile(0.5).to_seconds());
  EXPECT_DOUBLE_EQ(exported.at("p95_s").number, h.quantile(0.95).to_seconds());
  EXPECT_DOUBLE_EQ(exported.at("p99_s").number, h.quantile(0.99).to_seconds());
}

// ---------------------------------------------------------------------------
// Timing-report algebra the metrics layer summarizes (report.hpp, stats.hpp)
// ---------------------------------------------------------------------------

TEST(TrainTimingsTest, TotalSumsAllPhases) {
  runtime::TrainTimings t;
  t.encode = SimDuration::millis(3);
  t.update = SimDuration::millis(2);
  t.model_gen = SimDuration::millis(1);
  EXPECT_EQ(t.total(), SimDuration::millis(6));
}

TEST(TrainTimingsTest, PlusEqualsAccumulatesFieldwise) {
  runtime::TrainTimings a;
  a.encode = SimDuration::millis(1);
  a.update = SimDuration::millis(2);
  a.model_gen = SimDuration::millis(3);
  runtime::TrainTimings b;
  b.encode = SimDuration::millis(10);
  b.update = SimDuration::millis(20);
  b.model_gen = SimDuration::millis(30);

  a += b;
  EXPECT_EQ(a.encode, SimDuration::millis(11));
  EXPECT_EQ(a.update, SimDuration::millis(22));
  EXPECT_EQ(a.model_gen, SimDuration::millis(33));
  EXPECT_EQ(a.total(), SimDuration::millis(66));
  // The right-hand side is untouched.
  EXPECT_EQ(b.total(), SimDuration::millis(60));
}

TEST(ExecutionStatsTest, SerialTotalSumsStagesAndBackoff) {
  tpu::ExecutionStats stats;
  stats.device_compute = SimDuration::micros(100);
  stats.host_compute = SimDuration::micros(10);
  stats.transfer = SimDuration::micros(50);
  stats.weight_upload = SimDuration::micros(5);
  stats.retry_backoff = SimDuration::micros(200);
  EXPECT_EQ(stats.total(), SimDuration::micros(365));
}

TEST(ExecutionStatsTest, PipelinedTotalReplacesStageSum) {
  tpu::ExecutionStats stats;
  stats.device_compute = SimDuration::micros(100);
  stats.host_compute = SimDuration::micros(10);
  stats.transfer = SimDuration::micros(50);
  stats.weight_upload = SimDuration::micros(5);
  stats.retry_backoff = SimDuration::micros(200);
  // Overlap brings the makespan below the stage sum; total() must use it and
  // must NOT re-add the overlapped stage fields.
  stats.pipelined_makespan = SimDuration::micros(120);
  EXPECT_EQ(stats.total(), SimDuration::micros(5 + 120 + 200));
  EXPECT_LT(stats.total(), SimDuration::micros(365));
}

// ---------------------------------------------------------------------------
// Framework integration: tracing is inert when disabled and reconciles with
// the reported timings when enabled.
// ---------------------------------------------------------------------------

class ObsFrameworkTest : public ::testing::Test {
 protected:
  static data::Dataset make_dataset() {
    data::SyntheticSpec spec;
    spec.name = "obs_test";
    spec.samples = 160;
    spec.features = 16;
    spec.classes = 4;
    spec.seed = 17;
    return data::generate_synthetic(spec, spec.samples);
  }

  static core::HdConfig small_config() {
    core::HdConfig config;
    config.dim = 256;
    config.epochs = 2;
    config.seed = 5;
    return config;
  }
};

TEST_F(ObsFrameworkTest, NullTraceIsBitIdenticalToTraced) {
  const data::Dataset dataset = make_dataset();
  const core::HdConfig config = small_config();

  runtime::CoDesignFramework plain;
  const auto trained = plain.train_tpu(dataset, config);
  const auto baseline = plain.infer_tpu(trained.classifier, dataset, dataset);

  obs::TraceContext trace;
  obs::MetricsRegistry metrics;
  trace.set_metrics(&metrics);
  runtime::CoDesignFramework traced;
  traced.set_trace(&trace);
  const auto trained2 = traced.train_tpu(dataset, config);
  const auto observed = traced.infer_tpu(trained2.classifier, dataset, dataset);

  EXPECT_EQ(observed.predictions, baseline.predictions);
  EXPECT_EQ(observed.accuracy, baseline.accuracy);
  EXPECT_EQ(observed.timings.total, baseline.timings.total);
  EXPECT_EQ(observed.timings.per_sample, baseline.timings.per_sample);
  EXPECT_GT(trace.size(), 0u);
  EXPECT_FALSE(metrics.empty());
}

TEST_F(ObsFrameworkTest, InferSpansReconcileWithReportedTotal) {
  const data::Dataset dataset = make_dataset();

  obs::TraceContext trace;
  runtime::CoDesignFramework framework;
  framework.set_trace(&trace);
  const auto trained = framework.train_tpu(dataset, small_config());

  const SimDuration before = trace.now();
  const auto outcome = framework.infer_tpu(trained.classifier, dataset, dataset);

  // infer_tpu's total excludes the one-time weight upload; the phase spans
  // laid down during the invoke must sum to it exactly (modulo float
  // rounding across the per-sample accumulation).
  const double total_s = outcome.timings.total.to_seconds();

  SimDuration spans;
  for (const auto& event : trace.events()) {
    if (event.kind != obs::TraceEvent::Kind::kSpan || event.start < before) {
      continue;
    }
    if (event.name == "usb.transfer" || event.name == "mxu.invoke" ||
        event.name == "host.compute") {
      spans += event.duration;
    }
  }
  EXPECT_NEAR(spans.to_seconds(), total_s, 1e-9 + 1e-9 * total_s);

  // The infer.tpu envelope starts after the one-time weight upload (which
  // gets its own span), so it covers exactly the phase spans.
  SimDuration envelope;
  SimDuration upload;
  for (const auto& event : trace.events()) {
    if (event.start < before) {
      continue;
    }
    if (event.name == "infer.tpu") {
      envelope = event.duration;
    }
    if (event.name == "usb.weight_upload") {
      upload = event.duration;
    }
  }
  EXPECT_GT(upload, SimDuration());
  EXPECT_NEAR(envelope.to_seconds(), spans.to_seconds(), 1e-9 + 1e-9 * total_s);
}

TEST_F(ObsFrameworkTest, TrainEncodeSpanMatchesReportedEncodeTime) {
  const data::Dataset dataset = make_dataset();

  obs::TraceContext trace;
  runtime::CoDesignFramework framework;
  framework.set_trace(&trace);
  const auto outcome = framework.train_tpu(dataset, small_config());

  const double encode_s = outcome.timings.encode.to_seconds();
  EXPECT_NEAR(trace.span_total("train.encode").to_seconds(), encode_s,
              1e-9 + 1e-9 * encode_s);
  const double update_s = outcome.timings.update.to_seconds();
  EXPECT_NEAR(trace.span_total("train.update").to_seconds(), update_s,
              1e-9 + 1e-9 * update_s);
  const double gen_s = outcome.timings.model_gen.to_seconds();
  EXPECT_NEAR(trace.span_total("train.model_gen").to_seconds(), gen_s,
              1e-9 + 1e-9 * gen_s);
}

// ---------------------------------------------------------------------------
// Utilization profiler (obs/profile.hpp): every derived fraction must be a
// genuine fraction, busy times must fit the traced interval, and the cache
// counters must reconcile exactly.
// ---------------------------------------------------------------------------

class ProfileTest : public ObsFrameworkTest {
 protected:
  struct Traced {
    obs::TraceContext trace;
    obs::MetricsRegistry metrics;
  };

  // Runs a full traced train + infer on the TPU path and leaves the streams
  // in `t` (TraceContext is not movable, so the caller owns the storage).
  static void run_traced(Traced& t) {
    const data::Dataset dataset = make_dataset();
    t.trace.set_metrics(&t.metrics);
    runtime::CoDesignFramework framework;
    framework.set_trace(&t.trace);
    const auto trained = framework.train_tpu(dataset, small_config());
    framework.infer_tpu(trained.classifier, dataset, dataset);
  }
};

TEST_F(ProfileTest, UtilizationsAreFractionsAndBusyFitsInterval) {
  Traced t;
  run_traced(t);
  const obs::ProfileReport profile = obs::compute_profile(t.trace, t.metrics);

  EXPECT_GT(profile.interval, SimDuration());
  EXPECT_EQ(profile.trace_events, t.trace.size());

  // Busy time per component never exceeds the traced interval, so every
  // utilization is a fraction.
  EXPECT_LE(profile.mxu_busy, profile.interval);
  EXPECT_LE(profile.link_busy, profile.interval);
  EXPECT_LE(profile.host_busy, profile.interval);
  for (const double fraction :
       {profile.mxu_occupancy, profile.link_utilization, profile.host_utilization,
        profile.mxu_efficiency, profile.link_efficiency, profile.cache_hit_rate,
        profile.sram_peak_fraction, profile.fallback_rate}) {
    EXPECT_GE(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
  }

  // The TPU path actually exercised every component.
  EXPECT_GT(profile.mxu_occupancy, 0.0);
  EXPECT_GT(profile.link_utilization, 0.0);
  EXPECT_GT(profile.device_macs, 0u);
  EXPECT_GT(profile.executor_invocations, 0u);

  // Achieved rates cannot beat the configured hardware.
  EXPECT_GT(profile.peak_macs_per_s, 0.0);
  EXPECT_LE(profile.achieved_macs_per_s, profile.peak_macs_per_s * (1.0 + 1e-9));
  EXPECT_GT(profile.configured_bandwidth_bytes_per_s, 0.0);
  EXPECT_LE(profile.effective_bandwidth_bytes_per_s,
            profile.configured_bandwidth_bytes_per_s * (1.0 + 1e-9));
}

TEST_F(ProfileTest, CacheCountersReconcileExactly) {
  Traced t;
  run_traced(t);
  const obs::ProfileReport profile = obs::compute_profile(t.trace, t.metrics);

  EXPECT_GT(profile.cache_lookups, 0u);
  EXPECT_EQ(profile.cache_hits + profile.cache_misses, profile.cache_lookups);
  EXPECT_GT(profile.sram_capacity_bytes, 0.0);
  EXPECT_GT(profile.sram_peak_bytes, 0.0);
  EXPECT_LE(profile.sram_peak_bytes, profile.sram_capacity_bytes);
  // Every resident model was inserted once; evictions cannot outnumber
  // insertions.
  EXPECT_GE(profile.cache_insertions, 1u);
  EXPECT_LE(profile.cache_evictions, profile.cache_insertions);
}

TEST_F(ProfileTest, ComputingProfileIsPureDerivation) {
  Traced t;
  run_traced(t);
  const std::size_t events_before = t.trace.size();
  const std::string metrics_before = t.metrics.to_json();

  const obs::ProfileReport a = obs::compute_profile(t.trace, t.metrics);
  const obs::ProfileReport b = obs::compute_profile(t.trace, t.metrics);

  EXPECT_EQ(t.trace.size(), events_before);
  EXPECT_EQ(t.metrics.to_json(), metrics_before);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST_F(ProfileTest, JsonExportParsesWithAllSections) {
  Traced t;
  run_traced(t);
  parallel::PoolStats pool;
  pool.regions = 4;
  pool.chunks = 16;
  pool.busy_seconds = 3.0;
  pool.wall_seconds = 1.0;
  const obs::ProfileReport profile =
      obs::compute_profile(t.trace, t.metrics, &pool, 4);

  const std::optional<Json> doc = JsonParser(profile.to_json()).parse();
  ASSERT_TRUE(doc.has_value());
  EXPECT_GT(doc->at("interval_s").number, 0.0);
  for (const char* section : {"trace", "mxu", "link", "host", "cache", "pool",
                              "executor"}) {
    EXPECT_TRUE(doc->has(section)) << section;
  }
  // JSON serializes doubles to limited significant digits, so compare with a
  // matching relative tolerance rather than bit-exactly.
  EXPECT_NEAR(doc->at("mxu").at("occupancy").number, profile.mxu_occupancy,
              1e-8 * std::max(1.0, std::fabs(profile.mxu_occupancy)));
  EXPECT_NEAR(doc->at("cache").at("hit_rate").number, profile.cache_hit_rate, 1e-8);
  EXPECT_DOUBLE_EQ(doc->at("pool").at("speedup").number, 3.0);
  EXPECT_DOUBLE_EQ(doc->at("pool").at("busy_fraction").number, 0.75);

  const std::string table = profile.to_table();
  EXPECT_NE(table.find("mxu"), std::string::npos);
  EXPECT_NE(table.find("link"), std::string::npos);
  EXPECT_NE(table.find("cache"), std::string::npos);
}

TEST_F(ProfileTest, EmptyStreamsProduceZeroedReport) {
  obs::TraceContext trace;
  obs::MetricsRegistry metrics;
  const obs::ProfileReport profile = obs::compute_profile(trace, metrics);
  EXPECT_EQ(profile.interval, SimDuration());
  EXPECT_EQ(profile.mxu_occupancy, 0.0);
  EXPECT_EQ(profile.cache_lookups, 0u);
  // Exports still work on the all-zero report.
  const std::optional<Json> doc = JsonParser(profile.to_json()).parse();
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("interval_s").number, 0.0);
  EXPECT_FALSE(profile.to_table().empty());
}

// ---------------------------------------------------------------------------
// CLI end-to-end: `hdc infer --trace` writes a parseable Chrome trace whose
// spans reconcile with the reported total (the PR's acceptance contract).
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

hdc_test::RunResult run_cli(const std::string& args) {
  return hdc_test::run_tool(HDC_CLI_PATH, args);
}

std::string slurp(const fs::path& path) {
  return tools::read_file(path.string()).value_or("");
}

class ObsCliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One directory per test process: ctest runs each test of this suite
    // in its own process, possibly concurrently, and TearDownTestSuite
    // removes the directory.
    dir_ = new fs::path(fs::temp_directory_path() /
                        ("hdc_obs_cli_test_" + std::to_string(::getpid())));
    fs::create_directories(*dir_);
    std::ofstream csv(*dir_ / "data.csv");
    for (int i = 0; i < 240; ++i) {
      const int c = i % 3;
      const double jitter = 0.1 * ((i * 37 % 19) - 9) / 9.0;
      csv << c * 1.0 + jitter << "," << 1.0 - c * 0.4 + jitter << ","
          << c * c * 0.2 + jitter << "," << 0.5 - jitter << ",class" << c << "\n";
    }
    csv.close();
    const auto train = run_cli("train " + path("data.csv") + " --out " +
                               path("model.hdcm") + " --dim 256 --epochs 2");
    ASSERT_EQ(train.exit_code, 0) << train.output;
  }
  static void TearDownTestSuite() {
    fs::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  static std::string path(const char* name) { return (*dir_ / name).string(); }
  static fs::path* dir_;
};

fs::path* ObsCliTest::dir_ = nullptr;

TEST_F(ObsCliTest, InferTraceProducesValidChromeTraceThatReconciles) {
  const auto result =
      run_cli("infer " + path("data.csv") + " --model " + path("model.hdcm") +
              " --tpu --trace " + path("out.trace.json") + " --metrics " +
              path("out.metrics.json"));
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("wrote"), std::string::npos);

  const std::optional<Json> doc = JsonParser(slurp(*dir_ / "out.trace.json")).parse();
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("displayTimeUnit").string, "ms");
  const auto& events = doc->at("traceEvents").array;
  ASSERT_FALSE(events.empty());

  double transfer_us = 0.0, device_us = 0.0, host_us = 0.0, envelope_us = 0.0;
  int metadata = 0;
  for (const auto& event : events) {
    const std::string& ph = event.at("ph").string;
    if (ph == "M") {
      ++metadata;
      continue;
    }
    if (ph != "X") {
      continue;
    }
    const std::string& name = event.at("name").string;
    const double dur = event.at("dur").number;
    if (name == "usb.transfer") {
      transfer_us += dur;
    } else if (name == "mxu.invoke") {
      device_us += dur;
    } else if (name == "host.compute") {
      host_us += dur;
    } else if (name == "infer.tpu") {
      envelope_us = dur;
    }
  }
  EXPECT_GE(metadata, static_cast<int>(obs::kNumTracks));
  // Spans for transfer, device compute, and host compute all present...
  EXPECT_GT(transfer_us, 0.0);
  EXPECT_GT(device_us, 0.0);
  EXPECT_GT(host_us, 0.0);
  // ...and their simulated times reconcile with the reported total (the
  // infer.tpu envelope is exactly that total; µs timestamps round at 1e-6).
  const double phase_us = transfer_us + device_us + host_us;
  EXPECT_NEAR(phase_us, envelope_us, 1e-2 + 1e-6 * envelope_us);

  // The reported total in the metrics file matches the span sum too.
  const std::optional<Json> metrics =
      JsonParser(slurp(*dir_ / "out.metrics.json")).parse();
  ASSERT_TRUE(metrics.has_value());
  const double total_s = metrics->at("gauges").at("infer.total_s").at("value").number;
  EXPECT_NEAR(phase_us * 1e-6, total_s, 1e-8 + 1e-6 * total_s);
  EXPECT_EQ(metrics->at("counters").at("infer.samples").number, 240.0);
}

TEST_F(ObsCliTest, TraceCapTruncatesWithWarning) {
  const auto result =
      run_cli("infer " + path("data.csv") + " --model " + path("model.hdcm") +
              " --tpu --trace " + path("capped.trace.json") + " --trace-cap 4");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("truncated"), std::string::npos) << result.output;

  const std::optional<Json> doc = JsonParser(slurp(*dir_ / "capped.trace.json")).parse();
  ASSERT_TRUE(doc.has_value());
  bool truncated_marker = false;
  std::size_t real_events = 0;
  for (const auto& event : doc->at("traceEvents").array) {
    if (event.at("ph").string == "M") {
      continue;
    }
    if (event.at("name").string == "trace.truncated") {
      truncated_marker = true;
    } else {
      ++real_events;
    }
  }
  EXPECT_TRUE(truncated_marker);
  EXPECT_LE(real_events, 4u);
}

TEST_F(ObsCliTest, CpuInferWithMetricsOnly) {
  const auto result =
      run_cli("infer " + path("data.csv") + " --model " + path("model.hdcm") +
              " --metrics " + path("cpu.metrics.json"));
  ASSERT_EQ(result.exit_code, 0) << result.output;
  const std::optional<Json> metrics =
      JsonParser(slurp(*dir_ / "cpu.metrics.json")).parse();
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->at("counters").at("host.samples").number, 240.0);
  EXPECT_TRUE(metrics->at("gauges").has("infer.accuracy"));
}

// Extracts the deterministic result lines (`accuracy: ...` and
// `simulated latency: ...`) from a CLI run's output.
std::string result_lines(const std::string& output) {
  std::istringstream in(output);
  std::string line;
  std::string picked;
  while (std::getline(in, line)) {
    if (line.rfind("accuracy:", 0) == 0 || line.rfind("simulated latency:", 0) == 0) {
      picked += line;
      picked.push_back('\n');
    }
  }
  return picked;
}

TEST_F(ObsCliTest, ProfileFlagWritesReconcilingProfileWithoutChangingResults) {
  const auto plain =
      run_cli("infer " + path("data.csv") + " --model " + path("model.hdcm") + " --tpu");
  ASSERT_EQ(plain.exit_code, 0) << plain.output;

  const auto profiled =
      run_cli("infer " + path("data.csv") + " --model " + path("model.hdcm") +
              " --tpu --profile " + path("out.profile.json"));
  ASSERT_EQ(profiled.exit_code, 0) << profiled.output;

  // Determinism: the profiler observes, it never perturbs — accuracy and the
  // simulated timings are identical with and without --profile.
  EXPECT_EQ(result_lines(plain.output), result_lines(profiled.output));
  EXPECT_FALSE(result_lines(profiled.output).empty());

  // The profile is printed as a table and written as JSON.
  EXPECT_NE(profiled.output.find("mxu occupancy"), std::string::npos);
  EXPECT_NE(profiled.output.find("link utilization"), std::string::npos);
  EXPECT_NE(profiled.output.find("param cache"), std::string::npos);

  const std::optional<Json> profile =
      JsonParser(slurp(*dir_ / "out.profile.json")).parse();
  ASSERT_TRUE(profile.has_value());
  EXPECT_GT(profile->at("interval_s").number, 0.0);
  const double occupancy = profile->at("mxu").at("occupancy").number;
  const double link_util = profile->at("link").at("utilization").number;
  const double hit_rate = profile->at("cache").at("hit_rate").number;
  for (const double fraction : {occupancy, link_util, hit_rate}) {
    EXPECT_GE(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
  }
  EXPECT_GT(occupancy, 0.0);
  EXPECT_GT(link_util, 0.0);

  // Counter reconciliation straight off the exported JSON.
  const double lookups = profile->at("cache").at("lookups").number;
  const double hits = profile->at("cache").at("hits").number;
  const double misses = profile->at("cache").at("misses").number;
  EXPECT_EQ(hits + misses, lookups);

  // Busy time fits the interval for every component section.
  const double interval_s = profile->at("interval_s").number;
  EXPECT_LE(profile->at("mxu").at("busy_s").number, interval_s);
  EXPECT_LE(profile->at("link").at("busy_s").number, interval_s);
  EXPECT_LE(profile->at("host").at("busy_s").number, interval_s);
}

TEST_F(ObsCliTest, MalformedTraceCapWarnsAndKeepsDefault) {
  const auto result =
      run_cli("infer " + path("data.csv") + " --model " + path("model.hdcm") +
              " --tpu --trace " + path("cap.trace.json") + " --trace-cap bogus");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("warning: ignoring malformed --trace-cap 'bogus'"),
            std::string::npos);
  // The run proceeded with the default cap and still wrote the trace.
  EXPECT_NE(result.output.find("wrote"), std::string::npos);
}

}  // namespace

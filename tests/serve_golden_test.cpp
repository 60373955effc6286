// Golden-output oracle for the two serving loops. Each test runs one small,
// fixed `serve` or `serve_fleet` configuration and reduces every artefact it
// produces (predictions, per-chunk stats, request traces, snapshots,
// Prometheus text, exemplars, checkpoints, health transitions, shard and
// tenant results, the JSONL log) to a 64-bit FNV-1a digest, compared with a
// constant recorded from a known-good build. A refactor of the serving code
// must leave every constant untouched; a mismatch names the artefact.
//
// The digests cover raw double bits, so they hold only where the simulated
// figures are reproducible bit for bit: x86-64 with glibc (the CI platform).
// Elsewhere every test skips with a message.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "core/serialize.hpp"
#include "data/synthetic.hpp"
#include "lite/serialize.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "runtime/framework.hpp"
#include "runtime/router.hpp"
#include "runtime/serve.hpp"
#include "tpu/faults.hpp"

namespace hdc::runtime {
namespace {

namespace fs = std::filesystem;

#if defined(__x86_64__) && defined(__GLIBC__)
constexpr bool kGoldenPlatform = true;
#else
constexpr bool kGoldenPlatform = false;
#endif

#define HDC_SKIP_OFF_GOLDEN_PLATFORM()                                               \
  if (!kGoldenPlatform) {                                                            \
    GTEST_SKIP() << "golden digests were recorded on x86-64 glibc; the simulated "   \
                    "figures are not pinned bit for bit on this platform";           \
  }

/// 64-bit FNV-1a over the bytes fed in.
class Digest {
 public:
  Digest& bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001B3ULL;
    }
    return *this;
  }
  template <typename T>
  Digest& pod(T value) {
    return bytes(&value, sizeof(value));
  }
  Digest& str(std::string_view s) {
    pod<std::uint64_t>(s.size());
    return bytes(s.data(), s.size());
  }
  Digest& time(SimDuration d) { return pod(d.to_seconds()); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::string read_text(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Digest of every regular file in `dir` whose name starts with `prefix`,
/// in name order (name and bytes both count).
std::uint64_t files_digest(const fs::path& dir, const std::string& prefix) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().filename().string().rfind(prefix, 0) == 0) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  Digest d;
  d.pod<std::uint64_t>(files.size());
  for (const fs::path& f : files) {
    d.str(f.filename().string()).str(read_text(f));
  }
  return d.value();
}

std::uint64_t text_digest(const std::string& text) { return Digest().str(text).value(); }

/// Chrome trace digest with the `#N` suffixes of compiled-model names
/// dropped: the compiler numbers models from a process-wide counter, so N
/// depends on which tests ran earlier in the same process.
std::uint64_t chrome_trace_digest(const std::string& trace) {
  std::string normalised;
  normalised.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    normalised += trace[i];
    if (trace[i] == '#') {
      while (i + 1 < trace.size() && trace[i + 1] >= '0' && trace[i + 1] <= '9') {
        ++i;
      }
    }
  }
  return text_digest(normalised);
}

std::uint64_t requests_digest(const std::vector<obs::RequestTrace>& requests) {
  Digest d;
  d.pod<std::uint64_t>(requests.size());
  for (const obs::RequestTrace& rt : requests) {
    d.str(obs::request_trace_json(rt, nullptr));
  }
  return d.value();
}

std::uint64_t predictions_digest(const std::vector<std::uint32_t>& predictions) {
  Digest d;
  d.pod<std::uint64_t>(predictions.size());
  return d.bytes(predictions.data(), predictions.size() * sizeof(std::uint32_t)).value();
}

using Artefacts = std::vector<std::pair<std::string, std::uint64_t>>;

struct Golden {
  const char* run;
  const char* artefact;
  std::uint64_t digest;
};

// Recorded from the serving code before the shard engine was extracted. The
// artefacts carrying model-quality figures (chunk stats, snapshots,
// Prometheus text, final_model, checkpoints, shards, tenant_models) were
// re-recorded when serving confidence moved to the served model's class
// scores; predictions, requests, energy, health and logs kept their digests.
constexpr Golden kGolden[] = {
    {"closed_online", "predictions", 0x8CB19FC1967FB5CDULL},
    {"closed_online", "chunk_stats", 0x17C3E3CECF055C17ULL},
    {"closed_online", "requests", 0xA377148733FF666BULL},
    {"closed_online", "final_snapshot", 0xA32301D7669111D9ULL},
    {"closed_online", "final_prometheus", 0x14CFA6B5C363D8E0ULL},
    {"closed_online", "final_model", 0x3F662E8A5EC48778ULL},
    {"closed_online", "final_energy", 0x5A038D22F90B33D6ULL},
    {"closed_online", "health", 0xD4657F55662F817FULL},
    {"closed_online", "snapshot_files", 0x958A6F2534986145ULL},
    {"closed_online", "prometheus_file", 0x14CFA6B5C363D8E0ULL},
    {"closed_online", "checkpoints", 0xDF9CF53664ECDA3CULL},
    {"closed_online", "log", 0xFC5EA89F87A2C141ULL},
    {"overload_reject_newest", "predictions", 0x8E32A92F4462CEB0ULL},
    {"overload_reject_newest", "chunk_stats", 0x00F721FB284FB766ULL},
    {"overload_reject_newest", "requests", 0x1CC5A19366333919ULL},
    {"overload_reject_newest", "final_snapshot", 0x5B5AE8AFC875E11BULL},
    {"overload_reject_newest", "final_prometheus", 0xCD7D2E0BC7D42166ULL},
    {"overload_reject_newest", "final_model", 0x98674D5B58AE3353ULL},
    {"overload_reject_newest", "final_energy", 0x446BB46DFE2D4B0AULL},
    {"overload_reject_newest", "health", 0xD4657F55662F817FULL},
    {"overload_reject_newest", "exemplars_file", 0x92E371751D2C5CD1ULL},
    {"overload_reject_newest", "log", 0xA3263259ECE03A16ULL},
    {"overload_drop_oldest", "predictions", 0x8E32A92F4462CEB0ULL},
    {"overload_drop_oldest", "chunk_stats", 0x87DA6C433C1B4F9CULL},
    {"overload_drop_oldest", "requests", 0x596D1B6F43248D18ULL},
    {"overload_drop_oldest", "final_snapshot", 0xBDAA9F61AC070734ULL},
    {"overload_drop_oldest", "final_prometheus", 0x7C1C9D8D43748F41ULL},
    {"overload_drop_oldest", "final_model", 0x98674D5B58AE3353ULL},
    {"overload_drop_oldest", "final_energy", 0x662398D4454DA7AFULL},
    {"overload_drop_oldest", "health", 0xD4657F55662F817FULL},
    {"overload_drop_oldest", "snapshot_files", 0xC34EB462B4804786ULL},
    {"overload_drop_oldest", "log", 0x17D122748494CC1BULL},
    {"overload_drop_oldest", "chrome_trace", 0x82AF0780F6CE1C40ULL},
    {"detach", "predictions", 0x86BAA7761BCDF288ULL},
    {"detach", "chunk_stats", 0x192E9B96C213B173ULL},
    {"detach", "requests", 0x21C60D9AAF843B5EULL},
    {"detach", "final_snapshot", 0xDC912EDCE701D9C5ULL},
    {"detach", "final_prometheus", 0x072F7971BA3FD506ULL},
    {"detach", "final_model", 0x14B1B6D980F4FB56ULL},
    {"detach", "final_energy", 0xF619B98A1E13ACA8ULL},
    {"detach", "health", 0xBA75F1307A30D905ULL},
    {"detach", "snapshot_files", 0x147E19E1A60FC074ULL},
    {"detach", "log", 0x79DC7A50772EC552ULL},
    {"resume", "predictions", 0x8CB19FC1967FB5CDULL},
    {"resume", "chunk_stats", 0x7F20D084915ADFF7ULL},
    {"resume", "requests", 0xB19077FB640EA03FULL},
    {"resume", "final_snapshot", 0xA32301D7669111D9ULL},
    {"resume", "final_prometheus", 0x14CFA6B5C363D8E0ULL},
    {"resume", "final_model", 0x3F662E8A5EC48778ULL},
    {"resume", "final_energy", 0x5A038D22F90B33D6ULL},
    {"resume", "health", 0xD4657F55662F817FULL},
    {"resume", "snapshot_files", 0x827A06926F711854ULL},
    {"resume", "prometheus_file", 0x14CFA6B5C363D8E0ULL},
    {"resume", "checkpoints", 0xE42D55569FA4D2C0ULL},
    {"resume", "log", 0x50BDB35E5409B52BULL},
    {"fleet_batched", "predictions", 0x97B2A538A4F8965AULL},
    {"fleet_batched", "totals", 0x3830D64965E477D3ULL},
    {"fleet_batched", "requests", 0xE02654E19B546B76ULL},
    {"fleet_batched", "fleet_snapshot", 0x10B2A1C7CC3431D0ULL},
    {"fleet_batched", "fleet_prometheus", 0x5289C72809FC6E7BULL},
    {"fleet_batched", "snapshot_files", 0xF0268805719A2450ULL},
    {"fleet_batched", "shards", 0xD0276C7A6872A7A4ULL},
    {"fleet_batched", "tenant_models", 0x4D0D33EC96346996ULL},
    {"fleet_batched", "tenant_energy", 0x94DF161145931CB8ULL},
    {"fleet_batched", "log", 0xEC1A61DEF41178ADULL},
    {"fleet_round_robin", "predictions", 0x009E1970B92B85DBULL},
    {"fleet_round_robin", "totals", 0x5C9A7F031085B77CULL},
    {"fleet_round_robin", "requests", 0x7DA91DFDF00E9FBBULL},
    {"fleet_round_robin", "fleet_snapshot", 0x6E1A7A294E69EC2DULL},
    {"fleet_round_robin", "fleet_prometheus", 0xD54B632A9CA809DDULL},
    {"fleet_round_robin", "snapshot_files", 0xF9E2CAA4A62EC313ULL},
    {"fleet_round_robin", "shards", 0xC211383A105080B4ULL},
    {"fleet_round_robin", "tenant_models", 0x127B2106407D72A4ULL},
    {"fleet_round_robin", "tenant_energy", 0x09A7849EE951F917ULL},
    {"fleet_round_robin", "log", 0xD5BB350B459D20AAULL},
    {"fleet_least_loaded", "predictions", 0x40D2E7FEBD64CE3AULL},
    {"fleet_least_loaded", "totals", 0x1665FB07110021EAULL},
    {"fleet_least_loaded", "requests", 0xCD0DBE0A02F84F87ULL},
    {"fleet_least_loaded", "fleet_snapshot", 0x5F3B48E657C69AC3ULL},
    {"fleet_least_loaded", "fleet_prometheus", 0x2E7965BF70F4BE55ULL},
    {"fleet_least_loaded", "snapshot_files", 0x0F48FF15A8A6A22BULL},
    {"fleet_least_loaded", "shards", 0x9B2A969306082BEBULL},
    {"fleet_least_loaded", "tenant_models", 0xEC017A603F7EC75CULL},
    {"fleet_least_loaded", "tenant_energy", 0x8B1DC6E3C3A68C2EULL},
    {"fleet_least_loaded", "log", 0xED57E8107BE50391ULL},
    {"fleet_least_loaded", "exemplars_file", 0xE7E5115B9F4BCB94ULL},
    // The persisted formats, over hand-built inputs (exact binary fractions,
    // no RNG and no libm), so these two hold on any little-endian host.
    {"hdcm", "classifier", 0x37F395E947FB5C93ULL},
    {"hdlt", "model", 0xC2DC0F5C213BDEEEULL},
    // The lowering of trained models into HDLite (float and compiled int8)
    // and, through train_tpu's classifier, of the encode half. Quantization
    // and training run libm, so these hold on the golden platform only.
    {"lowered", "float_model", 0xA379AE07D289A958ULL},
    {"lowered", "compiled_model", 0x06218E78571168D0ULL},
    {"lowered", "train_tpu_classifier", 0x1D9AD929BC79A7CBULL},
};

void expect_golden(const std::string& run, const Artefacts& got) {
  std::size_t expected = 0;
  for (const Golden& g : kGolden) {
    expected += run == g.run ? 1 : 0;
  }
  EXPECT_EQ(expected, got.size()) << run << ": golden table lists " << expected
                                  << " artefacts, the run produced " << got.size();
  std::string table;
  for (const auto& [artefact, digest] : got) {
    char line[160];
    std::snprintf(line, sizeof(line), "    {\"%s\", \"%s\", 0x%016" PRIX64 "ULL},\n",
                  run.c_str(), artefact.c_str(), digest);
    table += line;
    const Golden* match = nullptr;
    for (const Golden& g : kGolden) {
      if (run == g.run && artefact == g.artefact) {
        match = &g;
      }
    }
    if (match == nullptr) {
      ADD_FAILURE() << run << ": no golden digest for artefact '" << artefact << "'";
      continue;
    }
    EXPECT_EQ(match->digest, digest)
        << run << ": artefact '" << artefact << "' changed bytes";
  }
  if (::testing::Test::HasFailure()) {
    std::printf("digests of run '%s':\n%s", run.c_str(), table.c_str());
  }
}

/// A fresh output directory plus a JSONL log sink (alarm edges and the
/// end-of-run summary land there) for the lifetime of one run.
class RunDir {
 public:
  explicit RunDir(const std::string& name)
      : dir_(fs::temp_directory_path() /
             ("hdc_serve_golden_" + std::to_string(::getpid()) + "_" + name)) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    log::set_level(LogLevel::kInfo);
    log::set_json_sink((dir_ / "log.jsonl").string());
  }
  ~RunDir() {
    log::close_json_sink();
    log::set_level(LogLevel::kWarning);
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  const fs::path& path() const { return dir_; }
  std::string file(const std::string& name) const { return (dir_ / name).string(); }
  std::uint64_t log_digest() const {
    log::close_json_sink();
    return text_digest(read_text(dir_ / "log.jsonl"));
  }

 private:
  fs::path dir_;
};

// ---- single-device serve --------------------------------------------------

ServeConfig base_config() {
  ServeConfig config;
  config.stream.spec = data::paper_dataset("PAMAP2");
  config.stream.spec.seed = 0x60D3;
  config.stream.chunk_size = 32;
  config.learner.dim = 256;
  config.learner.seed = 11;
  config.warmup_chunks = 2;
  config.serve_chunks = 10;
  return config;
}

/// Closed loop with online updates, model refresh, label-swap drift,
/// periodic snapshots, Prometheus output and a checkpoint every 3 chunks.
ServeConfig closed_online_config(const RunDir& dir) {
  ServeConfig config = base_config();
  config.online_updates = true;
  config.model_refresh_chunks = 3;
  config.stream.drift_start_chunk = 6;
  config.stream.drift_duration_chunks = 3;
  config.stream.drift_swap_a = 1;
  config.stream.drift_swap_b = 4;
  config.snapshot_dir = dir.file("snap");
  config.snapshot_every_chunks = 3;
  config.prometheus_path = dir.file("metrics.prom");
  config.checkpoint_path = dir.file("serve.ck");
  config.checkpoint_every_chunks = 3;
  return config;
}

/// Open-loop overload with a deadline tight enough to expire requests.
ServeConfig overload_config(ShedPolicy policy) {
  ServeConfig config = base_config();
  config.serve_chunks = 16;
  config.admission.offered_load = 2.5;
  config.admission.queue_capacity = 2;
  config.admission.policy = policy;
  config.admission.deadline = SimDuration::micros(9000);
  return config;
}

/// A mid-stream detach under open-loop load: the device degrades, is
/// quarantined, serves on the host tier and is probed back.
ServeConfig detach_config() {
  ServeConfig config = base_config();
  config.serve_chunks = 16;
  config.online_updates = true;
  config.model_refresh_chunks = 4;
  config.faults = tpu::parse_fault_profile("detach=0.03,reattach=0.02,seed=7");
  config.admission.offered_load = 1.0;
  config.admission.queue_capacity = 4;
  config.health.probe_interval = SimDuration::millis(30);
  return config;
}

std::uint64_t chunks_digest(const ServeResult& result) {
  Digest d;
  d.pod<std::uint64_t>(result.chunks.size());
  for (const ServeResult::ChunkStats& c : result.chunks) {
    d.pod(c.index).time(c.t_end).pod(c.samples).pod(c.chunk_accuracy);
    d.pod(c.windowed_accuracy).pod(c.drift_score).pod(c.fallback_samples);
    d.pod(c.circuit_opened).pod(c.tier).time(c.queue_wait).pod(c.health);
  }
  for (const ServeResult::TierStats& t : result.tiers) {
    d.pod(t.samples).pod(t.errors).time(t.service_time);
  }
  d.time(result.t_end).pod(result.samples_served).pod(result.lifetime_accuracy);
  d.pod(result.warmup_accuracy).pod(result.shed_samples).pod(result.expired_samples);
  d.pod(result.degraded_samples).pod(result.shed_chunks).pod(result.expired_chunks);
  d.pod(result.snapshots_written).pod(result.checkpoints_written);
  d.pod(result.requests_traced).pod(result.exemplar_bytes).pod(result.exemplar_bytes_peak);
  d.pod(result.exemplars_evicted).pod(result.trace_events).pod(result.trace_dropped);
  for (const SimDuration& stage : result.attribution_total.stages) {
    d.time(stage);
  }
  return d.value();
}

std::uint64_t health_digest(const ServeResult& result) {
  Digest d;
  d.pod(result.final_health).pod(result.quarantines).pod(result.probes);
  d.pod<std::uint64_t>(result.health_transitions.size());
  for (const auto& t : result.health_transitions) {
    d.pod(t.from).pod(t.to).time(t.at);
  }
  return d.value();
}

/// The artefacts every serve run yields, plus its output files.
Artefacts serve_artefacts(const ServeResult& result, const RunDir& dir,
                          const ServeConfig& config) {
  Artefacts out = {
      {"predictions", predictions_digest(result.predictions)},
      {"chunk_stats", chunks_digest(result)},
      {"requests", requests_digest(result.requests)},
      {"final_snapshot", text_digest(result.final_snapshot.to_json())},
      {"final_prometheus", text_digest(result.final_snapshot.to_prometheus())},
      {"final_model", text_digest(result.final_model.to_json())},
      {"final_energy", text_digest(result.final_energy.to_json())},
      {"health", health_digest(result)},
  };
  if (!config.snapshot_dir.empty()) {
    out.emplace_back("snapshot_files", files_digest(config.snapshot_dir, ""));
  }
  if (!config.prometheus_path.empty()) {
    out.emplace_back("prometheus_file", text_digest(read_text(config.prometheus_path)));
  }
  if (!config.exemplar_path.empty()) {
    out.emplace_back("exemplars_file", text_digest(read_text(config.exemplar_path)));
  }
  if (!config.checkpoint_path.empty()) {
    out.emplace_back("checkpoints",
                     files_digest(fs::path(config.checkpoint_path).parent_path(),
                                  fs::path(config.checkpoint_path).filename().string()));
  }
  out.emplace_back("log", dir.log_digest());
  return out;
}

TEST(ServeGoldenTest, ClosedLoopOnlineRefreshSnapshotsCheckpoints) {
  HDC_SKIP_OFF_GOLDEN_PLATFORM();
  const RunDir dir("closed");
  const CoDesignFramework framework;
  const ServeConfig config = closed_online_config(dir);
  const ServeResult result = serve(framework, config);
  EXPECT_EQ(result.checkpoints_written, 4U);
  EXPECT_GT(result.snapshots_written, 1U);
  expect_golden("closed_online", serve_artefacts(result, dir, config));
}

TEST(ServeGoldenTest, OverloadRejectNewestWithDeadline) {
  HDC_SKIP_OFF_GOLDEN_PLATFORM();
  const RunDir dir("reject");
  const CoDesignFramework framework;
  ServeConfig config = overload_config(ShedPolicy::kRejectNewest);
  config.exemplar_path = dir.file("exemplars.jsonl");
  const ServeResult result = serve(framework, config);
  EXPECT_GT(result.shed_chunks, 0U);
  EXPECT_GT(result.expired_chunks, 0U);
  expect_golden("overload_reject_newest", serve_artefacts(result, dir, config));
}

TEST(ServeGoldenTest, OverloadDropOldestWithDeadlineTraced) {
  HDC_SKIP_OFF_GOLDEN_PLATFORM();
  const RunDir dir("drop");
  obs::TraceContext trace;
  CoDesignFramework framework;
  framework.set_trace(&trace);
  ServeConfig config = overload_config(ShedPolicy::kDropOldest);
  config.snapshot_dir = dir.file("snap");
  const ServeResult result = serve(framework, config);
  EXPECT_GT(result.shed_chunks, 0U);
  EXPECT_GT(result.expired_chunks, 0U);
  Artefacts artefacts = serve_artefacts(result, dir, config);
  artefacts.emplace_back("chrome_trace", chrome_trace_digest(trace.chrome_trace_json()));
  expect_golden("overload_drop_oldest", artefacts);
}

TEST(ServeGoldenTest, DetachQuarantineProbeHostTier) {
  HDC_SKIP_OFF_GOLDEN_PLATFORM();
  const RunDir dir("detach");
  const CoDesignFramework framework;
  ServeConfig config = detach_config();
  config.snapshot_dir = dir.file("snap");
  config.snapshot_every_chunks = 4;
  const ServeResult result = serve(framework, config);
  EXPECT_GE(result.quarantines, 1U);
  EXPECT_GE(result.probes, 1U);
  EXPECT_GT(result.tiers[static_cast<std::size_t>(ServeTier::kHost)].samples, 0U);
  expect_golden("detach", serve_artefacts(result, dir, config));
}

TEST(ServeGoldenTest, ResumeFromMidRunCheckpoint) {
  HDC_SKIP_OFF_GOLDEN_PLATFORM();
  const CoDesignFramework framework;
  const RunDir first("resume_first");
  const ServeConfig original = closed_online_config(first);
  serve(framework, original);

  const RunDir dir("resume");
  ServeConfig config = closed_online_config(dir);
  config.resume_from = original.checkpoint_path + ".0006";
  const ServeResult result = serve(framework, config);
  EXPECT_EQ(read_text(original.checkpoint_path), read_text(config.checkpoint_path));
  expect_golden("resume", serve_artefacts(result, dir, config));
}

// ---- fleet ------------------------------------------------------------------

ServeConfig fleet_base_config() {
  ServeConfig config = base_config();
  config.stream.spec.seed = 0xF1EE7;
  config.serve_chunks = 32;
  return config;
}

std::uint64_t shards_digest(const FleetResult& result) {
  Digest d;
  d.pod<std::uint64_t>(result.shards.size());
  for (const FleetShardResult& s : result.shards) {
    d.pod(s.device_index).pod(s.requests_served).pod(s.samples_served);
    d.pod(s.shed_requests).pod(s.expired_requests).pod(s.degraded_requests);
    d.pod(s.batches).pod(s.cache_lookups).pod(s.cache_hits).pod(s.swaps);
    d.time(s.swap_time).time(s.busy).time(s.t_end).pod(s.final_health);
    d.pod(s.quarantines).pod(s.probes).pod(s.energy_pj);
    d.str(s.final_snapshot.to_json()).str(s.final_snapshot.to_prometheus());
  }
  return d.value();
}

std::uint64_t fleet_totals_digest(const FleetResult& result) {
  Digest d;
  d.pod(result.offered_requests).pod(result.served_requests).pod(result.shed_requests);
  d.pod(result.expired_requests).pod(result.offered_samples).pod(result.samples_served);
  d.pod(result.shed_samples).pod(result.expired_samples).pod(result.degraded_samples);
  d.pod(result.batches).pod(result.cache_lookups).pod(result.cache_hits).pod(result.swaps);
  d.pod(result.cache_hit_rate).pod(result.mean_batch_chunks).time(result.t_end);
  d.pod(result.lifetime_accuracy).pod(result.requests_traced);
  d.pod<std::uint64_t>(result.exemplar_records.size());
  for (const SimDuration& stage : result.attribution_total.stages) {
    d.time(stage);
  }
  return d.value();
}

Artefacts fleet_artefacts(const FleetResult& result, const RunDir& dir) {
  Digest tenant_models;
  for (const obs::ModelStatsSnapshot& m : result.tenant_models) {
    tenant_models.str(m.to_json());
  }
  Digest tenant_energy;
  for (const std::int64_t pj : result.tenant_energy_pj) {
    tenant_energy.pod(pj);
  }
  return {
      {"predictions", predictions_digest(result.predictions)},
      {"totals", fleet_totals_digest(result)},
      {"requests", requests_digest(result.requests)},
      {"fleet_snapshot", text_digest(result.fleet_snapshot.to_json())},
      {"fleet_prometheus", text_digest(result.fleet_snapshot.to_prometheus())},
      {"snapshot_files", files_digest(dir.file("snap"), "")},
      {"shards", shards_digest(result)},
      {"tenant_models", tenant_models.value()},
      {"tenant_energy", tenant_energy.value()},
      {"log", dir.log_digest()},
  };
}

TEST(FleetGoldenTest, BatchedCacheAwareOverloadedWithFaults) {
  HDC_SKIP_OFF_GOLDEN_PLATFORM();
  const RunDir dir("fleet_batched");
  const CoDesignFramework framework;
  ServeConfig config = fleet_base_config();
  config.fleet.num_devices = 3;
  config.fleet.num_tenants = 4;
  config.fleet.tenant_skew = 1.0;
  config.fleet.batch_max_chunks = 4;
  config.fleet.placement = PlacementPolicy::kCacheAware;
  config.serve_chunks = 48;
  config.admission.offered_load = 100.0;
  config.admission.queue_capacity = 3;
  config.admission.deadline = SimDuration::micros(2000);
  config.faults = tpu::parse_fault_profile("detach=0.003,reattach=0.001,seed=7");
  config.snapshot_dir = dir.file("snap");
  const FleetResult result = serve_fleet(framework, config);
  EXPECT_GT(result.shed_requests, 0U);
  EXPECT_GT(result.expired_requests, 0U);
  EXPECT_GT(result.swaps, 0U);
  EXPECT_GT(result.mean_batch_chunks, 1.0);
  expect_golden("fleet_batched", fleet_artefacts(result, dir));
}

TEST(FleetGoldenTest, UnbatchedRoundRobin) {
  HDC_SKIP_OFF_GOLDEN_PLATFORM();
  const RunDir dir("fleet_rr");
  const CoDesignFramework framework;
  ServeConfig config = fleet_base_config();
  config.fleet.num_devices = 2;
  config.fleet.num_tenants = 3;
  config.fleet.tenant_skew = 0.5;
  config.fleet.batch_max_chunks = 1;
  config.fleet.placement = PlacementPolicy::kRoundRobin;
  config.admission.offered_load = 1.5;
  config.admission.queue_capacity = 4;
  config.snapshot_dir = dir.file("snap");
  const FleetResult result = serve_fleet(framework, config);
  expect_golden("fleet_round_robin", fleet_artefacts(result, dir));
}

TEST(FleetGoldenTest, LeastLoadedDropOldest) {
  HDC_SKIP_OFF_GOLDEN_PLATFORM();
  const RunDir dir("fleet_ll");
  const CoDesignFramework framework;
  ServeConfig config = fleet_base_config();
  config.fleet.num_devices = 2;
  config.fleet.num_tenants = 2;
  config.fleet.batch_max_chunks = 2;
  config.fleet.placement = PlacementPolicy::kLeastLoaded;
  config.admission.offered_load = 80.0;
  config.admission.queue_capacity = 2;
  config.admission.policy = ShedPolicy::kDropOldest;
  config.admission.deadline = SimDuration::micros(1500);
  config.snapshot_dir = dir.file("snap");
  config.exemplar_path = dir.file("exemplars.jsonl");
  const FleetResult result = serve_fleet(framework, config);
  EXPECT_GT(result.shed_requests, 0U);
  EXPECT_GT(result.expired_requests, 0U);
  Artefacts artefacts = fleet_artefacts(result, dir);
  artefacts.emplace_back("exemplars_file", text_digest(read_text(config.exemplar_path)));
  expect_golden("fleet_least_loaded", artefacts);
}

// ---- persisted formats ---------------------------------------------------------
//
// HDSV bytes are pinned above through the checkpoint files (latest, history
// copies and resume). These pin HDCM and HDLT: a change to either layout must
// bump that format's version and re-record its digest here.

std::uint64_t bytes_digest(const std::vector<std::uint8_t>& bytes) {
  Digest d;
  d.pod<std::uint64_t>(bytes.size());
  return d.bytes(bytes.data(), bytes.size()).value();
}

/// A rows x cols matrix of exact binary fractions (k/8 - rows).
tensor::MatrixF fraction_matrix(std::size_t rows, std::size_t cols) {
  tensor::MatrixF m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(i) * 0.125F - static_cast<float>(rows);
  }
  return m;
}

TEST(FormatGoldenTest, ClassifierBytes) {
  const core::TrainedClassifier classifier{core::Encoder(fraction_matrix(3, 8)),
                                           core::HdModel(fraction_matrix(2, 8))};
  expect_golden("hdcm", {{"classifier", bytes_digest(core::serialize_classifier(classifier))}});
}

TEST(FormatGoldenTest, LiteModelBytes) {
  // float input -> quantize -> int8 FC (per-channel) -> tanh -> dequantize
  // -> argmax: every dtype, both quantization modes and every opcode.
  using lite::DType;
  using lite::OpCode;
  lite::LiteModel model;
  model.name = "golden";
  const auto tensor = [&model](std::string name, DType dtype, std::vector<std::uint32_t> shape,
                               lite::Quantization quant) {
    model.tensors.push_back(
        lite::LiteTensor{std::move(name), dtype, std::move(shape), quant, {}, {}});
  };
  tensor("input", DType::kFloat32, {4}, {});
  tensor("input_q", DType::kInt8, {4}, {0.5F, 0});
  tensor("weights", DType::kInt8, {4, 3}, {});
  tensor("hidden", DType::kInt8, {3}, {0.0625F, -1});
  tensor("activated", DType::kInt8, {3}, {0.0078125F, 0});
  tensor("scores", DType::kFloat32, {3}, {});
  tensor("label", DType::kInt32, {1}, {});
  model.tensors[2].channel_scales = {0.25F, 0.5F, 0.125F};
  for (int i = 0; i < 12; ++i) {
    model.tensors[2].data.push_back(static_cast<std::uint8_t>(i * 37 - 100));
  }
  model.ops = {{OpCode::kQuantize, {0}, {1}},   {OpCode::kFullyConnected, {1, 2}, {3}},
               {OpCode::kTanh, {3}, {4}},       {OpCode::kDequantize, {4}, {5}},
               {OpCode::kArgMax, {5}, {6}}};
  model.input = 0;
  model.output = 6;
  expect_golden("hdlt", {{"model", bytes_digest(lite::serialize_model(model))}});
}

TEST(FormatGoldenTest, LoweredModelBytes) {
  HDC_SKIP_OFF_GOLDEN_PLATFORM();
  const CoDesignFramework framework;
  const core::TrainedClassifier classifier{core::Encoder(fraction_matrix(3, 8)),
                                           core::HdModel(fraction_matrix(2, 8))};
  data::Dataset representative;
  representative.features = tensor::MatrixF(24, 3);
  for (std::size_t i = 0; i < representative.features.size(); ++i) {
    representative.features.data()[i] = static_cast<float>((i * 7) % 17) * 0.0625F - 0.5F;
  }
  representative.labels.assign(24, 0);
  representative.num_classes = 2;
  const auto lowered = framework.lower_classifier(classifier, representative);

  data::Dataset train = data::generate_synthetic(data::paper_dataset("PAMAP2"), 96);
  core::HdConfig cfg;
  cfg.dim = 64;
  cfg.epochs = 3;
  cfg.seed = 7;
  const auto trained = framework.train_tpu(train, cfg);

  expect_golden("lowered",
                {{"float_model", bytes_digest(lite::serialize_model(lowered.float_model))},
                 {"compiled_model", bytes_digest(lite::serialize_model(lowered.compiled.model))},
                 {"train_tpu_classifier",
                  bytes_digest(core::serialize_classifier(trained.classifier))}});
}

}  // namespace
}  // namespace hdc::runtime

// Robustness fuzzing for the serialized formats: random bit flips,
// truncations and garbage buffers must NEVER crash, corrupt memory or
// silently load — every malformed input has to surface as hdc::Error. The
// offline tools' JSON reader (tools/json_min.hpp) is held to the same bar:
// every input parses or returns nullopt.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "../tools/json_min.hpp"

#include "common/byte_io.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/online.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "lite/builder.hpp"
#include "lite/quantize.hpp"
#include "data/synthetic.hpp"
#include "lite/serialize.hpp"
#include "obs/energy.hpp"
#include "obs/model_stats.hpp"
#include "obs/monitor.hpp"
#include "runtime/framework.hpp"
#include "runtime/serve.hpp"
#include "tpu/faults.hpp"

namespace hdc {
namespace {

std::vector<std::uint8_t> classifier_bytes() {
  core::Encoder encoder(6, 64, 3);
  core::HdModel model(3, 64);
  return core::serialize_classifier(
      core::TrainedClassifier{std::move(encoder), std::move(model)});
}

std::vector<std::uint8_t> lite_bytes() {
  tensor::MatrixF w(6, 32);
  Rng rng(4);
  rng.fill_gaussian(w.data(), w.size());
  const auto float_model = lite::LiteModelBuilder("fuzz", 6).dense(w).tanh().finish();
  tensor::MatrixF calib(8, 6, 0.4F);
  return lite::serialize_model(lite::quantize_model(float_model, calib));
}

template <typename LoadFn>
void fuzz_bitflips(const std::vector<std::uint8_t>& original, LoadFn&& load,
                   int iterations) {
  Rng rng(0xF22);
  for (int i = 0; i < iterations; ++i) {
    auto corrupted = original;
    // Flip 1-4 random bits.
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      const auto byte = rng.next_below(corrupted.size());
      corrupted[byte] ^= static_cast<std::uint8_t>(1U << rng.next_below(8));
    }
    if (corrupted == original) {
      continue;  // flips cancelled out
    }
    EXPECT_THROW(load(corrupted), Error) << "bit-flip fuzz iteration " << i;
  }
}

template <typename LoadFn>
void fuzz_truncations(const std::vector<std::uint8_t>& original, LoadFn&& load) {
  Rng rng(0x7121C);
  for (int i = 0; i < 64; ++i) {
    auto truncated = original;
    truncated.resize(rng.next_below(original.size()));
    EXPECT_THROW(load(truncated), Error) << "truncation to " << truncated.size();
  }
}

template <typename LoadFn>
void fuzz_garbage(LoadFn&& load) {
  Rng rng(0x6A4BA6E);
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t> garbage(16 + rng.next_below(4096));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_u64());
    }
    EXPECT_THROW(load(garbage), Error) << "garbage buffer " << i;
  }
}

/// Recomputes the CRC32 trailer, so damage to the payload gets past the
/// checksum into the parser.
void reseal(std::vector<std::uint8_t>& bytes) {
  const std::size_t payload = bytes.size() - sizeof(std::uint32_t);
  const std::uint32_t checksum = crc32(bytes.data(), payload);
  std::memcpy(bytes.data() + payload, &checksum, sizeof(checksum));
}

/// Flips 1-4 random bits, `iterations` times; each mutation must parse or
/// throw hdc::Error — never crash, and never fail some other way (an
/// unchecked count sizing a huge allocation surfaces as std::bad_alloc). A
/// `sealed` buffer keeps its CRC32 trailer out of the flips and is resealed.
template <typename LoadFn>
void expect_parse_or_error(const std::vector<std::uint8_t>& original, bool sealed,
                           LoadFn&& load, int iterations = 256) {
  const std::size_t span = original.size() - (sealed ? sizeof(std::uint32_t) : 0);
  Rng rng(0x5EA1);
  for (int i = 0; i < iterations; ++i) {
    auto mutated = original;
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.next_below(span)] ^= static_cast<std::uint8_t>(1U << rng.next_below(8));
    }
    if (sealed) {
      reseal(mutated);
    }
    try {
      load(mutated);
    } catch (const Error&) {
      // Rejected cleanly.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " escaped as " << e.what();
    }
  }
}

TEST(FuzzClassifierTest, BitFlipsAlwaysDetected) {
  const auto bytes = classifier_bytes();
  fuzz_bitflips(bytes, [](const auto& b) { return core::deserialize_classifier(b); }, 256);
}

TEST(FuzzClassifierTest, TruncationsAlwaysDetected) {
  const auto bytes = classifier_bytes();
  fuzz_truncations(bytes, [](const auto& b) { return core::deserialize_classifier(b); });
}

TEST(FuzzClassifierTest, GarbageAlwaysRejected) {
  fuzz_garbage([](const auto& b) { return core::deserialize_classifier(b); });
}

TEST(FuzzClassifierTest, WrappingMatrixShapeIsRejected) {
  // A 3 x 2 encoder base, then class hypervectors whose header reads
  // (2^63 + 1) x 2: the cell count wraps to 2 in 64 bits, so a 2-float
  // payload once passed for it (and `hdc infer` then crashed).
  ByteWriter w;
  w.write<std::uint32_t>(0x4D434448);  // "HDCM"
  w.write<std::uint32_t>(1);
  for (const std::uint64_t rows : {std::uint64_t{3}, (std::uint64_t{1} << 63) + 1}) {
    w.write<std::uint64_t>(rows);
    w.write<std::uint64_t>(2);
    w.write_vector(std::vector<float>(rows * 2, 0.5F));  // rows x 2 cells, mod 2^64
  }
  w.write<std::uint32_t>(0);
  std::vector<std::uint8_t> bytes = w.take();
  reseal(bytes);
  EXPECT_THROW(core::deserialize_classifier(bytes), Error);
}

TEST(FuzzOnlineLearnerTest, WrappingMatrixShapeIsRejected) {
  // The learner's base matrix (5 x 2) follows its config: u32 dim, u64 seed,
  // f32 rate, u8 metric, u32 window. As (2^63 + 5) x 2 its cell count wraps
  // back to 10, the payload's length.
  core::OnlineConfig config;
  config.dim = 2;
  ByteWriter w;
  core::OnlineLearner(5, 3, config).serialize(w);
  std::vector<std::uint8_t> bytes = w.take();
  const std::uint64_t rows = (std::uint64_t{1} << 63) + 5;
  std::memcpy(bytes.data() + 21, &rows, sizeof(rows));
  ByteReader r(bytes);
  EXPECT_THROW(core::OnlineLearner::deserialize(r), Error);
}

TEST(FuzzLiteTest, BitFlipsAlwaysDetected) {
  const auto bytes = lite_bytes();
  fuzz_bitflips(bytes, [](const auto& b) { return lite::deserialize_model(b); }, 256);
}

TEST(FuzzLiteTest, TruncationsAlwaysDetected) {
  const auto bytes = lite_bytes();
  fuzz_truncations(bytes, [](const auto& b) { return lite::deserialize_model(b); });
}

TEST(FuzzLiteTest, GarbageAlwaysRejected) {
  fuzz_garbage([](const auto& b) { return lite::deserialize_model(b); });
}

TEST(FuzzLiteTest, RoundTripSurvivesManyModels) {
  // Serialization round-trip property over randomized shapes.
  Rng rng(0x5EED5);
  for (int i = 0; i < 40; ++i) {
    const auto n = static_cast<std::uint32_t>(1 + rng.next_below(40));
    const auto d = static_cast<std::uint32_t>(1 + rng.next_below(300));
    // std::string("m") rather than "m": the const char* + std::string&&
    // overload trips GCC 12's -Wrestrict false positive (PR 105329).
    lite::LiteModelBuilder builder(std::string("m") + std::to_string(i), n);
    tensor::MatrixF w(n, d);
    rng.fill_gaussian(w.data(), w.size());
    builder.dense(w);
    if (rng.next_below(2) == 0) {
      builder.tanh();
    }
    const auto model = builder.finish();
    const auto restored = lite::deserialize_model(lite::serialize_model(model));
    EXPECT_EQ(restored.tensors.size(), model.tensors.size());
    EXPECT_EQ(restored.ops.size(), model.ops.size());
    for (std::size_t t = 0; t < model.tensors.size(); ++t) {
      EXPECT_EQ(restored.tensors[t].data, model.tensors[t].data);
    }
  }
}

// ---- HDSV serve checkpoints --------------------------------------------------
//
// A small open-loop session with online updates, checkpointed mid-run (so
// the admission queue, the learners and all three telemetry sections are
// populated), read back by the inspection readers (relaxed: no config) and
// by the resume path (strict: fingerprint and bounds matched).

runtime::ServeConfig checkpoint_config() {
  runtime::ServeConfig config;
  config.stream.spec = data::paper_dataset("PAMAP2");
  config.stream.spec.seed = 0xC4EC;
  config.stream.chunk_size = 16;
  config.learner.dim = 64;
  config.warmup_chunks = 1;
  config.serve_chunks = 6;
  config.online_updates = true;
  config.model_refresh_chunks = 2;
  config.admission.offered_load = 2.0;
  config.admission.queue_capacity = 2;
  config.checkpoint_every_chunks = 2;
  return config;
}

/// A scratch file under the temp directory, removed with the fixture.
class CheckpointFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hdc_fuzz_hdsv_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    config_ = checkpoint_config();
    config_.checkpoint_path = (dir_ / "serve.ck").string();
    runtime::serve(runtime::CoDesignFramework(), config_);
    original_ = read_file(config_.checkpoint_path + ".0002");
    ASSERT_GT(original_.size(), 64U);
    path_ = (dir_ / "fuzzed.ck").string();
  }
  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  /// The three readers of one byte image.
  void model_json(const std::vector<std::uint8_t>& bytes) {
    write_file(path_, bytes);
    runtime::checkpoint_model_stats_json(path_);
  }
  void energy_json(const std::vector<std::uint8_t>& bytes) {
    write_file(path_, bytes);
    runtime::checkpoint_energy_json(path_);
  }
  void strict(const std::vector<std::uint8_t>& bytes) {
    write_file(path_, bytes);
    runtime::verify_checkpoint(path_, config_);
  }

  template <typename Reader>
  void for_each_reader(Reader&& reader) {
    reader([this](const auto& b) { model_json(b); });
    reader([this](const auto& b) { energy_json(b); });
    reader([this](const auto& b) { strict(b); });
  }

  std::filesystem::path dir_;
  runtime::ServeConfig config_;
  std::vector<std::uint8_t> original_;
  std::string path_;
};

TEST_F(CheckpointFuzz, OriginalParsesUnderEveryReader) {
  for_each_reader([this](auto&& load) { EXPECT_NO_THROW(load(original_)); });
}

TEST_F(CheckpointFuzz, BitFlipsAlwaysDetected) {
  for_each_reader([this](auto&& load) { fuzz_bitflips(original_, load, 64); });
}

TEST_F(CheckpointFuzz, TruncationsAlwaysDetected) {
  for_each_reader([this](auto&& load) { fuzz_truncations(original_, load); });
}

TEST_F(CheckpointFuzz, GarbageAlwaysRejected) {
  for_each_reader([](auto&& load) { fuzz_garbage(load); });
}

TEST_F(CheckpointFuzz, HugeChunkCountIsAnErrorNotAnAllocation) {
  // The chunk count follows the predictions vector (u64 length + u32 each);
  // the checkpoint was cut after two served chunks of 16 samples.
  const runtime::ServeResult run = [this] {
    runtime::ServeConfig config = config_;
    config.checkpoint_path.clear();
    config.checkpoint_every_chunks = 0;
    config.serve_chunks = 2;
    return runtime::serve(runtime::CoDesignFramework(), config);
  }();
  ByteWriter pattern;
  pattern.write_vector(run.predictions);
  pattern.write<std::uint32_t>(2);
  const auto at = std::search(original_.begin(), original_.end(), pattern.bytes().begin(),
                              pattern.bytes().end());
  ASSERT_NE(at, original_.end()) << "chunk count not found in the checkpoint";
  auto crafted = original_;
  const std::size_t count_at =
      static_cast<std::size_t>(at - original_.begin()) + pattern.size() - 4;
  const std::uint32_t huge = 0xFFFFFFF0U;
  std::memcpy(crafted.data() + count_at, &huge, sizeof(huge));
  reseal(crafted);
  for_each_reader([&](auto&& load) { EXPECT_THROW(load(crafted), Error); });
}

TEST(FuzzAlarmEventsTest, HugeEventCountIsAnErrorNotAnAllocation) {
  ByteWriter w;
  w.write<std::uint32_t>(0xFFFFFFF0U);
  w.write<std::uint64_t>(0);
  ByteReader r(std::span<const std::uint8_t>(w.bytes().data(), w.size()));
  std::vector<obs::AlarmEvent> events;
  EXPECT_THROW(obs::detail::alarm_events(events, r), Error);
}

/// Serializes `object`, overwrites the `T` at `offset` with `value`, and
/// returns the deserializer's verdict on the patched bytes.
template <typename Object, typename T>
void expect_rejected_shape(const Object& object, std::size_t offset, T value) {
  ByteWriter w;
  object.serialize(w);
  std::vector<std::uint8_t> bytes = w.take();
  ASSERT_LE(offset + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
  ByteReader r(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  EXPECT_THROW(Object::deserialize(r), Error) << "patched offset " << offset;
}

TEST(FuzzTelemetryStateTest, HugeWindowShapesAreErrorsNotAllocations) {
  // Each offset is a shape field of the wire layout: class count, window
  // buckets, dimension count/buckets, calibration bins.
  obs::MonitorConfig mc;
  mc.num_classes = 4;
  const obs::ServingMonitor monitor(mc);
  expect_rejected_shape(monitor, 0, std::uint32_t{0xFFFFFFFFU});
  expect_rejected_shape(monitor, 12, std::uint64_t{1} << 40);

  obs::ModelStatsConfig msc;
  msc.num_classes = 4;
  msc.dim = 32;
  const obs::ModelQualityStats stats(msc);
  expect_rejected_shape(stats, 0, std::uint32_t{0xFFFFFFFFU});
  expect_rejected_shape(stats, 4, std::uint32_t{0xFFFFFFFFU});
  expect_rejected_shape(stats, 16, std::uint64_t{1} << 40);
  expect_rejected_shape(stats, 24, std::uint64_t{1} << 40);
  expect_rejected_shape(stats, 32, std::uint64_t{1} << 40);

  const obs::EnergyAccountant energy{obs::EnergyConfig{}};
  expect_rejected_shape(energy, 7 * 8, std::uint64_t{1} << 40);
}

TEST_F(CheckpointFuzz, ResealedPayloadMutationsParseOrThrowError) {
  for_each_reader([this](auto&& load) { expect_parse_or_error(original_, true, load); });
}

// ---- one faulty, overloaded session's objects, each on its own --------------
//
// Flips in a whole HDSV file mostly land in the learners. Here every object
// the checkpoint restores is serialized alone, so every flip lands in that
// object's bytes: the serving monitor, the model-quality stats (with the
// per-dimension window), the energy accountant, the device health tracker
// and a learner.

TEST(FuzzSessionStateTest, MutatedObjectsParseOrThrowError) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("hdc_fuzz_session_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  runtime::ServeConfig config;
  config.stream.spec = data::paper_dataset("PAMAP2");
  config.stream.chunk_size = 48;
  config.learner.dim = 256;
  config.warmup_chunks = 2;
  config.serve_chunks = 16;
  config.online_updates = true;
  config.model_refresh_chunks = 4;
  config.faults = tpu::parse_fault_profile("detach=0.03,reattach=0.02,seed=7");
  config.admission.offered_load = 2.0;
  config.admission.queue_capacity = 3;
  config.admission.deadline = SimDuration::micros(34082);
  config.health.probe_interval = SimDuration::micros(30000);
  config.checkpoint_path = (dir / "serve.ck").string();
  const runtime::ServeResult run = runtime::serve(runtime::CoDesignFramework(), config);
  const runtime::ServeCheckpoint state = runtime::verify_checkpoint(config.checkpoint_path, config);
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);

  // The session went through quarantine, the host tier, shedding and expiry.
  ASSERT_GE(run.quarantines, 1U);
  ASSERT_GT(run.tiers[static_cast<std::size_t>(runtime::ServeTier::kHost)].samples, 0U);
  ASSERT_GT(run.shed_chunks, 0U);
  ASSERT_GT(run.expired_chunks, 0U);
  ASSERT_TRUE(state.monitor.has_value() && state.model_stats.has_value() &&
              state.energy.has_value());
  ASSERT_GT(state.model_stats->config().dim, 0U);

  const auto bytes_of = [](const auto& object) {
    ByteWriter w;
    object.serialize(w);
    return w.take();
  };
  const auto fuzz = [](const std::vector<std::uint8_t>& bytes, auto&& deserialize) {
    ByteReader intact(bytes);
    ASSERT_NO_THROW(deserialize(intact));
    expect_parse_or_error(bytes, false, [&](const std::vector<std::uint8_t>& mutated) {
      ByteReader r(mutated);
      deserialize(r);
    }, 300);
  };
  fuzz(bytes_of(*state.monitor), obs::ServingMonitor::deserialize);
  fuzz(bytes_of(*state.model_stats), obs::ModelQualityStats::deserialize);
  fuzz(bytes_of(*state.energy), obs::EnergyAccountant::deserialize);
  fuzz(bytes_of(state.health), [&](ByteReader& r) {
    return runtime::DeviceHealthTracker::deserialize(r, config.health);
  });
  fuzz(bytes_of(*state.reduced), core::OnlineLearner::deserialize);
}

// ---- tools/json_min.hpp ----------------------------------------------------

bool json_parses(std::string_view text) {
  return tools::JsonParser(text).parse().has_value();
}

/// A real model-quality document: every JSON value kind, nested objects.
std::string model_stats_json() {
  obs::ModelStatsConfig config;
  config.num_classes = 4;
  config.dim = 32;
  obs::ModelQualityStats stats(config);
  return stats.snapshot(SimDuration()).to_json();
}

TEST(FuzzJsonTest, NestingPastTheCapIsRejectedNotRecursed) {
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const auto objects = [](std::size_t depth) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) {
      text += "{\"k\":";
    }
    return text + "0" + std::string(depth, '}');
  };
  const std::size_t cap = tools::JsonParser::kMaxDepth;
  EXPECT_TRUE(json_parses(arrays(cap)));
  EXPECT_FALSE(json_parses(arrays(cap + 1)));
  EXPECT_TRUE(json_parses(objects(cap)));
  EXPECT_FALSE(json_parses(objects(cap + 1)));
  // Far deeper than the call stack holds: must return, not overflow.
  EXPECT_FALSE(json_parses(arrays(200000)));
  EXPECT_FALSE(json_parses(std::string(200000, '[')));
  EXPECT_FALSE(json_parses(objects(200000)));
}

TEST(FuzzJsonTest, TruncationsAreRejected) {
  const std::string doc = model_stats_json();
  ASSERT_TRUE(json_parses(doc));
  for (std::size_t size = 0; size < doc.size(); ++size) {
    EXPECT_FALSE(json_parses(std::string_view(doc).substr(0, size)))
        << "truncation to " << size;
  }
}

TEST(FuzzJsonTest, MutationsAndGarbageParseOrReject) {
  // Parsing may succeed or return nullopt; it must not throw or crash.
  const std::string doc = model_stats_json();
  const std::string_view alphabet = "{}[]\",:-+.0123456789eEtrufalsn\\ \n";
  Rng rng(0x15011);
  for (int i = 0; i < 512; ++i) {
    std::string mutated = doc;
    const int edits = 1 + static_cast<int>(rng.next_below(4));
    for (int e = 0; e < edits; ++e) {
      mutated[rng.next_below(mutated.size())] =
          i % 2 == 0 ? alphabet[rng.next_below(alphabet.size())]
                     : static_cast<char>(rng.next_u64());
    }
    EXPECT_NO_THROW(json_parses(mutated)) << "mutation " << i;
  }
  for (int i = 0; i < 256; ++i) {
    std::string garbage(rng.next_below(4096), '\0');
    for (char& c : garbage) {
      c = i % 2 == 0 ? alphabet[rng.next_below(alphabet.size())]
                     : static_cast<char>(rng.next_u64());
    }
    EXPECT_NO_THROW(json_parses(garbage)) << "garbage " << i;
  }
}

}  // namespace
}  // namespace hdc

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/byte_io.hpp"
#include "core/config.hpp"
#include "core/encoder.hpp"
#include "core/model.hpp"
#include "core/serialize.hpp"
#include "data/dataset.hpp"

namespace hdc::core {

/// Configuration of the adaptive single-pass learner.
struct OnlineConfig {
  std::uint32_t dim = 4096;
  std::uint64_t seed = 42;
  float learning_rate = 1.0F;     ///< base lambda, scaled per sample
  Similarity similarity = Similarity::kCosine;
  /// Capacity of the windowed error-rate ring (last N prequential outcomes).
  std::uint32_t error_window = 256;
};

/// Last-N ring of binary outcomes: the windowed counterpart to a lifetime
/// error rate, which averages over so much history that a concept-drift
/// onset barely moves it. Memory is fixed at `capacity` bytes.
class WindowedRate {
 public:
  explicit WindowedRate(std::uint32_t capacity);

  void add(bool value);
  std::uint64_t count() const noexcept { return filled_; }
  std::uint32_t capacity() const noexcept { return static_cast<std::uint32_t>(ring_.size()); }
  /// Fraction of true outcomes over the last min(count, capacity) samples.
  double rate() const;
  void reset();

  /// Exact-state round-trip (ring contents, fill, head) for checkpoints.
  void serialize(ByteWriter& writer) const;
  static WindowedRate deserialize(ByteReader& reader);

 private:
  template <typename Self, typename Io>
  static void state_fields(Self& self, Io& io);

  std::vector<std::uint8_t> ring_;
  std::uint64_t filled_ = 0;   ///< min(samples added, capacity)
  std::uint64_t sum_ = 0;      ///< true outcomes currently in the ring
  std::size_t head_ = 0;
};

/// Running statistics of an online learning session: lifetime totals plus a
/// windowed error rate that stays responsive to drift.
struct OnlineStats {
  std::uint64_t samples_seen = 0;
  std::uint64_t errors = 0;
  WindowedRate recent;  ///< last-N prequential errors

  explicit OnlineStats(std::uint32_t error_window = 256) : recent(error_window) {}

  double error_rate() const {
    return samples_seen == 0 ? 0.0
                             : static_cast<double>(errors) / static_cast<double>(samples_seen);
  }
  /// Error rate over the last min(samples_seen, error_window) samples.
  double windowed_error_rate() const { return recent.rate(); }

  void serialize(ByteWriter& writer) const;
  static OnlineStats deserialize(ByteReader& reader);
};

/// Adaptive online HDC learner in the style of OnlineHD (cited by the paper
/// as [17]): one pass over streaming samples, with update magnitudes scaled
/// by how badly the model got each sample wrong.
///
/// On a mispredicted sample with true class `a`, predicted `b`:
///
///   C_a += lambda * (1 - delta_a) * E      (pull the true class closer)
///   C_b -= lambda * (1 - delta_b) * E      (push the imposter away)
///
/// where delta_c is the (cosine) similarity to class c. Confidently wrong
/// samples cause big corrections; near-miss samples barely perturb a model
/// that is already close — which is what makes a single pass competitive
/// with iterated training, and keeps the learner stable under concept drift.
class OnlineLearner {
 public:
  OnlineLearner(std::uint32_t num_features, std::uint32_t num_classes, OnlineConfig config);

  const OnlineConfig& config() const noexcept { return config_; }
  const Encoder& encoder() const noexcept { return encoder_; }
  const HdModel& model() const noexcept { return model_; }
  const OnlineStats& stats() const noexcept { return stats_; }

  /// Processes one labeled sample; returns the prediction made *before* the
  /// update (prequential evaluation).
  std::uint32_t learn(std::span<const float> sample, std::uint32_t label);

  /// `learn` on a pre-encoded hypervector (see `encode`): the serve loop
  /// encodes each request once, as a batch, and every consumer reads rows
  /// of that matrix. `learn(x, y)` equals `learn_encoded(encode(x), y)`.
  std::uint32_t learn_encoded(std::span<const float> encoded, std::uint32_t label);

  /// Processes a labeled batch (encoded in one pass, then learned sample by
  /// sample in order); returns prequential accuracy over it. Rejects an
  /// empty batch.
  double learn_batch(const data::Dataset& batch);

  /// Pure prediction, no adaptation.
  std::uint32_t predict(std::span<const float> sample) const;

  /// Prediction plus quality signals (no adaptation): the top-2 scores and
  /// their margin, the confidence signal live monitoring watches for
  /// margin collapse under drift.
  struct Decision {
    std::uint32_t predicted = 0;
    float top1 = 0.0F;
    float top2 = 0.0F;
    double margin() const { return static_cast<double>(top1) - static_cast<double>(top2); }
  };
  Decision decide(std::span<const float> sample) const;

  /// The encoded hypervector `decide`/`learn` score against the class
  /// vectors. Exposed so observability layers (per-dimension
  /// discriminability in obs/model_stats.hpp) can reuse the encoding the
  /// serving path already needs instead of paying a second projection.
  std::vector<float> encode(std::span<const float> sample) const;

  /// `decide` on a pre-encoded hypervector (see `encode`).
  Decision decide_encoded(std::span<const float> encoded) const;

  /// Freezes the current state into a deployable classifier (copy).
  TrainedClassifier freeze() const;

  void reset_stats();

  /// Exact-state round-trip — config, base hypervectors, class hypervectors
  /// and the prequential counters — so a serve checkpoint restores the
  /// learner mid-stream bit-identically.
  void serialize(ByteWriter& writer) const;
  static OnlineLearner deserialize(ByteReader& reader);

 private:
  OnlineLearner(OnlineConfig config, Encoder encoder, HdModel model, OnlineStats stats);

  OnlineConfig config_;
  Encoder encoder_;
  HdModel model_;
  OnlineStats stats_;
};

}  // namespace hdc::core

#include "core/online.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace hdc::core {

WindowedRate::WindowedRate(std::uint32_t capacity) : ring_(capacity, 0) {
  HDC_CHECK(capacity > 0, "windowed rate needs a positive capacity");
}

void WindowedRate::add(bool value) {
  if (filled_ == ring_.size()) {
    sum_ -= ring_[head_];
  } else {
    ++filled_;
  }
  ring_[head_] = value ? 1 : 0;
  sum_ += ring_[head_];
  head_ = (head_ + 1) % ring_.size();
}

double WindowedRate::rate() const {
  return filled_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(filled_);
}

void WindowedRate::reset() {
  std::fill(ring_.begin(), ring_.end(), 0);
  filled_ = 0;
  sum_ = 0;
  head_ = 0;
}

template <typename Self, typename Io>
void WindowedRate::state_fields(Self& self, Io& io) {
  io.vec(self.ring_, 1ULL << 24);
  io.pod(self.filled_);
  io.pod(self.sum_);
  io.pod(self.head_);
}

void WindowedRate::serialize(ByteWriter& writer) const { state_fields(*this, writer); }

WindowedRate WindowedRate::deserialize(ByteReader& reader) {
  WindowedRate rate(1);
  state_fields(rate, reader);
  HDC_CHECK(!rate.ring_.empty(), "serialized windowed rate has an empty ring");
  HDC_CHECK(rate.filled_ <= rate.ring_.size() && rate.head_ < rate.ring_.size(),
            "serialized windowed rate counters out of range");
  return rate;
}

namespace {

template <typename Stats, typename Io>
void stats_fields(Stats& stats, Io& io) {
  io.pod(stats.samples_seen);
  io.pod(stats.errors);
  io.object(stats.recent);
}

/// The learner's checkpoint: its config, the classifier pair, then the
/// prequential counters.
template <typename Config, typename Matrix, typename Stats, typename Io>
void learner_fields(Config& config, Matrix& base, Matrix& class_hvs, Stats& stats, Io& io) {
  io.pod(config.dim);
  io.pod(config.seed);
  io.pod(config.learning_rate);
  io.enumeration(config.similarity, Similarity::kCosine);
  io.pod(config.error_window);
  classifier_fields(base, class_hvs, io);
  io.object(stats);
}

}  // namespace

void OnlineStats::serialize(ByteWriter& writer) const { stats_fields(*this, writer); }

OnlineStats OnlineStats::deserialize(ByteReader& reader) {
  OnlineStats stats;
  stats_fields(stats, reader);
  return stats;
}

OnlineLearner::OnlineLearner(std::uint32_t num_features, std::uint32_t num_classes,
                             OnlineConfig config)
    : config_(config),
      encoder_(num_features, config.dim, config.seed),
      model_(num_classes, config.dim),
      stats_(config.error_window) {
  HDC_CHECK(config_.learning_rate > 0.0F, "learning rate must be positive");
}

std::uint32_t OnlineLearner::learn(std::span<const float> sample, std::uint32_t label) {
  return learn_encoded(encoder_.encode(sample), label);
}

std::uint32_t OnlineLearner::learn_encoded(std::span<const float> encoded,
                                           std::uint32_t label) {
  HDC_CHECK(label < model_.num_classes(), "label out of range");
  HDC_CHECK(encoded.size() == model_.dim(), "encoded hypervector width mismatch");
  const auto scores = model_.scores(encoded, config_.similarity);
  const auto predicted = static_cast<std::uint32_t>(tensor::argmax(scores));

  ++stats_.samples_seen;
  stats_.recent.add(predicted != label);
  if (predicted != label) {
    ++stats_.errors;
    // Cosine scores live in [-1, 1]; clamp so the adaptive factor stays in
    // [0, 2] even for the dot metric or a cold (all-zero) model.
    const float sim_true = std::clamp(scores[label], -1.0F, 1.0F);
    const float sim_pred = std::clamp(scores[predicted], -1.0F, 1.0F);
    model_.bundle(label, encoded, config_.learning_rate * (1.0F - sim_true));
    model_.detach(predicted, encoded, config_.learning_rate * (1.0F - sim_pred));
  }
  return predicted;
}

double OnlineLearner::learn_batch(const data::Dataset& batch) {
  batch.validate();
  HDC_CHECK(batch.num_features() == encoder_.num_features(),
            "batch feature count disagrees with learner");
  HDC_CHECK(batch.num_classes <= model_.num_classes(),
            "batch declares more classes than the learner was built for");
  HDC_CHECK(batch.num_samples() > 0, "online learning over an empty batch");
  // The encoder never adapts, so encoding the whole batch up front gives
  // each sample the hypervector `learn` would compute for it.
  const tensor::MatrixF encoded = encoder_.encode_batch(batch.features);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < batch.num_samples(); ++i) {
    correct += learn_encoded(encoded.row(i), batch.labels[i]) == batch.labels[i] ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(batch.num_samples());
}

std::uint32_t OnlineLearner::predict(std::span<const float> sample) const {
  return model_.predict(encoder_.encode(sample), config_.similarity);
}

std::vector<float> OnlineLearner::encode(std::span<const float> sample) const {
  return encoder_.encode(sample);
}

OnlineLearner::Decision OnlineLearner::decide(std::span<const float> sample) const {
  return decide_encoded(encoder_.encode(sample));
}

OnlineLearner::Decision OnlineLearner::decide_encoded(
    std::span<const float> encoded) const {
  const auto scores = model_.scores(encoded, config_.similarity);
  Decision decision;
  decision.predicted = static_cast<std::uint32_t>(tensor::argmax(scores));
  decision.top1 = scores[decision.predicted];
  decision.top2 = decision.top1;
  bool has_second = false;
  for (std::size_t c = 0; c < scores.size(); ++c) {
    if (c == decision.predicted) {
      continue;
    }
    if (!has_second || scores[c] > decision.top2) {
      decision.top2 = scores[c];
      has_second = true;
    }
  }
  if (!has_second) {
    decision.top2 = 0.0F;  // single-class model: margin degenerates to top1
  }
  return decision;
}

TrainedClassifier OnlineLearner::freeze() const {
  return TrainedClassifier{Encoder(encoder_.base()), HdModel(model_.class_hypervectors())};
}

void OnlineLearner::reset_stats() { stats_ = OnlineStats(config_.error_window); }

OnlineLearner::OnlineLearner(OnlineConfig config, Encoder encoder, HdModel model,
                             OnlineStats stats)
    : config_(config),
      encoder_(std::move(encoder)),
      model_(std::move(model)),
      stats_(std::move(stats)) {}

void OnlineLearner::serialize(ByteWriter& writer) const {
  learner_fields(config_, encoder_.base(), model_.class_hypervectors(), stats_, writer);
}

OnlineLearner OnlineLearner::deserialize(ByteReader& reader) {
  OnlineConfig config;
  tensor::MatrixF base;
  tensor::MatrixF class_hvs;
  OnlineStats stats;
  learner_fields(config, base, class_hvs, stats, reader);
  return OnlineLearner(config, Encoder(std::move(base)), HdModel(std::move(class_hvs)),
                       std::move(stats));
}

}  // namespace hdc::core

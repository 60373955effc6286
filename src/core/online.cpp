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

void WindowedRate::serialize(ByteWriter& writer) const {
  writer.write_vector(ring_);
  writer.write<std::uint64_t>(filled_);
  writer.write<std::uint64_t>(sum_);
  writer.write<std::uint64_t>(head_);
}

WindowedRate WindowedRate::deserialize(ByteReader& reader) {
  std::vector<std::uint8_t> ring = reader.read_vector<std::uint8_t>(1ULL << 24);
  HDC_CHECK(!ring.empty(), "serialized windowed rate has an empty ring");
  WindowedRate rate(static_cast<std::uint32_t>(ring.size()));
  rate.ring_ = std::move(ring);
  rate.filled_ = reader.read<std::uint64_t>();
  rate.sum_ = reader.read<std::uint64_t>();
  rate.head_ = static_cast<std::size_t>(reader.read<std::uint64_t>());
  HDC_CHECK(rate.filled_ <= rate.ring_.size() && rate.head_ < rate.ring_.size(),
            "serialized windowed rate counters out of range");
  return rate;
}

void OnlineStats::serialize(ByteWriter& writer) const {
  writer.write<std::uint64_t>(samples_seen);
  writer.write<std::uint64_t>(errors);
  recent.serialize(writer);
}

OnlineStats OnlineStats::deserialize(ByteReader& reader) {
  OnlineStats stats;
  stats.samples_seen = reader.read<std::uint64_t>();
  stats.errors = reader.read<std::uint64_t>();
  stats.recent = WindowedRate::deserialize(reader);
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

namespace {

void write_matrix(ByteWriter& writer, const tensor::MatrixF& m) {
  writer.write<std::uint64_t>(m.rows());
  writer.write<std::uint64_t>(m.cols());
  writer.write_vector(m.storage());
}

tensor::MatrixF read_matrix(ByteReader& reader) {
  const auto rows = reader.read<std::uint64_t>();
  const auto cols = reader.read<std::uint64_t>();
  HDC_CHECK(rows > 0 && cols > 0, "serialized matrix has an empty dimension");
  HDC_CHECK(rows * cols <= (1ULL << 31), "serialized matrix exceeds sanity bound");
  std::vector<float> data = reader.read_vector<float>();
  HDC_CHECK(data.size() == rows * cols, "serialized matrix payload size mismatch");
  return tensor::MatrixF(rows, cols, std::move(data));
}

}  // namespace

OnlineLearner::OnlineLearner(OnlineConfig config, Encoder encoder, HdModel model,
                             OnlineStats stats)
    : config_(config),
      encoder_(std::move(encoder)),
      model_(std::move(model)),
      stats_(std::move(stats)) {}

void OnlineLearner::serialize(ByteWriter& writer) const {
  writer.write<std::uint32_t>(config_.dim);
  writer.write<std::uint64_t>(config_.seed);
  writer.write<float>(config_.learning_rate);
  writer.write<std::uint8_t>(static_cast<std::uint8_t>(config_.similarity));
  writer.write<std::uint32_t>(config_.error_window);
  write_matrix(writer, encoder_.base());
  write_matrix(writer, model_.class_hypervectors());
  stats_.serialize(writer);
}

OnlineLearner OnlineLearner::deserialize(ByteReader& reader) {
  OnlineConfig config;
  config.dim = reader.read<std::uint32_t>();
  config.seed = reader.read<std::uint64_t>();
  config.learning_rate = reader.read<float>();
  const auto similarity = reader.read<std::uint8_t>();
  HDC_CHECK(similarity <= static_cast<std::uint8_t>(Similarity::kCosine),
            "serialized similarity metric out of range");
  config.similarity = static_cast<Similarity>(similarity);
  config.error_window = reader.read<std::uint32_t>();
  tensor::MatrixF base = read_matrix(reader);
  tensor::MatrixF class_hvs = read_matrix(reader);
  HDC_CHECK(base.cols() == class_hvs.cols(),
            "serialized learner encoder and model widths disagree");
  OnlineStats stats = OnlineStats::deserialize(reader);
  return OnlineLearner(config, Encoder(std::move(base)), HdModel(std::move(class_hvs)),
                       std::move(stats));
}

}  // namespace hdc::core

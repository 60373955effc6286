#include "core/bagging.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "tensor/ops.hpp"

namespace hdc::core {

std::uint32_t BaggingConfig::effective_sub_dim() const {
  if (sub_dim != 0) {
    return sub_dim;
  }
  HDC_CHECK(num_models > 0, "bagging requires at least one sub-model");
  return std::max<std::uint32_t>(1, base.dim / num_models);
}

void BaggingConfig::validate() const {
  HDC_CHECK(num_models > 0, "bagging requires at least one sub-model");
  HDC_CHECK(epochs > 0, "bagging requires at least one training iteration");
  bootstrap.validate();
  base.validate();
}

std::uint32_t BaggedEnsemble::num_classes() const {
  HDC_CHECK(!members.empty(), "empty ensemble");
  return members.front().model.num_classes();
}

std::uint32_t BaggedEnsemble::full_dim() const {
  std::uint32_t total = 0;
  for (const auto& member : members) {
    total += member.encoder.dim();
  }
  return total;
}

std::uint32_t BaggedEnsemble::predict(std::span<const float> sample) const {
  HDC_CHECK(!members.empty(), "empty ensemble");
  std::vector<float> totals(num_classes(), 0.0F);
  for (const auto& member : members) {
    const auto encoded = member.encoder.encode(sample);
    const auto member_scores = member.model.scores(encoded, Similarity::kDot);
    for (std::size_t c = 0; c < totals.size(); ++c) {
      totals[c] += member_scores[c];
    }
  }
  return static_cast<std::uint32_t>(tensor::argmax(totals));
}

std::vector<std::uint32_t> BaggedEnsemble::predict_batch(const tensor::MatrixF& samples) const {
  std::vector<std::uint32_t> out(samples.rows());
  // Sample-parallel consensus: each row's member scores sum independently.
  parallel::parallel_for(0, samples.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      out[i] = predict(samples.row(i));
    }
  });
  return out;
}

TrainedClassifier stack(const BaggedEnsemble& ensemble) {
  HDC_CHECK(!ensemble.members.empty(), "cannot stack an empty ensemble");

  std::vector<tensor::MatrixF> bases;
  std::vector<tensor::MatrixF> class_blocks;
  bases.reserve(ensemble.members.size());
  class_blocks.reserve(ensemble.members.size());
  for (const auto& member : ensemble.members) {
    bases.push_back(member.encoder.base());
    // Class blocks concatenate along the hypervector axis, i.e. columns of
    // the k x d class matrix.
    class_blocks.push_back(member.model.class_hypervectors());
  }

  return TrainedClassifier{Encoder(tensor::hstack(bases)),
                           HdModel(tensor::hstack(class_blocks))};
}

BaggedEnsemble train_bagged(const data::Dataset& train, const BaggingConfig& config,
                            const MemberStep& step) {
  train.validate();
  config.validate();
  const std::uint32_t sub_dim = config.effective_sub_dim();
  const auto num_samples = static_cast<std::uint32_t>(train.num_samples());
  const auto num_features = static_cast<std::uint32_t>(train.num_features());

  HdConfig sub_config = config.base;
  sub_config.dim = sub_dim;
  sub_config.epochs = config.epochs;
  const Trainer trainer(sub_config);

  Rng rng(config.base.seed);
  BaggedEnsemble ensemble;
  ensemble.members.reserve(config.num_models);
  ensemble.training.reserve(config.num_models);
  for (std::uint32_t m = 0; m < config.num_models; ++m) {
    Rng member_rng = rng.split();
    const auto bootstrap =
        data::draw_bootstrap(num_samples, num_features, config.bootstrap, member_rng);

    Encoder encoder(num_features, sub_dim, member_rng.next_u64());
    encoder.apply_feature_mask(bootstrap.feature_mask);

    const data::Dataset subset = train.select(bootstrap.sample_indices);
    TrainResult trained = step(m, trainer, encoder, subset);

    ensemble.training.push_back(
        TrainingRecord{std::move(trained.history), trained.total_updates});
    ensemble.members.push_back(SubModel{std::move(encoder), std::move(trained.model), bootstrap});
  }
  return ensemble;
}

}  // namespace hdc::core

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.hpp"
#include "core/encoder.hpp"
#include "core/model.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/sampling.hpp"

namespace hdc::core {

/// Bagging configuration (paper Section III-B). Defaults are the paper's
/// chosen operating point: M = 4 sub-models of width d' = d/M = 2500,
/// 6 iterations, dataset sampling alpha = 0.6, feature sampling disabled.
struct BaggingConfig {
  std::uint32_t num_models = 4;     ///< M
  std::uint32_t sub_dim = 0;        ///< d'; 0 means dim / num_models
  std::uint32_t epochs = 6;         ///< I' (reduced iterations)
  data::BootstrapConfig bootstrap;  ///< alpha / beta sampling ratios
  HdConfig base;                    ///< full-model dim, seed, lambda, metric

  std::uint32_t effective_sub_dim() const;
  void validate() const;
};

/// One bagged learner: its own random bases (with masked features zeroed),
/// its trained class hypervectors and the bootstrap that produced it.
struct SubModel {
  Encoder encoder;
  HdModel model;
  data::BootstrapSample bootstrap;
};

/// The trained ensemble plus per-member training history.
struct BaggedEnsemble {
  std::vector<SubModel> members;
  std::vector<TrainingRecord> training;  ///< per-epoch stats per member

  std::uint32_t num_classes() const;
  std::uint32_t full_dim() const;  ///< sum of member widths

  /// Consensus prediction: per-class dot-product scores summed over members.
  std::uint32_t predict(std::span<const float> sample) const;
  std::vector<std::uint32_t> predict_batch(const tensor::MatrixF& samples) const;
};

/// Assembles the single full-width inference model from an ensemble by
/// stacking member base matrices horizontally (n x d) and member
/// class-hypervector blocks along the hypervector axis (d x k when
/// transposed). By construction the stacked model's dot scores equal the sum
/// of the member scores, so consensus inference costs exactly one wide model
/// evaluation.
TrainedClassifier stack(const BaggedEnsemble& ensemble);

/// Fits one member: `trainer` carries the member config (d', I'), `encoder`
/// the member's masked bases, `subset` its bootstrap rows.
using MemberStep = std::function<TrainResult(std::uint32_t member, const Trainer& trainer,
                                             const Encoder& encoder,
                                             const data::Dataset& subset)>;

/// The bagging member protocol (paper Fig. 3 training flow): member m draws
/// its bootstrap and bases from the m-th split of `config.base.seed`, and
/// `step` fits it on its bootstrap subset. Members run one after another in
/// member order, so only one member's subset and encodings are alive at a
/// time; the ensemble is a pure function of the inputs and the step.
BaggedEnsemble train_bagged(const data::Dataset& train, const BaggingConfig& config,
                            const MemberStep& step);

}  // namespace hdc::core

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/encoder.hpp"
#include "data/synthetic.hpp"
#include "nn/logistic.hpp"

namespace hdc::nn {
namespace {

// ------------------------------------------------------------- logistic ----

class LogisticTest : public ::testing::Test {
 protected:
  struct Task {
    tensor::MatrixF train_encoded;
    std::vector<std::uint32_t> train_labels;
    tensor::MatrixF test_encoded;
    std::vector<std::uint32_t> test_labels;
    std::uint32_t classes;
  };

  static Task make_task() {
    data::Dataset all = data::generate_synthetic(data::paper_dataset("PAMAP2"), 700);
    auto split = data::split_dataset(all, 0.25, 51);
    data::MinMaxNormalizer norm;
    norm.fit(split.train);
    norm.apply(split.train);
    norm.apply(split.test);
    const core::Encoder encoder(static_cast<std::uint32_t>(split.train.num_features()),
                                1024, 3);
    return Task{encoder.encode_batch(split.train.features), split.train.labels,
                encoder.encode_batch(split.test.features), split.test.labels,
                split.train.num_classes};
  }
};

TEST_F(LogisticTest, ConfigValidation) {
  LogisticConfig cfg;
  cfg.epochs = 0;
  EXPECT_THROW(cfg.validate(), hdc::Error);
  cfg = LogisticConfig{};
  cfg.learning_rate = -1.0F;
  EXPECT_THROW(cfg.validate(), hdc::Error);
}

TEST_F(LogisticTest, LearnsEncodedTask) {
  const Task task = make_task();
  LogisticConfig cfg;
  cfg.epochs = 10;
  const auto result =
      train_logistic(task.train_encoded, task.train_labels, task.classes, cfg);
  ASSERT_EQ(result.epoch_accuracy.size(), 10U);
  EXPECT_GT(result.epoch_accuracy.back(), 0.9);

  std::size_t correct = 0;
  for (std::size_t i = 0; i < task.test_encoded.rows(); ++i) {
    correct +=
        logistic_predict(result.weights, task.test_encoded.row(i)) == task.test_labels[i];
  }
  EXPECT_GT(static_cast<double>(correct) / task.test_encoded.rows(), 0.85);
}

TEST_F(LogisticTest, AccuracyImprovesOverEpochs) {
  const Task task = make_task();
  LogisticConfig cfg;
  cfg.epochs = 8;
  const auto result =
      train_logistic(task.train_encoded, task.train_labels, task.classes, cfg);
  EXPECT_GT(result.epoch_accuracy.back(), result.epoch_accuracy.front());
}

TEST_F(LogisticTest, DeterministicForSeed) {
  const Task task = make_task();
  LogisticConfig cfg;
  cfg.epochs = 3;
  const auto a = train_logistic(task.train_encoded, task.train_labels, task.classes, cfg);
  const auto b = train_logistic(task.train_encoded, task.train_labels, task.classes, cfg);
  EXPECT_EQ(a.weights, b.weights);
}

TEST_F(LogisticTest, WeightDecayShrinksNorms) {
  const Task task = make_task();
  LogisticConfig plain;
  plain.epochs = 5;
  LogisticConfig decayed = plain;
  decayed.l2 = 0.01F;
  const auto w_plain =
      train_logistic(task.train_encoded, task.train_labels, task.classes, plain);
  const auto w_decayed =
      train_logistic(task.train_encoded, task.train_labels, task.classes, decayed);
  double norm_plain = 0.0;
  double norm_decayed = 0.0;
  for (std::size_t i = 0; i < w_plain.weights.size(); ++i) {
    norm_plain += std::fabs(w_plain.weights.storage()[i]);
    norm_decayed += std::fabs(w_decayed.weights.storage()[i]);
  }
  EXPECT_LT(norm_decayed, norm_plain);
}

TEST_F(LogisticTest, MismatchedLabelsRejected) {
  tensor::MatrixF encoded(4, 8);
  std::vector<std::uint32_t> labels(3);
  EXPECT_THROW(train_logistic(encoded, labels, 2, LogisticConfig{}), hdc::Error);
}

}  // namespace
}  // namespace hdc::nn

#pragma once

#include <cstdint>

namespace hdc::core {

/// Similarity metric for the associative search. Training defaults to cosine
/// (robust to class-hypervector norm drift); the generated inference model
/// uses the paper's dot-product approximation so it maps to one dense layer.
enum class Similarity { kDot, kCosine };

/// Hyperparameters of a single (non-bagged) HDC learner.
struct HdConfig {
  std::uint32_t dim = 10000;        ///< hypervector width d
  std::uint64_t seed = 42;          ///< base-hypervector generator seed
  float learning_rate = 1.0F;       ///< lambda in the bundling/detaching update
  std::uint32_t epochs = 20;        ///< training iterations (paper: 20 for full models)
  Similarity similarity = Similarity::kCosine;
  /// Host worker threads for encode and batch scoring while
  /// this config trains (0 = keep the process-wide `parallel` setting).
  /// Results are bit-identical for any value; this is purely a speed knob.
  std::uint32_t threads = 0;

  void validate() const;
};

}  // namespace hdc::core

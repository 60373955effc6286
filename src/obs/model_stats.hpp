#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/byte_io.hpp"
#include "common/sim_time.hpp"
#include "obs/monitor.hpp"
#include "tensor/matrix.hpp"

namespace hdc::obs {

/// Shape of the model-quality monitor. Like `MonitorConfig`, the serving
/// layer fills `num_classes` / `dim` / `window` from the session it attaches
/// to; the alarm thresholds and bin counts are user tunables.
struct ModelStatsConfig {
  std::uint32_t num_classes = 0;  ///< required: sizes confusion/calibration
  /// Encoded hypervector width for per-dimension discriminability; 0
  /// disables dimension stats (fleet aggregates use 0 because tenants encode
  /// with different seeds, so their dimensions are not comparable).
  std::uint32_t dim = 0;
  WindowConfig window;  ///< confusion-matrix window (matches the monitor's)
  /// The per-dimension ring keeps `dim_buckets` coarser slots over the same
  /// span, bounding memory at dim_buckets x (num_classes + 2) x dim doubles.
  std::size_t dim_buckets = 4;
  std::size_t calibration_bins = 10;
  std::size_t top_pairs = 3;   ///< confusable pairs exported per snapshot
  std::size_t bottom_dims = 8; ///< least-discriminative dims exported
  /// "class_error" fires while the worst per-class windowed error rate
  /// (classes with >= min_class_samples windowed true-label samples) exceeds
  /// this.
  double alarm_class_error_rate = 0.75;
  /// "confusion_pair" fires while the worst windowed off-diagonal fraction
  /// P(pred = b | true = a) exceeds this.
  double alarm_confusion_pair = 0.5;
  std::uint64_t min_class_samples = 16;
  /// A class-vector entry counts as saturated when |v| >= band * row absmax
  /// (mass-concentration proxy: near 1.0 when a few dimensions dominate).
  double saturation_band = 0.5;

  void validate() const;
};

/// Point-in-time view of the model-quality monitor. Renders as the `model`
/// object inside hdc-monitor-v1 snapshots (deterministic bytes for a fixed
/// config/seed), as `model.*` entries in the flat perfdiff gate map, and as
/// `hdc_model_*` Prometheus families.
struct ModelStatsSnapshot {
  SimDuration at;
  std::uint32_t num_classes = 0;
  std::uint32_t dim = 0;

  // Lifetime conservation triple (pinned by `hdc model inspect
  // --assert-conservation`): confusion row sums == class_served entries ==
  // per-class served samples, and both sum to samples_total exactly.
  std::uint64_t samples_total = 0;
  std::vector<std::uint64_t> confusion;     ///< C x C row-major, row = true label
  std::vector<std::uint64_t> class_served;  ///< per true label

  // Windowed prequential view.
  std::uint64_t window_samples = 0;
  std::vector<std::uint64_t> window_confusion;  ///< C x C row-major
  std::vector<double> window_recall;     ///< diag / row sum (0 on empty row)
  std::vector<double> window_precision;  ///< diag / column sum (0 on empty col)
  double window_accuracy = 0.0;
  struct ConfusionPair {
    std::uint32_t actual = 0;
    std::uint32_t predicted = 0;
    std::uint64_t count = 0;
    double fraction = 0.0;  ///< count / windowed row sum of `actual`
  };
  std::vector<ConfusionPair> top_pairs;  ///< count-descending off-diagonal

  // Lifetime calibration curve: confidence = (top1 + 1) / 2 clamped to
  // [0, 1] (top-1 scores live in [-1, 1]), binned uniformly.
  struct CalibrationBin {
    std::uint64_t count = 0;
    std::uint64_t correct = 0;
    double confidence_sum = 0.0;
  };
  std::vector<CalibrationBin> calibration;
  double ece = 0.0;  ///< expected calibration error, sum |acc_b - conf_b| * n_b / N

  // Class-vector health of the most recently observed model.
  double norm_min = 0.0;
  double norm_mean = 0.0;
  double saturation_fraction = 0.0;
  /// Pairwise cosine separation 1 - cos(a, b): higher = classes further
  /// apart in HD space.
  double separation_min = 0.0;
  double separation_mean = 0.0;
  std::uint64_t model_refreshes = 0;

  // Per-dimension discriminability (between-class / within-class variance
  // over the sliding dim window); the bottom of the ranking is what a
  // DistHD-style regeneration pass would retire first.
  std::uint64_t dim_window_samples = 0;
  double dim_score_mean = 0.0;
  struct DimScore {
    std::uint32_t dim = 0;
    double score = 0.0;
  };
  std::vector<DimScore> bottom_dims;  ///< ascending score

  std::vector<AlarmState> alarms;  ///< detail: "class=3", "pair=2->5"
  bool quarantined = false;
  std::uint64_t suppressed_alarms_total = 0;

  /// The `"model"` JSON object (deterministic bytes).
  std::string to_json() const;
  /// `,"model.x":{...}` gate entries for the flat hdc-bench-v1 metrics map
  /// (each entry carries its leading comma so the owner can append the run
  /// inside an already-open map).
  std::string metrics_json() const;
  /// `hdc_model_*` Prometheus families.
  std::string to_prometheus() const;
};

/// Deterministic, simulated-time model-quality monitor: windowed confusion
/// matrix with per-class prequential recall/precision and top-K confusable
/// pairs, a calibration curve over top-1 similarity with ECE, class-vector
/// health from the live `HdModel`, and incremental per-dimension
/// discriminability scores ranking the dimensions DistHD-style regeneration
/// would retire. Strictly observational, like `ServingMonitor`: it receives
/// copies of values the serving path already computed and never feeds
/// anything back.
///
/// Alarms ("class_error" on per-class accuracy collapse, "confusion_pair" on
/// a dominant off-diagonal cell) live in an `AlarmBank` like the serving
/// monitor's (same edge rule, quarantine gate and log grammar) and carry the
/// culprit in `AlarmEvent::detail`.
class ModelQualityStats {
 public:
  explicit ModelQualityStats(ModelStatsConfig config);

  const ModelStatsConfig& config() const noexcept { return config_; }

  /// One served sample: endpoint prediction, true (prequential) label, and
  /// the served model's top-1 score, stamped with its simulated
  /// completion time. Conservation contract: record() is called exactly once
  /// per *served* sample (never for shed/expired ones), so confusion row
  /// sums, class_served and samples_total stay exactly equal to the serving
  /// layer's per-class served counts.
  struct Sample {
    SimDuration at;
    std::uint32_t predicted = 0;
    std::uint32_t label = 0;
    double top1 = 0.0;  ///< served model's top-1 class score over sqrt(d), in [-1, 1]
    std::int64_t request_id = -1;
  };
  void record(const Sample& sample);

  /// Folds one encoded hypervector into the sliding per-dimension
  /// discriminability window. No-op when `config.dim == 0`. Kept separate
  /// from record() because the fleet aggregate records outcomes without
  /// comparable encodings.
  void record_dimensions(SimDuration at, std::uint32_t label,
                         std::span<const float> encoded);

  /// Recomputes class-vector health from a (re)deployed model. Rejects a
  /// class-count (and, when dimension stats are enabled, width) mismatch
  /// instead of mis-indexing per-class state.
  void observe_model(const tensor::MatrixF& class_hypervectors);

  /// Mirrors `ServingMonitor::set_quarantined` (suppress-and-summarize).
  void set_quarantined(bool quarantined, SimDuration at);

  std::uint64_t samples_total() const noexcept { return samples_total_; }
  const AlarmBank& alarms() const noexcept { return bank_; }

  ModelStatsSnapshot snapshot(SimDuration now);

  /// Exact-state round-trip for the serve checkpoint (doubles bit-exact):
  /// a restored instance's subsequent snapshots and alarm edges are
  /// byte-identical to one that was never serialized.
  void serialize(ByteWriter& writer) const;
  static ModelQualityStats deserialize(ByteReader& reader);

 private:
  template <typename Self, typename Io>
  static void state_fields(Self& self, Io& io);

  /// Per-slot sufficient statistics for the discriminability ratio: per-class
  /// and overall sums plus per-dim sum of squares over the slot's samples.
  struct DimSlot {
    std::vector<double> class_sums;  ///< num_classes x dim row-major
    std::vector<double> sums;        ///< dim
    std::vector<double> sumsq;       ///< dim
    std::vector<std::uint64_t> counts;  ///< per class
  };

  /// Bank indices, in the historic snapshot and wire order.
  enum Alarm : std::size_t { kClassError, kConfusionPair };

  void evaluate_alarms(SimDuration now, std::int64_t request_id);
  /// The window's C x C confusion summed over its buckets, in `merged_`.
  const std::vector<std::uint64_t>& merged_window_confusion(SimDuration now);

  ModelStatsConfig config_;

  detail::BucketRing<std::vector<std::uint64_t>> window_confusion_;
  std::optional<detail::BucketRing<DimSlot>> dims_;  ///< engaged when dim > 0

  std::vector<std::uint64_t> confusion_;     ///< lifetime C x C
  std::vector<std::uint64_t> class_served_;  ///< lifetime per true label
  std::vector<ModelStatsSnapshot::CalibrationBin> calibration_;
  std::uint64_t samples_total_ = 0;

  double norm_min_ = 0.0;
  double norm_mean_ = 0.0;
  double saturation_ = 0.0;
  double separation_min_ = 0.0;
  double separation_mean_ = 0.0;
  std::uint64_t model_refreshes_ = 0;

  AlarmBank bank_;

  /// Scratch for `merged_window_confusion`, reused across samples.
  std::vector<std::uint64_t> merged_;
  /// The culprits the bank's details were last formatted from. They start
  /// at a value no evaluation produces, so a fresh or restored instance
  /// formats on its first evaluation.
  static constexpr std::ptrdiff_t kUnformatted = -2;
  std::ptrdiff_t detail_error_class_ = kUnformatted;
  std::ptrdiff_t detail_pair_actual_ = kUnformatted;
  std::size_t detail_pair_predicted_ = 0;
};

}  // namespace hdc::obs

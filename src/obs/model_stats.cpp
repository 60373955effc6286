#include "obs/model_stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace hdc::obs {

namespace {

/// Denominator floor for the variance ratio (the scores are eta-squared
/// style fractions in [0, 1], so the floor only matters for empty windows).
constexpr double kVarianceEpsilon = 1e-12;

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

}  // namespace

void ModelStatsConfig::validate() const {
  HDC_CHECK(num_classes > 0, "model stats need the class count");
  window.validate();
  HDC_CHECK(dim_buckets > 0, "model stats need at least one dimension bucket");
  HDC_CHECK(calibration_bins > 0, "model stats need at least one calibration bin");
  HDC_CHECK(alarm_class_error_rate >= 0.0 && alarm_confusion_pair >= 0.0,
            "model alarm thresholds must be non-negative");
  HDC_CHECK(saturation_band > 0.0 && saturation_band <= 1.0,
            "saturation band must be in (0, 1]");
}

ModelQualityStats::ModelQualityStats(ModelStatsConfig config)
    : config_(config),
      window_confusion_(config.window,
                        std::vector<std::uint64_t>(
                            static_cast<std::size_t>(config.num_classes) *
                                config.num_classes,
                            0)),
      confusion_(static_cast<std::size_t>(config.num_classes) * config.num_classes, 0),
      class_served_(config.num_classes, 0),
      calibration_(config.calibration_bins),
      bank_({ThresholdAlarm("class_error", config.alarm_class_error_rate),
             ThresholdAlarm("confusion_pair", config.alarm_confusion_pair)},
            /*with_details=*/true) {
  config_.validate();
  if (config_.dim > 0) {
    DimSlot zero;
    zero.class_sums.assign(
        static_cast<std::size_t>(config_.num_classes) * config_.dim, 0.0);
    zero.sums.assign(config_.dim, 0.0);
    zero.sumsq.assign(config_.dim, 0.0);
    zero.counts.assign(config_.num_classes, 0);
    dims_.emplace(WindowConfig{config_.window.span, config_.dim_buckets},
                  std::move(zero));
  }
}

void ModelQualityStats::record(const Sample& sample) {
  HDC_CHECK(sample.predicted < config_.num_classes,
            "predicted class out of model-stats range");
  HDC_CHECK(sample.label < config_.num_classes,
            "true label out of model-stats range");
  const std::size_t cell =
      static_cast<std::size_t>(sample.label) * config_.num_classes + sample.predicted;

  ++samples_total_;
  ++confusion_[cell];
  ++class_served_[sample.label];
  ++window_confusion_.at(sample.at)[cell];

  const double confidence = clamp01(0.5 * (sample.top1 + 1.0));
  std::size_t bin = static_cast<std::size_t>(
      confidence * static_cast<double>(config_.calibration_bins));
  bin = std::min(bin, config_.calibration_bins - 1);
  ModelStatsSnapshot::CalibrationBin& slot = calibration_[bin];
  ++slot.count;
  if (sample.predicted == sample.label) {
    ++slot.correct;
  }
  slot.confidence_sum += confidence;

  evaluate_alarms(sample.at, sample.request_id);
}

void ModelQualityStats::record_dimensions(SimDuration at, std::uint32_t label,
                                          std::span<const float> encoded) {
  if (!dims_.has_value()) {
    return;
  }
  HDC_CHECK(label < config_.num_classes, "true label out of model-stats range");
  HDC_CHECK(encoded.size() == config_.dim,
            "encoded width does not match model-stats dim");
  DimSlot& slot = dims_->at(at);
  double* class_row = slot.class_sums.data() +
                      static_cast<std::size_t>(label) * config_.dim;
  for (std::size_t d = 0; d < config_.dim; ++d) {
    const double v = static_cast<double>(encoded[d]);
    class_row[d] += v;
    slot.sums[d] += v;
    slot.sumsq[d] += v * v;
  }
  ++slot.counts[label];
}

void ModelQualityStats::observe_model(const tensor::MatrixF& class_hypervectors) {
  HDC_CHECK(class_hypervectors.rows() == config_.num_classes,
            "deployed model class count does not match model-stats config");
  if (config_.dim > 0) {
    HDC_CHECK(class_hypervectors.cols() == config_.dim,
              "deployed model width does not match model-stats dim");
  }
  const std::size_t rows = class_hypervectors.rows();
  const std::size_t cols = class_hypervectors.cols();

  double norm_min = 0.0;
  double norm_sum = 0.0;
  std::uint64_t saturated = 0;
  std::vector<double> norms(rows, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<const float> row = class_hypervectors.row(r);
    double sumsq = 0.0;
    double absmax = 0.0;
    for (const float v : row) {
      sumsq += static_cast<double>(v) * static_cast<double>(v);
      absmax = std::max(absmax, std::abs(static_cast<double>(v)));
    }
    norms[r] = std::sqrt(sumsq);
    norm_sum += norms[r];
    if (r == 0 || norms[r] < norm_min) {
      norm_min = norms[r];
    }
    if (absmax > 0.0) {
      const double band = config_.saturation_band * absmax;
      for (const float v : row) {
        if (std::abs(static_cast<double>(v)) >= band) {
          ++saturated;
        }
      }
    }
  }
  norm_min_ = norm_min;
  norm_mean_ = rows == 0 ? 0.0 : norm_sum / static_cast<double>(rows);
  saturation_ = rows == 0 || cols == 0
                    ? 0.0
                    : static_cast<double>(saturated) /
                          static_cast<double>(rows * cols);

  // Pairwise cosine separation 1 - cos(a, b); zero-norm rows contribute a
  // separation of 1 (a cold class vector is trivially "far" from everything,
  // and its norm already flags it above).
  double sep_min = 0.0;
  double sep_sum = 0.0;
  std::uint64_t pairs = 0;
  for (std::size_t a = 0; a + 1 < rows; ++a) {
    const std::span<const float> row_a = class_hypervectors.row(a);
    for (std::size_t b = a + 1; b < rows; ++b) {
      const std::span<const float> row_b = class_hypervectors.row(b);
      double dot = 0.0;
      for (std::size_t d = 0; d < cols; ++d) {
        dot += static_cast<double>(row_a[d]) * static_cast<double>(row_b[d]);
      }
      const double denom = norms[a] * norms[b];
      const double cosine = denom > 0.0 ? dot / denom : 0.0;
      const double separation = 1.0 - cosine;
      if (pairs == 0 || separation < sep_min) {
        sep_min = separation;
      }
      sep_sum += separation;
      ++pairs;
    }
  }
  separation_min_ = sep_min;
  separation_mean_ = pairs == 0 ? 0.0 : sep_sum / static_cast<double>(pairs);
  ++model_refreshes_;
}

const std::vector<std::uint64_t>& ModelQualityStats::merged_window_confusion(
    SimDuration now) {
  window_confusion_.advance_to(now);
  merged_.assign(static_cast<std::size_t>(config_.num_classes) * config_.num_classes, 0);
  for (const std::vector<std::uint64_t>& slot : window_confusion_.slots()) {
    for (std::size_t i = 0; i < merged_.size(); ++i) {
      merged_[i] += slot[i];
    }
  }
  return merged_;
}

void ModelQualityStats::evaluate_alarms(SimDuration now, std::int64_t request_id) {
  const std::vector<std::uint64_t>& window = merged_window_confusion(now);
  const std::size_t classes = config_.num_classes;

  // Running worst per alarm (first maximum wins); a negative index means no
  // class cleared the min_class_samples guard yet.
  double worst_error = 0.0;
  std::ptrdiff_t error_class = -1;
  double worst_pair = 0.0;
  std::ptrdiff_t pair_actual = -1;
  std::size_t pair_predicted = 0;
  for (std::size_t a = 0; a < classes; ++a) {
    std::uint64_t row = 0;
    for (std::size_t b = 0; b < classes; ++b) {
      row += window[a * classes + b];
    }
    if (row < config_.min_class_samples) {
      continue;
    }
    const double row_d = static_cast<double>(row);
    const double error =
        1.0 - static_cast<double>(window[a * classes + a]) / row_d;
    if (error_class < 0 || error > worst_error) {
      worst_error = error;
      error_class = static_cast<std::ptrdiff_t>(a);
    }
    for (std::size_t b = 0; b < classes; ++b) {
      if (b == a || window[a * classes + b] == 0) {
        continue;
      }
      const double fraction = static_cast<double>(window[a * classes + b]) / row_d;
      if (pair_actual < 0 || fraction > worst_pair) {
        worst_pair = fraction;
        pair_actual = static_cast<std::ptrdiff_t>(a);
        pair_predicted = b;
      }
    }
  }
  if (error_class != detail_error_class_) {
    bank_.detail(kClassError) =
        error_class < 0 ? std::string() : "class=" + std::to_string(error_class);
    detail_error_class_ = error_class;
  }
  if (pair_actual != detail_pair_actual_ || pair_predicted != detail_pair_predicted_) {
    bank_.detail(kConfusionPair) =
        pair_actual < 0 ? std::string()
                        : "pair=" + std::to_string(pair_actual) + "->" +
                              std::to_string(pair_predicted);
    detail_pair_actual_ = pair_actual;
    detail_pair_predicted_ = pair_predicted;
  }
  bank_.update(kClassError, now, worst_error, request_id);
  bank_.update(kConfusionPair, now, worst_pair, request_id);
}

void ModelQualityStats::set_quarantined(bool quarantined, SimDuration at) {
  bank_.set_quarantined(quarantined, at);
}

ModelStatsSnapshot ModelQualityStats::snapshot(SimDuration now) {
  ModelStatsSnapshot snap;
  snap.at = now;
  snap.num_classes = config_.num_classes;
  snap.dim = config_.dim;
  snap.samples_total = samples_total_;
  snap.confusion = confusion_;
  snap.class_served = class_served_;

  const std::size_t classes = config_.num_classes;
  snap.window_confusion = merged_window_confusion(now);
  snap.window_recall.assign(classes, 0.0);
  snap.window_precision.assign(classes, 0.0);
  std::uint64_t window_total = 0;
  std::uint64_t window_diag = 0;
  std::vector<std::uint64_t> row_sums(classes, 0);
  std::vector<std::uint64_t> col_sums(classes, 0);
  for (std::size_t a = 0; a < classes; ++a) {
    for (std::size_t b = 0; b < classes; ++b) {
      const std::uint64_t n = snap.window_confusion[a * classes + b];
      row_sums[a] += n;
      col_sums[b] += n;
      window_total += n;
      if (a == b) {
        window_diag += n;
      }
    }
  }
  for (std::size_t c = 0; c < classes; ++c) {
    const std::uint64_t diag = snap.window_confusion[c * classes + c];
    snap.window_recall[c] =
        row_sums[c] == 0 ? 0.0
                         : static_cast<double>(diag) / static_cast<double>(row_sums[c]);
    snap.window_precision[c] =
        col_sums[c] == 0 ? 0.0
                         : static_cast<double>(diag) / static_cast<double>(col_sums[c]);
  }
  snap.window_samples = window_total;
  snap.window_accuracy =
      window_total == 0
          ? 0.0
          : static_cast<double>(window_diag) / static_cast<double>(window_total);

  // Top-K confusable pairs: off-diagonal cells by count descending, ties to
  // the lowest (actual, predicted) — a total order, so snapshots are
  // deterministic.
  std::vector<ModelStatsSnapshot::ConfusionPair> pairs;
  for (std::size_t a = 0; a < classes; ++a) {
    for (std::size_t b = 0; b < classes; ++b) {
      if (a == b || snap.window_confusion[a * classes + b] == 0) {
        continue;
      }
      ModelStatsSnapshot::ConfusionPair pair;
      pair.actual = static_cast<std::uint32_t>(a);
      pair.predicted = static_cast<std::uint32_t>(b);
      pair.count = snap.window_confusion[a * classes + b];
      pair.fraction = static_cast<double>(pair.count) /
                      static_cast<double>(row_sums[a]);
      pairs.push_back(pair);
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const ModelStatsSnapshot::ConfusionPair& x,
               const ModelStatsSnapshot::ConfusionPair& y) {
              if (x.count != y.count) {
                return x.count > y.count;
              }
              if (x.actual != y.actual) {
                return x.actual < y.actual;
              }
              return x.predicted < y.predicted;
            });
  if (pairs.size() > config_.top_pairs) {
    pairs.resize(config_.top_pairs);
  }
  snap.top_pairs = std::move(pairs);

  snap.calibration = calibration_;
  double ece = 0.0;
  if (samples_total_ > 0) {
    for (const ModelStatsSnapshot::CalibrationBin& bin : calibration_) {
      if (bin.count == 0) {
        continue;
      }
      const double n = static_cast<double>(bin.count);
      const double accuracy = static_cast<double>(bin.correct) / n;
      const double confidence = bin.confidence_sum / n;
      ece += std::abs(accuracy - confidence) * n /
             static_cast<double>(samples_total_);
    }
  }
  snap.ece = ece;

  snap.norm_min = norm_min_;
  snap.norm_mean = norm_mean_;
  snap.saturation_fraction = saturation_;
  snap.separation_min = separation_min_;
  snap.separation_mean = separation_mean_;
  snap.model_refreshes = model_refreshes_;

  // Per-dimension discriminability: eta-squared style between-class variance
  // fraction per dim over the merged dim window, in [0, 1]. The bottom of
  // the ascending ranking (ties to the lowest dim index) is what a
  // DistHD-style regeneration pass would retire first.
  if (dims_.has_value()) {
    dims_->advance_to(now);
    const std::size_t dim = config_.dim;
    std::vector<double> class_sums(static_cast<std::size_t>(classes) * dim, 0.0);
    std::vector<double> sums(dim, 0.0);
    std::vector<double> sumsq(dim, 0.0);
    std::vector<std::uint64_t> counts(classes, 0);
    for (const DimSlot& slot : dims_->slots()) {
      for (std::size_t i = 0; i < class_sums.size(); ++i) {
        class_sums[i] += slot.class_sums[i];
      }
      for (std::size_t d = 0; d < dim; ++d) {
        sums[d] += slot.sums[d];
        sumsq[d] += slot.sumsq[d];
      }
      for (std::size_t c = 0; c < classes; ++c) {
        counts[c] += slot.counts[c];
      }
    }
    std::uint64_t total = 0;
    for (const std::uint64_t n : counts) {
      total += n;
    }
    snap.dim_window_samples = total;
    if (total >= 2) {
      std::vector<ModelStatsSnapshot::DimScore> scores(dim);
      const double n_total = static_cast<double>(total);
      double score_sum = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double mean = sums[d] / n_total;
        const double total_var = std::max(0.0, sumsq[d] / n_total - mean * mean);
        double between = 0.0;
        for (std::size_t c = 0; c < classes; ++c) {
          if (counts[c] == 0) {
            continue;
          }
          const double n_c = static_cast<double>(counts[c]);
          const double class_mean = class_sums[c * dim + d] / n_c;
          const double delta = class_mean - mean;
          between += (n_c / n_total) * delta * delta;
        }
        scores[d].dim = static_cast<std::uint32_t>(d);
        scores[d].score = clamp01(between / (total_var + kVarianceEpsilon));
        score_sum += scores[d].score;
      }
      snap.dim_score_mean = score_sum / static_cast<double>(dim);
      std::sort(scores.begin(), scores.end(),
                [](const ModelStatsSnapshot::DimScore& x,
                   const ModelStatsSnapshot::DimScore& y) {
                  if (x.score != y.score) {
                    return x.score < y.score;
                  }
                  return x.dim < y.dim;
                });
      if (scores.size() > config_.bottom_dims) {
        scores.resize(config_.bottom_dims);
      }
      snap.bottom_dims = std::move(scores);
    }
  }

  snap.alarms = bank_.states();
  snap.quarantined = bank_.quarantined();
  snap.suppressed_alarms_total = bank_.suppressed_total();
  return snap;
}

// -------------------------------------- checkpoint round-trip ---------------

namespace {

template <typename Config, typename Io>
void model_stats_config_fields(Config& config, Io& io) {
  io.pod(config.num_classes);
  io.pod(config.dim);
  io.duration(config.window.span);
  io.pod(config.window.buckets);
  io.pod(config.dim_buckets);
  io.pod(config.calibration_bins);
  io.pod(config.top_pairs);
  io.pod(config.bottom_dims);
  io.pod(config.alarm_class_error_rate);
  io.pod(config.alarm_confusion_pair);
  io.pod(config.min_class_samples);
  io.pod(config.saturation_band);
}

}  // namespace

template <typename Self, typename Io>
void ModelQualityStats::state_fields(Self& self, Io& io) {
  detail::ring_fields(self.window_confusion_, io, [&](auto& slot) { io.fixed(slot); });
  if (self.dims_.has_value()) {
    detail::ring_fields(*self.dims_, io, [&](auto& slot) {
      io.raw(slot.class_sums);
      io.raw(slot.sums);
      io.raw(slot.sumsq);
      io.fixed(slot.counts);
    });
  }

  io.fixed(self.confusion_);
  io.fixed(self.class_served_);
  for (auto& bin : self.calibration_) {
    io.pod(bin.count);
    io.pod(bin.correct);
    io.pod(bin.confidence_sum);
  }
  io.pod(self.samples_total_);

  io.pod(self.norm_min_);
  io.pod(self.norm_mean_);
  io.pod(self.saturation_);
  io.pod(self.separation_min_);
  io.pod(self.separation_mean_);
  io.pod(self.model_refreshes_);

  io.object(self.bank_);
}

void ModelQualityStats::serialize(ByteWriter& writer) const {
  model_stats_config_fields(config_, writer);
  state_fields(*this, writer);
}

ModelQualityStats ModelQualityStats::deserialize(ByteReader& reader) {
  ModelStatsConfig config;
  model_stats_config_fields(config, reader);
  // Bound every shape by the bytes left before the constructor sizes it:
  // the confusion matrix, each confusion-window bucket (a length plus the
  // matrix), the calibration bins, and each dimension-window bucket.
  const std::uint64_t matrix_cells =
      reader.fits(std::uint64_t{config.num_classes} * config.num_classes, 8);
  reader.fits(config.window.buckets, 8 * (1 + matrix_cells));
  reader.fits(config.calibration_bins, 24);
  if (config.dim > 0) {
    const std::uint64_t dim_cells =
        reader.fits(std::uint64_t{config.dim} * (config.num_classes + 2ULL), 8);
    reader.fits(config.dim_buckets, 8 * (1 + dim_cells));
  }
  ModelQualityStats stats(config);
  state_fields(stats, reader);
  return stats;
}

// --------------------------------------------- snapshot rendering -----------

using detail::append_field;
using detail::append_gate_metric;
using detail::prom_header;
using detail::prom_line;

namespace {

void append_matrix(std::string& out, const std::vector<std::uint64_t>& cells,
                   std::size_t classes) {
  out.push_back('[');
  for (std::size_t a = 0; a < classes; ++a) {
    if (a > 0) {
      out.push_back(',');
    }
    out.push_back('[');
    for (std::size_t b = 0; b < classes; ++b) {
      if (b > 0) {
        out.push_back(',');
      }
      out += std::to_string(cells[a * classes + b]);
    }
    out.push_back(']');
  }
  out.push_back(']');
}

}  // namespace

std::string ModelStatsSnapshot::to_json() const {
  const std::size_t classes = num_classes;
  std::string out;
  out += "{\"samples\":" + std::to_string(samples_total);
  out += ",\"classes\":" + std::to_string(num_classes);
  out += ",\"dim\":" + std::to_string(dim);

  out += ",\"confusion\":";
  append_matrix(out, confusion, classes);
  out += ",\"class_served\":[";
  for (std::size_t c = 0; c < class_served.size(); ++c) {
    if (c > 0) {
      out.push_back(',');
    }
    out += std::to_string(class_served[c]);
  }
  out += "]";

  out += ",\"window\":{\"samples\":" + std::to_string(window_samples);
  append_field(out, "accuracy", window_accuracy, true);
  out += ",\"confusion\":";
  append_matrix(out, window_confusion, classes);
  out += ",\"recall\":[";
  for (std::size_t c = 0; c < window_recall.size(); ++c) {
    if (c > 0) {
      out.push_back(',');
    }
    detail::append_json_number(out, window_recall[c]);
  }
  out += "],\"precision\":[";
  for (std::size_t c = 0; c < window_precision.size(); ++c) {
    if (c > 0) {
      out.push_back(',');
    }
    detail::append_json_number(out, window_precision[c]);
  }
  out += "],\"top_pairs\":[";
  for (std::size_t i = 0; i < top_pairs.size(); ++i) {
    const ConfusionPair& pair = top_pairs[i];
    if (i > 0) {
      out.push_back(',');
    }
    out += "{\"actual\":" + std::to_string(pair.actual) +
           ",\"predicted\":" + std::to_string(pair.predicted) +
           ",\"count\":" + std::to_string(pair.count);
    append_field(out, "fraction", pair.fraction, true);
    out.push_back('}');
  }
  out += "]}";

  out += ",\"calibration\":{";
  append_field(out, "ece", ece, false);
  out += ",\"bins\":[";
  for (std::size_t i = 0; i < calibration.size(); ++i) {
    const CalibrationBin& bin = calibration[i];
    if (i > 0) {
      out.push_back(',');
    }
    out += "{\"count\":" + std::to_string(bin.count) +
           ",\"correct\":" + std::to_string(bin.correct);
    append_field(out, "mean_confidence", bin.count == 0 ? 0.0
                     : bin.confidence_sum / static_cast<double>(bin.count),
                 true);
    out.push_back('}');
  }
  out += "]}";

  out += ",\"health\":{";
  append_field(out, "norm_min", norm_min, false);
  append_field(out, "norm_mean", norm_mean, true);
  append_field(out, "saturation_fraction", saturation_fraction, true);
  append_field(out, "separation_min", separation_min, true);
  append_field(out, "separation_mean", separation_mean, true);
  out += ",\"refreshes\":" + std::to_string(model_refreshes);
  out += "}";

  out += ",\"dims\":{\"window_samples\":" + std::to_string(dim_window_samples);
  append_field(out, "score_mean", dim_score_mean, true);
  out += ",\"bottom\":[";
  for (std::size_t i = 0; i < bottom_dims.size(); ++i) {
    if (i > 0) {
      out.push_back(',');
    }
    out += "{\"dim\":" + std::to_string(bottom_dims[i].dim);
    append_field(out, "score", bottom_dims[i].score, true);
    out.push_back('}');
  }
  out += "]}";

  AlarmBank::append_json(out, alarms);
  out += ",\"quarantined\":";
  out += quarantined ? "true" : "false";
  out += ",\"suppressed_alarms_total\":" + std::to_string(suppressed_alarms_total);
  out += "}";
  return out;
}

std::string ModelStatsSnapshot::metrics_json() const {
  std::string out;
  append_gate_metric(out, "model.accuracy", window_accuracy, "fraction", "sim",
                     "higher");
  append_gate_metric(out, "model.ece", ece, "fraction", "sim", "lower");
  append_gate_metric(out, "model.separation_min", separation_min, "fraction", "sim",
                     "higher");
  append_gate_metric(out, "model.samples", static_cast<double>(samples_total), "",
                     "info", "higher");
  append_gate_metric(out, "model.dim_score_mean", dim_score_mean, "fraction", "info",
                     "higher");
  double pair_fired = 0.0;
  for (const AlarmState& alarm : alarms) {
    if (alarm.name == "confusion_pair") {
      pair_fired = static_cast<double>(alarm.fired_total);
    }
  }
  append_gate_metric(out, "model.alarms.confusion_pair.fired_total", pair_fired, "",
                     "info", "lower");
  return out;
}

std::string ModelStatsSnapshot::to_prometheus() const {
  std::string out;
  prom_header(out, "hdc_model_samples_total", "counter",
              "Samples recorded by the model-quality monitor (lifetime)");
  prom_line(out, "hdc_model_samples_total", "", static_cast<double>(samples_total));
  prom_header(out, "hdc_model_class_served_total", "counter",
              "Served samples per true class (lifetime)");
  for (std::size_t c = 0; c < class_served.size(); ++c) {
    prom_line(out, "hdc_model_class_served_total",
              "class=\"" + std::to_string(c) + "\"",
              static_cast<double>(class_served[c]));
  }
  prom_header(out, "hdc_model_class_recall", "gauge",
              "Windowed prequential recall per true class");
  for (std::size_t c = 0; c < window_recall.size(); ++c) {
    prom_line(out, "hdc_model_class_recall", "class=\"" + std::to_string(c) + "\"",
              window_recall[c]);
  }
  prom_header(out, "hdc_model_class_precision", "gauge",
              "Windowed prequential precision per predicted class");
  for (std::size_t c = 0; c < window_precision.size(); ++c) {
    prom_line(out, "hdc_model_class_precision", "class=\"" + std::to_string(c) + "\"",
              window_precision[c]);
  }
  prom_header(out, "hdc_model_window_accuracy", "gauge",
              "Windowed prequential accuracy (confusion diagonal)");
  prom_line(out, "hdc_model_window_accuracy", "", window_accuracy);
  prom_header(out, "hdc_model_confusion_pair", "gauge",
              "Top confusable class pairs in the window (count)");
  for (const ConfusionPair& pair : top_pairs) {
    prom_line(out, "hdc_model_confusion_pair",
              "actual=\"" + std::to_string(pair.actual) + "\",predicted=\"" +
                  std::to_string(pair.predicted) + "\"",
              static_cast<double>(pair.count));
  }
  prom_header(out, "hdc_model_ece", "gauge", "Expected calibration error (lifetime)");
  prom_line(out, "hdc_model_ece", "", ece);
  prom_header(out, "hdc_model_calibration_count", "gauge",
              "Samples per calibration confidence bin (lifetime)");
  for (std::size_t i = 0; i < calibration.size(); ++i) {
    prom_line(out, "hdc_model_calibration_count", "bin=\"" + std::to_string(i) + "\"",
              static_cast<double>(calibration[i].count));
  }
  prom_header(out, "hdc_model_norm_min", "gauge", "Smallest class-vector L2 norm");
  prom_line(out, "hdc_model_norm_min", "", norm_min);
  prom_header(out, "hdc_model_norm_mean", "gauge", "Mean class-vector L2 norm");
  prom_line(out, "hdc_model_norm_mean", "", norm_mean);
  prom_header(out, "hdc_model_saturation_fraction", "gauge",
              "Fraction of class-vector entries near the row absmax");
  prom_line(out, "hdc_model_saturation_fraction", "", saturation_fraction);
  prom_header(out, "hdc_model_separation_min", "gauge",
              "Smallest pairwise cosine separation between class vectors");
  prom_line(out, "hdc_model_separation_min", "", separation_min);
  prom_header(out, "hdc_model_separation_mean", "gauge",
              "Mean pairwise cosine separation between class vectors");
  prom_line(out, "hdc_model_separation_mean", "", separation_mean);
  prom_header(out, "hdc_model_refreshes_total", "counter",
              "Model deployments observed (lifetime)");
  prom_line(out, "hdc_model_refreshes_total", "", static_cast<double>(model_refreshes));
  prom_header(out, "hdc_model_dim_score", "gauge",
              "Bottom-K per-dimension discriminability scores");
  for (const DimScore& score : bottom_dims) {
    prom_line(out, "hdc_model_dim_score", "dim=\"" + std::to_string(score.dim) + "\"",
              score.score);
  }
  AlarmBank::append_prometheus(out, alarms, "hdc_model", "model ");
  return out;
}

}  // namespace hdc::obs

// Inspection front end behind `hdc model inspect` and `hdc energy inspect`.
// Each reads any of the three artifacts that carry its section:
//
//   * hdc-monitor-v1 snapshots with a `model` / `energy` object (the serve
//     loop's `monitor_snapshot_*.json`, or the fleet router's
//     `fleet_snapshot_final.json`, whose section additionally carries a
//     per-tenant `tenants` array);
//   * the hdc-modelstats-v1 / hdc-energystats-v1 wrappers that
//     `checkpoint_model_stats_json` / `checkpoint_energy_json` emit;
//   * raw HDSV serve checkpoints (sniffed by magic; the embedded state is
//     snapshotted at the checkpoint's simulated time).
//
// `run` owns everything the two share: options, loading, the missing-section
// and tenant-not-found errors and the conservation report. A `Section` holds
// the rest: its key, checkpoint converter, printer and invariants.
//
// Model quality prints the windowed confusion table, per-class
// recall/precision, top confusable pairs, the calibration curve with ECE,
// class-vector health and the bottom-K discriminability dimensions.
// `--assert-conservation` checks the exact counting invariants:
//
//   * every lifetime confusion row sums exactly to that class's served count;
//   * the served counts sum exactly to the model's sample total;
//   * the calibration bin counts sum exactly to the sample total;
//   * the windowed confusion cells sum exactly to the windowed sample count;
//   * when the enclosing monitor snapshot (or checkpoint wrapper) reports a
//     lifetime sample total, it equals the model's exactly;
//   * in fleet snapshots, every tenant satisfies all of the above and the
//     tenant totals sum exactly to the aggregate's.
//
// Energy prints the component/stage/outcome joule breakdowns, the windowed
// joules-per-inference figure, the watts EWMA and the energy-budget alarm
// state. `--assert-conservation` checks the exact integer-picojoule
// invariants:
//
//   * the ten stage ledgers sum exactly to the total;
//   * the six component ledgers sum exactly to the total (same atoms,
//     regrouped);
//   * served + shed + expired energy sums exactly to the total;
//   * degraded energy never exceeds served energy (degraded requests were
//     served);
//   * the windowed energy never exceeds the lifetime total and the windowed
//     sample count never exceeds the lifetime served count;
//   * when the wrapper reports a lifetime served-sample total, it equals the
//     energy ledger's exactly;
//   * in fleet snapshots, the per-tenant picojoule totals sum exactly to the
//     aggregate's.
//
// Every count and ledger is an integer far below 2^53, so the double-based
// JSON parser recovers them exactly (Json::as_int), which is what makes
// "exact conservation" checkable from JSON at all.
//
// Exit codes: 0 pass, 1 conservation violation or tenant not found, 2
// usage/parse error (including a document whose fields are out of range).

#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "json_min.hpp"
#include "runtime/serve.hpp"

namespace hdc::tools::inspect {

struct Report {
  std::size_t checks = 0;
  std::vector<std::string> violations;

  void expect(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      violations.push_back(what);
    }
  }
};

/// a + b modulo 2^64. Every ledger sum fits, but a crafted document can
/// overflow one, and signed overflow would be undefined.
inline long long plus(long long a, long long b) {
  return static_cast<long long>(static_cast<unsigned long long>(a) +
                                static_cast<unsigned long long>(b));
}

/// One inspectable section. The front end never branches on which one.
struct Section {
  const char* key;         ///< top-level object holding the section
  const char* enabled_by;  ///< named when a document has no such section
  const char* help;        ///< usage text after the synopsis
  /// The section's JSON wrapper for an HDSV checkpoint at `path`.
  std::string (*from_checkpoint)(const std::string& path);
  /// Prints the section (or, given `tenant`, that fleet tenant's view),
  /// starting with `header`. False when there is no such tenant.
  bool (*print)(const Json& doc, const Json& section, std::optional<long long> tenant,
                const std::string& header);
  /// Adds the section's invariants to `rep`. `lifetime_samples` is the
  /// enclosing document's `lifetime.samples`, when it has one.
  void (*check)(const Json& section, std::optional<long long> lifetime_samples,
                Report& rep);
};

// ---- model quality ---------------------------------------------------------

inline std::size_t array_size(const Json& obj, const std::string& key) {
  const auto it = obj.object.find(key);
  return it != obj.object.end() ? it->second.array.size() : 0;
}

/// `classes`, validated before anything is sized or looped from it: a
/// non-negative integer no larger than the per-class arrays that describe
/// the classes (`class_served`, `confusion` rows).
inline std::size_t class_count(const Json& model) {
  const double classes = model.num_or("classes", 0.0);
  const std::size_t described =
      std::max(array_size(model, "class_served"), array_size(model, "confusion"));
  if (!(classes >= 0.0) || classes != std::floor(classes) ||
      classes > static_cast<double>(described)) {
    char what[160];
    std::snprintf(what, sizeof(what),
                  "model.classes is %.17g; it must be a whole number from 0 to %zu "
                  "(the class_served/confusion length)",
                  classes, described);
    throw std::runtime_error(what);
  }
  return static_cast<std::size_t>(classes);
}

inline std::vector<long long> int_array(const Json& obj, const std::string& key) {
  std::vector<long long> out;
  const auto it = obj.object.find(key);
  if (it != obj.object.end() && it->second.type == Json::Type::kArray) {
    out.reserve(it->second.array.size());
    for (const Json& v : it->second.array) {
      out.push_back(v.as_int());
    }
  }
  return out;
}

/// Cell (r, c) of the `[[...],...]` matrix at `key` (missing cells read 0).
inline long long cell(const Json& obj, const std::string& key, std::size_t r,
                      std::size_t c) {
  const auto it = obj.object.find(key);
  if (it == obj.object.end() || r >= it->second.array.size()) {
    return 0;
  }
  const auto& row = it->second.array[r].array;
  return c < row.size() ? row[c].as_int() : 0;
}

/// Sums of the first `classes` cells of each of the matrix's first
/// `classes` rows; missing rows and cells read 0.
inline std::vector<long long> row_sums(const Json& obj, const std::string& key,
                                       std::size_t classes) {
  std::vector<long long> sums(classes, 0);
  const auto it = obj.object.find(key);
  if (it == obj.object.end()) {
    return sums;
  }
  const auto& rows = it->second.array;
  for (std::size_t r = 0; r < rows.size() && r < classes; ++r) {
    for (std::size_t c = 0; c < rows[r].array.size() && c < classes; ++c) {
      sums[r] = plus(sums[r], rows[r].array[c].as_int());
    }
  }
  return sums;
}

/// Runs the per-model invariants; `label` prefixes violation messages
/// ("aggregate", "tenant 3", ...).
inline void check_model(const Json& model, const std::string& label, Report& rep) {
  const std::size_t classes = class_count(model);
  const long long samples = model.int_or("samples");
  const std::vector<long long> rows = row_sums(model, "confusion", classes);
  const std::vector<long long> served = int_array(model, "class_served");

  rep.expect(served.size() == classes,
             label + ": class_served has " + std::to_string(served.size()) +
                 " entries for " + std::to_string(classes) + " classes");
  long long served_sum = 0;
  for (std::size_t r = 0; r < classes; ++r) {
    const long long expected = r < served.size() ? served[r] : 0;
    rep.expect(rows[r] == expected, label + ": confusion row " + std::to_string(r) +
                                        " sums to " + std::to_string(rows[r]) +
                                        " but class " + std::to_string(r) + " served " +
                                        std::to_string(expected) + " samples");
    served_sum = plus(served_sum, expected);
  }
  rep.expect(served_sum == samples, label + ": class_served sums to " +
                                        std::to_string(served_sum) + " but samples is " +
                                        std::to_string(samples));

  long long bins_sum = 0;
  if (model.has("calibration") && model.at("calibration").has("bins")) {
    for (const Json& bin : model.at("calibration").at("bins").array) {
      bins_sum = plus(bins_sum, bin.int_or("count"));
    }
  }
  rep.expect(bins_sum == samples, label + ": calibration bins sum to " +
                                      std::to_string(bins_sum) + " but samples is " +
                                      std::to_string(samples));

  if (model.has("window")) {
    const Json& window = model.at("window");
    const long long window_samples = window.int_or("samples");
    long long wsum = 0;
    for (const long long row : row_sums(window, "confusion", classes)) {
      wsum = plus(wsum, row);
    }
    rep.expect(wsum == window_samples,
               label + ": windowed confusion sums to " + std::to_string(wsum) +
                   " but window.samples is " + std::to_string(window_samples));
  }
}

inline void print_model(const Json& model, const std::string& heading) {
  const std::size_t classes = class_count(model);
  std::printf("%s: %lld samples, %zu classes, dim %lld\n", heading.c_str(),
              model.int_or("samples"), classes, model.int_or("dim"));

  if (model.has("window")) {
    const Json& window = model.at("window");
    std::printf("\nwindow: %lld samples, accuracy %.4f\n", window.int_or("samples"),
                window.num_or("accuracy", 0.0));
    // Confusion table (rows = true label); wide tasks print the pair list
    // below instead of an unreadable matrix.
    if (classes > 0 && classes <= 16) {
      std::printf("confusion (rows = true label):\n      ");
      for (std::size_t c = 0; c < classes; ++c) {
        std::printf("%7zu", c);
      }
      std::printf("\n");
      for (std::size_t r = 0; r < classes; ++r) {
        std::printf("  %3zu ", r);
        for (std::size_t c = 0; c < classes; ++c) {
          std::printf("%7lld", cell(window, "confusion", r, c));
        }
        std::printf("\n");
      }
    }
    const auto recall = window.object.find("recall");
    const auto precision = window.object.find("precision");
    if (recall != window.object.end() && precision != window.object.end()) {
      std::printf("per-class (windowed):\n  class   recall precision\n");
      for (std::size_t c = 0; c < classes; ++c) {
        const double rec = c < recall->second.array.size()
                               ? recall->second.array[c].number : 0.0;
        const double prec = c < precision->second.array.size()
                                ? precision->second.array[c].number : 0.0;
        std::printf("  %5zu %8.4f %9.4f\n", c, rec, prec);
      }
    }
    if (window.has("top_pairs") && !window.at("top_pairs").array.empty()) {
      std::printf("top confusable pairs (windowed):\n");
      for (const Json& pair : window.at("top_pairs").array) {
        std::printf("  true %lld -> predicted %lld: %lld samples (%.1f%% of class)\n",
                    pair.int_or("actual"), pair.int_or("predicted"),
                    pair.int_or("count"), pair.num_or("fraction", 0.0) * 100.0);
      }
    }
  }

  if (model.has("calibration")) {
    const Json& cal = model.at("calibration");
    std::printf("\ncalibration: ECE %.4f\n", cal.num_or("ece", 0.0));
    if (cal.has("bins")) {
      std::printf("  bin  count  correct  mean_conf  accuracy\n");
      const auto& bins = cal.at("bins").array;
      for (std::size_t i = 0; i < bins.size(); ++i) {
        const long long count = bins[i].int_or("count");
        const long long correct = bins[i].int_or("correct");
        const double acc =
            count == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(count);
        std::printf("  %3zu %6lld %8lld %10.4f %9.4f\n", i, count, correct,
                    bins[i].num_or("mean_confidence", 0.0), acc);
      }
    }
  }

  if (model.has("health")) {
    const Json& health = model.at("health");
    std::printf("\nclass-vector health: norm min %.4g mean %.4g, saturation %.4f, "
                "separation min %.4f mean %.4f, %lld refreshes\n",
                health.num_or("norm_min", 0.0), health.num_or("norm_mean", 0.0),
                health.num_or("saturation_fraction", 0.0),
                health.num_or("separation_min", 0.0),
                health.num_or("separation_mean", 0.0), health.int_or("refreshes"));
  }

  if (model.has("dims")) {
    const Json& dims = model.at("dims");
    std::printf("\ndimension discriminability: %lld windowed samples, mean score %.4f\n",
                dims.int_or("window_samples"), dims.num_or("score_mean", 0.0));
    if (dims.has("bottom") && !dims.at("bottom").array.empty()) {
      std::printf("bottom dimensions (DistHD-style regeneration candidates):\n");
      for (const Json& d : dims.at("bottom").array) {
        std::printf("  dim %5lld  score %.6f\n", d.int_or("dim"), d.num_or("score", 0.0));
      }
    }
  }

  if (model.has("alarms")) {
    std::printf("\nalarms:\n");
    for (const auto& [name, alarm] : model.at("alarms").object) {
      const auto firing = alarm.object.find("firing");
      const std::string detail = alarm.str_or("detail", "");
      std::printf("  %-16s %s fired_total=%lld value=%.4f threshold=%.4f%s%s\n",
                  name.c_str(),
                  firing != alarm.object.end() && firing->second.boolean ? "FIRING"
                                                                         : "clear ",
                  alarm.int_or("fired_total"), alarm.num_or("value", 0.0),
                  alarm.num_or("threshold", 0.0), detail.empty() ? "" : " detail=",
                  detail.c_str());
    }
  }
}

inline bool print_model_section(const Json& doc, const Json& model,
                                std::optional<long long> tenant,
                                const std::string& header) {
  const Json* selected = &model;
  std::string heading =
      doc.str_or("schema", "") == "hdc-modelstats-v1" ? "model (checkpoint)" : "model";
  if (tenant) {
    selected = nullptr;
    if (model.has("tenants")) {
      for (const Json& entry : model.at("tenants").array) {
        if (entry.int_or("tenant", -1) == *tenant && entry.has("model")) {
          selected = &entry.at("model");
        }
      }
    }
    if (selected == nullptr) {
      return false;
    }
    heading = "tenant " + std::to_string(*tenant);
  }
  std::printf("%s\n", header.c_str());
  print_model(*selected, heading);
  return true;
}

inline void check_model_section(const Json& model,
                                std::optional<long long> lifetime_samples,
                                Report& rep) {
  const long long samples = model.int_or("samples");
  check_model(model, model.has("tenants") ? "aggregate" : "model", rep);
  rep.expect(!lifetime_samples || *lifetime_samples == samples,
             "monitor lifetime.samples (" + std::to_string(lifetime_samples.value_or(0)) +
                 ") != model samples (" + std::to_string(samples) + ")");
  if (model.has("tenants")) {
    long long tenant_sum = 0;
    for (const Json& entry : model.at("tenants").array) {
      if (!entry.has("model")) {
        continue;
      }
      const std::string label = "tenant " + std::to_string(entry.int_or("tenant", -1));
      check_model(entry.at("model"), label, rep);
      tenant_sum = plus(tenant_sum, entry.at("model").int_or("samples"));
    }
    rep.expect(tenant_sum == samples, "tenant samples sum to " +
                                          std::to_string(tenant_sum) +
                                          " but the aggregate served " +
                                          std::to_string(samples));
  }
}

inline const Section kModel{
    "model",
    "model-quality monitoring",
    "Inspects the model-quality section of an hdc-monitor-v1\n"
    "snapshot, an hdc-modelstats-v1 document, or an HDSV serve\n"
    "checkpoint: confusion table, per-class recall/precision,\n"
    "confusable pairs, calibration (ECE), class-vector health and\n"
    "the least-discriminative dimensions.\n"
    "\n"
    "  --tenant N              inspect tenant N's model (fleet\n"
    "                          snapshots only)\n"
    "  --assert-conservation   verify the exact counting\n"
    "                          invariants; exit 1 on violation\n",
    runtime::checkpoint_model_stats_json,
    print_model_section,
    check_model_section,
};

// ---- energy ----------------------------------------------------------------

/// Sum of the integer members of the object at `key` (0 when absent).
inline long long member_sum(const Json& obj, const std::string& key) {
  long long sum = 0;
  const auto it = obj.object.find(key);
  if (it != obj.object.end() && it->second.type == Json::Type::kObject) {
    for (const auto& [name, pj] : it->second.object) {
      sum = plus(sum, pj.as_int());
    }
  }
  return sum;
}

inline void check_energy(const Json& energy, std::optional<long long> lifetime_samples,
                         Report& rep) {
  const long long total = energy.int_or("total_pj");

  const long long stage_sum = member_sum(energy, "stages");
  rep.expect(stage_sum == total, "stage ledgers sum to " + std::to_string(stage_sum) +
                                     " pJ but total_pj is " + std::to_string(total));
  const long long component_sum = member_sum(energy, "components");
  rep.expect(component_sum == total,
             "component ledgers sum to " + std::to_string(component_sum) +
                 " pJ but total_pj is " + std::to_string(total));

  const Json none;
  const Json& outcomes = energy.has("outcomes") ? energy.at("outcomes") : none;
  const long long served = outcomes.int_or("served_pj");
  const long long shed = outcomes.int_or("shed_pj");
  const long long expired = outcomes.int_or("expired_pj");
  const long long degraded = outcomes.int_or("degraded_pj");
  const long long outcome_sum = plus(plus(served, shed), expired);
  rep.expect(outcome_sum == total,
             "outcome ledgers sum to " + std::to_string(outcome_sum) +
                 " pJ but total_pj is " + std::to_string(total));
  rep.expect(degraded <= served, "degraded energy (" + std::to_string(degraded) +
                                     " pJ) exceeds served energy (" +
                                     std::to_string(served) + " pJ)");

  const long long samples_served = energy.int_or("samples_served");
  if (energy.has("window")) {
    const Json& window = energy.at("window");
    const long long window_pj = window.int_or("pj");
    const long long window_samples = window.int_or("samples");
    rep.expect(window_pj >= 0 && window_pj <= total,
               "windowed energy (" + std::to_string(window_pj) +
                   " pJ) outside [0, total_pj=" + std::to_string(total) + "]");
    rep.expect(window_samples <= samples_served,
               "windowed samples (" + std::to_string(window_samples) +
                   ") exceed lifetime served samples (" +
                   std::to_string(samples_served) + ")");
  }

  rep.expect(!lifetime_samples || *lifetime_samples == samples_served,
             "wrapper lifetime.samples (" + std::to_string(lifetime_samples.value_or(0)) +
                 ") != energy samples_served (" + std::to_string(samples_served) + ")");

  if (energy.has("tenants") && energy.at("tenants").type == Json::Type::kArray) {
    long long tenant_sum = 0;
    for (const Json& entry : energy.at("tenants").array) {
      tenant_sum = plus(tenant_sum, entry.int_or("total_pj"));
    }
    rep.expect(tenant_sum == total,
               "tenant ledgers sum to " + std::to_string(tenant_sum) +
                   " pJ but the fleet total is " + std::to_string(total));
  }
}

inline void print_energy(const Json& energy) {
  const long long total = energy.int_or("total_pj");
  const double total_j = static_cast<double>(total) * 1e-12;
  std::printf("energy: %.6g J total over %lld requests (%lld served samples)\n",
              total_j, energy.int_or("requests"), energy.int_or("samples_served"));

  if (energy.has("profile")) {
    const Json& p = energy.at("profile");
    std::printf("profile: idle %.3g W, mxu %.3g W, link %.3g W, sram %.3g W, "
                "host %.3g W, backoff %.3g W\n",
                p.num_or("idle_watts", 0.0), p.num_or("mxu_active_watts", 0.0),
                p.num_or("link_watts", 0.0), p.num_or("sram_write_watts", 0.0),
                p.num_or("host_busy_watts", 0.0), p.num_or("backoff_watts", 0.0));
  }

  const auto section = [&](const char* key, const char* heading) {
    if (!energy.has(key) || energy.at(key).type != Json::Type::kObject) {
      return;
    }
    std::printf("%s:\n", heading);
    for (const auto& [name, pj] : energy.at(key).object) {
      const long long v = pj.as_int();
      const double share =
          total > 0 ? static_cast<double>(v) / static_cast<double>(total) : 0.0;
      std::printf("  %-14s %14.6g J %7.2f%%\n", name.c_str(),
                  static_cast<double>(v) * 1e-12, 100.0 * share);
    }
  };
  section("components", "components");
  section("stages", "stages");
  section("outcomes", "outcomes");

  if (energy.has("window")) {
    const Json& window = energy.at("window");
    std::printf("window: %.6g J over %lld served samples (%.6g J/inference)\n",
                static_cast<double>(window.int_or("pj")) * 1e-12,
                window.int_or("samples"), window.num_or("joules_per_inference", 0.0));
  }
  std::printf("watts ewma: %.6g W\n", energy.num_or("watts_ewma", 0.0));

  if (energy.has("alarms")) {
    for (const auto& [name, alarm] : energy.at("alarms").object) {
      const auto firing = alarm.object.find("firing");
      const std::string detail = alarm.str_or("detail", "");
      std::printf("alarm %-14s %s fired_total=%lld value=%.6g threshold=%.6g%s%s\n",
                  name.c_str(),
                  firing != alarm.object.end() && firing->second.boolean ? "FIRING"
                                                                         : "clear ",
                  alarm.int_or("fired_total"), alarm.num_or("value", 0.0),
                  alarm.num_or("threshold", 0.0), detail.empty() ? "" : " detail=",
                  detail.c_str());
    }
  }

  if (energy.has("tenants") && energy.at("tenants").type == Json::Type::kArray) {
    std::printf("tenants:\n");
    for (const Json& entry : energy.at("tenants").array) {
      const long long pj = entry.int_or("total_pj");
      const double share =
          total > 0 ? static_cast<double>(pj) / static_cast<double>(total) : 0.0;
      std::printf("  tenant %-4lld %14.6g J %7.2f%%\n", entry.int_or("tenant"),
                  static_cast<double>(pj) * 1e-12, 100.0 * share);
    }
  }
}

inline bool print_energy_section(const Json& /*doc*/, const Json& energy,
                                 std::optional<long long> tenant,
                                 const std::string& header) {
  std::printf("%s\n", header.c_str());
  if (!tenant) {
    print_energy(energy);
    return true;
  }
  bool found = false;
  if (energy.has("tenants") && energy.at("tenants").type == Json::Type::kArray) {
    for (const Json& entry : energy.at("tenants").array) {
      if (entry.int_or("tenant", -1) == *tenant) {
        std::printf("tenant %lld: %.6g J (%lld pJ)\n", *tenant,
                    static_cast<double>(entry.int_or("total_pj")) * 1e-12,
                    entry.int_or("total_pj"));
        found = true;
      }
    }
  }
  return found;
}

inline const Section kEnergy{
    "energy",
    "energy accounting",
    "Inspects the energy section of an hdc-monitor-v1 snapshot, an\n"
    "hdc-energystats-v1 document, or an HDSV serve checkpoint:\n"
    "component/stage/outcome joule ledgers, windowed joules per\n"
    "inference, the watts EWMA and the energy_budget alarm.\n"
    "\n"
    "  --tenant N              print tenant N's energy total (fleet\n"
    "                          snapshots only)\n"
    "  --assert-conservation   verify the exact picojoule\n"
    "                          invariants; exit 1 on violation\n",
    runtime::checkpoint_energy_json,
    print_energy_section,
    check_energy,
};

// ---- front end -------------------------------------------------------------

inline int usage(std::FILE* out, const Section& section, const char* invocation) {
  std::fprintf(out,
               "usage: %s <snapshot.json|checkpoint> [--tenant N]\n"
               "          [--assert-conservation]\n"
               "\n"
               "%s",
               invocation, section.help);
  return 2;
}

inline int run(const Section& section, const std::vector<std::string>& args,
               const char* invocation) {
  std::string path;
  bool assert_conservation = false;
  std::optional<long long> tenant;  ///< unset = aggregate / single-session view
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--assert-conservation") {
      assert_conservation = true;
    } else if (arg == "--tenant") {
      if (i + 1 >= args.size()) {
        return usage(stderr, section, invocation);
      }
      const std::string& value = args[++i];
      long long id = -1;
      const char* last = value.data() + value.size();
      const auto [end, ec] = std::from_chars(value.data(), last, id);
      if (ec != std::errc() || end != last || id < 0) {
        std::fprintf(stderr, "%s: --tenant expects a non-negative integer\n", invocation);
        return 2;
      }
      tenant = id;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout, section, invocation);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown option '%s'\n", invocation, arg.c_str());
      return usage(stderr, section, invocation);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(stderr, section, invocation);
    }
  }
  if (path.empty()) {
    return usage(stderr, section, invocation);
  }

  std::optional<std::string> text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "%s: cannot read '%s'\n", invocation, path.c_str());
    return 2;
  }
  // Checkpoint conversion errors and out-of-range fields in the document
  // arrive as exceptions; both are parse errors.
  try {
    if (text->size() >= 4 && text->compare(0, 4, "HDSV") == 0) {
      text = section.from_checkpoint(path);
    }
    const std::optional<Json> doc = JsonParser(*text).parse();
    if (!doc || doc->type != Json::Type::kObject) {
      std::fprintf(stderr, "%s: '%s' is not valid JSON\n", invocation, path.c_str());
      return 2;
    }
    if (!doc->has(section.key)) {
      std::fprintf(stderr,
                   "%s: '%s' (schema '%s') carries no %s section — serve with %s "
                   "enabled\n",
                   invocation, path.c_str(), doc->str_or("schema", "").c_str(),
                   section.key, section.enabled_by);
      return 2;
    }
    const Json& body = doc->at(section.key);
    std::optional<long long> lifetime_samples;
    if (doc->has("lifetime") && doc->at("lifetime").has("samples")) {
      lifetime_samples = doc->at("lifetime").int_or("samples");
    }

    char t_s[32];
    std::snprintf(t_s, sizeof(t_s), "%.9g", doc->num_or("t_s", 0.0));
    if (!section.print(*doc, body, tenant, path + "  t_s=" + t_s)) {
      std::fprintf(stderr, "%s: no tenant %lld in '%s'\n", invocation, *tenant,
                   path.c_str());
      return 1;
    }
    if (!assert_conservation) {
      return 0;
    }

    Report rep;
    section.check(body, lifetime_samples, rep);
    if (rep.violations.empty()) {
      std::printf("\nconservation: PASS (%zu checks)\n", rep.checks);
      return 0;
    }
    std::printf("\nconservation: FAIL (%zu of %zu checks)\n", rep.violations.size(),
                rep.checks);
    for (const std::string& violation : rep.violations) {
      std::printf("  VIOLATION: %s\n", violation.c_str());
    }
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", invocation, e.what());
    return 2;
  }
}

}  // namespace hdc::tools::inspect

// Trace-query library behind the `hdc trace analyze` subcommand. Reads
// either of the two trace formats the simulator emits:
//
//   * Chrome trace-event JSON (`--trace` output, `{"traceEvents": [...]}`):
//     request chains are reassembled from the `"req"` arg stamped on every
//     span recorded inside a `begin_request` scope.
//   * Exemplar JSONL (`hdc-request-trace-v1`, one object per line — the
//     serve loop's `exemplars.jsonl`): each line is a complete request chain
//     with its latency-attribution record.
//
// Reports per-stage aggregates, the attribution breakdown (critical-path
// fractions of end-to-end latency), and the top-K slowest requests with
// ASCII waterfalls; `--req ID` dumps one request's full span chain and
// `--assert-attribution` verifies the exactness invariant (per-request stage
// durations sum bit-exactly to measured latency) for CI smoke checks.

#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "json_min.hpp"
#include "obs/energy.hpp"

namespace hdc::tools::traceq {

struct SpanRec {
  std::string name;  ///< stage name (JSONL) or event name (Chrome)
  double start_s = 0.0;
  double dur_s = 0.0;
  long long sample = 0;
  long long attempt = 0;
};

struct RequestRec {
  long long id = -1;
  std::string outcome;  ///< served | shed | expired ("" when unknown: Chrome)
  std::string reason;   ///< exemplar retention reason ("" for Chrome traces)
  long long tier = -1;
  unsigned long long samples = 0;
  bool faulty = false;
  double arrival_s = 0.0;
  double end_s = 0.0;
  double latency_s = 0.0;
  /// Stage name -> attributed seconds. Exact (sums to latency_s) for JSONL;
  /// reconstructed from span names for Chrome traces (informational).
  std::map<std::string, double> attribution;
  std::vector<SpanRec> spans;
};

struct TraceFile {
  std::string format;  ///< "chrome" | "jsonl"
  std::vector<RequestRec> requests;
};

/// The `obs::Stage` an attribution entry names, if any (Chrome span labels
/// name none).
inline std::optional<obs::Stage> stage_named(const std::string& name) {
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    const auto stage = static_cast<obs::Stage>(i);
    if (name == obs::stage_name(stage)) {
      return stage;
    }
  }
  return std::nullopt;
}

/// Watts drawn in a named attribution stage at the *default*
/// `obs::PowerProfile` (unknown names price at idle watts). The derived
/// joules columns are informational estimates; the exact integer-picojoule
/// contract lives in the serving path's `EnergyAccountant`.
inline double stage_watts_by_name(const std::string& name) {
  const obs::PowerProfile profile;
  const std::optional<obs::Stage> stage = stage_named(name);
  return stage ? profile.stage_watts(*stage) : profile.idle_watts;
}

/// Attribution entries in `obs::Stage` order, then any extras (Chrome span
/// names) in map order. Exactness (`stage sums == latency`) holds when the
/// sum is replayed in this order: floating-point addition is
/// order-sensitive, and the writer computes the residual `other` stage
/// against exactly this prefix order.
inline std::vector<std::pair<std::string, double>> ordered_attribution(
    const std::map<std::string, double>& attribution) {
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    const auto it = attribution.find(obs::stage_name(static_cast<obs::Stage>(i)));
    if (it != attribution.end()) {
      out.emplace_back(it->first, it->second);
    }
  }
  for (const auto& [stage, seconds] : attribution) {
    if (!stage_named(stage)) {
      out.emplace_back(stage, seconds);
    }
  }
  return out;
}

/// A request's total attributed energy at the default power profile.
inline double request_energy_joules(const RequestRec& rec) {
  double joules = 0.0;
  for (const auto& [stage, seconds] : rec.attribution) {
    joules += stage_watts_by_name(stage) * seconds;
  }
  return joules;
}

/// Sums a request's attribution in `ordered_attribution` order.
inline double attribution_sum(const RequestRec& rec) {
  double sum = 0.0;
  for (const auto& [stage, seconds] : ordered_attribution(rec.attribution)) {
    sum += seconds;
  }
  return sum;
}

// ---- loading ---------------------------------------------------------------

inline std::optional<RequestRec> parse_request_line(const Json& doc) {
  if (doc.type != Json::Type::kObject ||
      doc.str_or("schema", "") != "hdc-request-trace-v1") {
    return std::nullopt;
  }
  RequestRec rec;
  rec.id = doc.int_or("request_id", -1);
  rec.outcome = doc.str_or("outcome", "");
  rec.reason = doc.str_or("reason", "");
  rec.tier = doc.int_or("tier", -1);
  rec.samples = static_cast<unsigned long long>(doc.int_or("samples"));
  const auto faulty = doc.object.find("faulty");
  rec.faulty = faulty != doc.object.end() && faulty->second.boolean;
  rec.arrival_s = doc.num_or("arrival_s", 0.0);
  rec.end_s = doc.num_or("end_s", 0.0);
  rec.latency_s = doc.num_or("latency_s", 0.0);
  if (doc.has("attribution") && doc.at("attribution").type == Json::Type::kObject) {
    for (const auto& [stage, value] : doc.at("attribution").object) {
      if (value.type == Json::Type::kNumber) {
        rec.attribution.emplace(stage, value.number);
      }
    }
  }
  if (doc.has("spans") && doc.at("spans").type == Json::Type::kArray) {
    for (const Json& span : doc.at("spans").array) {
      if (span.type != Json::Type::kObject) {
        continue;
      }
      SpanRec s;
      s.name = span.str_or("stage", "?");
      s.start_s = span.num_or("start_s", 0.0);
      s.dur_s = span.num_or("dur_s", 0.0);
      s.sample = span.int_or("sample");
      s.attempt = span.int_or("attempt");
      rec.spans.push_back(std::move(s));
    }
  }
  return rec;
}

inline std::optional<TraceFile> load_chrome(const Json& doc) {
  if (!doc.has("traceEvents") || doc.at("traceEvents").type != Json::Type::kArray) {
    return std::nullopt;
  }
  std::map<long long, RequestRec> by_id;
  for (const Json& event : doc.at("traceEvents").array) {
    if (event.type != Json::Type::kObject) {
      continue;
    }
    const std::string ph = event.str_or("ph", "");
    if (ph != "X" && ph != "i") {
      continue;  // metadata and counters carry no request linkage
    }
    if (!event.has("args") || event.at("args").type != Json::Type::kObject) {
      continue;
    }
    const Json& args = event.at("args");
    if (!args.has("req") || args.at("req").type != Json::Type::kNumber) {
      continue;
    }
    const long long id = args.at("req").as_int(-1);
    RequestRec& rec = by_id[id];
    rec.id = id;
    SpanRec s;
    s.name = event.str_or("name", "?");
    s.start_s = event.num_or("ts", 0.0) * 1e-6;  // Chrome ts/dur are microseconds
    s.dur_s = event.num_or("dur", 0.0) * 1e-6;
    rec.spans.push_back(std::move(s));
  }
  TraceFile file;
  file.format = "chrome";
  for (auto& [id, rec] : by_id) {
    double begin = 0.0;
    double end = 0.0;
    bool first = true;
    for (const SpanRec& s : rec.spans) {
      begin = first ? s.start_s : std::min(begin, s.start_s);
      end = first ? s.start_s + s.dur_s : std::max(end, s.start_s + s.dur_s);
      first = false;
      rec.attribution[s.name] += s.dur_s;
    }
    rec.arrival_s = begin;
    rec.end_s = end;
    rec.latency_s = end - begin;
    file.requests.push_back(std::move(rec));
  }
  return file;
}

/// Loads a trace file, sniffing the format. Returns nullopt (with a message
/// on stderr) when the file is unreadable or neither format parses.
inline std::optional<TraceFile> load_trace(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return std::nullopt;
  }

  // Whole-file JSON object with "traceEvents" => Chrome trace.
  if (std::optional<Json> doc = JsonParser(*text).parse();
      doc && doc->type == Json::Type::kObject && doc->has("traceEvents")) {
    if (std::optional<TraceFile> file = load_chrome(*doc)) {
      return file;
    }
  }

  // Otherwise: hdc-request-trace-v1 JSONL, one object per line.
  TraceFile file;
  file.format = "jsonl";
  std::istringstream lines(*text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    std::optional<Json> doc = JsonParser(line).parse();
    if (!doc) {
      std::fprintf(stderr, "error: %s:%zu is not valid JSON\n", path.c_str(), lineno);
      return std::nullopt;
    }
    std::optional<RequestRec> rec = parse_request_line(*doc);
    if (!rec) {
      std::fprintf(stderr, "error: %s:%zu is not an hdc-request-trace-v1 record\n",
                   path.c_str(), lineno);
      return std::nullopt;
    }
    file.requests.push_back(std::move(*rec));
  }
  if (file.requests.empty()) {
    std::fprintf(stderr, "error: %s contains no request records\n", path.c_str());
    return std::nullopt;
  }
  return file;
}

// ---- analysis --------------------------------------------------------------

struct StageAgg {
  std::size_t requests = 0;
  double total_s = 0.0;
  double max_s = 0.0;
};

inline std::map<std::string, StageAgg> aggregate_stages(const TraceFile& file) {
  std::map<std::string, StageAgg> agg;
  for (const RequestRec& rec : file.requests) {
    for (const auto& [stage, seconds] : rec.attribution) {
      if (seconds == 0.0) {
        continue;
      }
      StageAgg& a = agg[stage];
      ++a.requests;
      a.total_s += seconds;
      a.max_s = std::max(a.max_s, seconds);
    }
  }
  return agg;
}

/// The first measured stage of `rec` below zero, or null. The `other`
/// residual is exempt: it absorbs the rounding of the stage sum, so it can
/// sit a few ulps below zero.
inline const std::pair<const std::string, double>* negative_stage(const RequestRec& rec) {
  for (const auto& entry : rec.attribution) {
    if (entry.second < 0.0 && entry.first != obs::stage_name(obs::Stage::kOther)) {
      return &entry;
    }
  }
  return nullptr;
}

/// Exactness violations: requests whose attribution stages do not sum
/// bit-exactly to the recorded end-to-end latency, or that carry a negative
/// stage (a sum can be exact with one stage running backwards). The
/// serializer emits round-trip (%.17g) doubles, so in simulated time the sum
/// is exact and any violation is a real attribution bug, not float noise.
/// Chrome traces are skipped (span chains there are not a partition of the
/// latency).
inline std::vector<const RequestRec*> attribution_violations(const TraceFile& file) {
  std::vector<const RequestRec*> bad;
  if (file.format != "jsonl") {
    return bad;
  }
  for (const RequestRec& rec : file.requests) {
    if (attribution_sum(rec) != rec.latency_s || negative_stage(rec) != nullptr) {
      bad.push_back(&rec);
    }
  }
  return bad;
}

inline std::vector<const RequestRec*> slowest(const TraceFile& file, std::size_t k) {
  std::vector<const RequestRec*> order;
  order.reserve(file.requests.size());
  for (const RequestRec& rec : file.requests) {
    order.push_back(&rec);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const RequestRec* a, const RequestRec* b) {
                     return a->latency_s > b->latency_s;
                   });
  if (order.size() > k) {
    order.resize(k);
  }
  return order;
}

inline const RequestRec* find_request(const TraceFile& file, long long id) {
  for (const RequestRec& rec : file.requests) {
    if (rec.id == id) {
      return &rec;
    }
  }
  return nullptr;
}

// ---- rendering -------------------------------------------------------------

inline std::string format_us(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

inline void print_waterfall(const RequestRec& rec, std::FILE* out) {
  // One bar per attribution stage, widths proportional to the stage's share
  // of the request latency; stages under half a cell still show one cell.
  constexpr int kWidth = 40;
  std::fprintf(out,
               "request %lld: outcome=%s tier=%lld samples=%llu faulty=%d "
               "latency=%sus energy=%.4gJ%s%s\n",
               rec.id, rec.outcome.empty() ? "?" : rec.outcome.c_str(), rec.tier,
               rec.samples, rec.faulty ? 1 : 0, format_us(rec.latency_s).c_str(),
               request_energy_joules(rec), rec.reason.empty() ? "" : " reason=",
               rec.reason.c_str());
  for (const auto& [stage, seconds] : ordered_attribution(rec.attribution)) {
    if (seconds == 0.0) {
      continue;
    }
    const double fraction = rec.latency_s > 0.0 ? seconds / rec.latency_s : 0.0;
    int cells = static_cast<int>(fraction * kWidth + 0.5);
    cells = std::clamp(cells, 1, kWidth);
    std::fprintf(out, "  %-12s %6.2f%% |%-*s| %sus\n", stage.c_str(),
                 100.0 * fraction, kWidth,
                 std::string(static_cast<std::size_t>(cells), '#').c_str(),
                 format_us(seconds).c_str());
  }
}

inline void print_chain(const RequestRec& rec, std::FILE* out) {
  print_waterfall(rec, out);
  std::fprintf(out, "  span chain (%zu spans):\n", rec.spans.size());
  for (const SpanRec& s : rec.spans) {
    std::fprintf(out, "    %-14s start=%sus dur=%sus sample=%lld attempt=%lld\n",
                 s.name.c_str(), format_us(s.start_s).c_str(),
                 format_us(s.dur_s).c_str(), s.sample, s.attempt);
  }
}

// ---- entry point -----------------------------------------------------------

inline void usage(std::FILE* out, const char* invocation) {
  std::fprintf(out,
               "usage: %s <trace.json|exemplars.jsonl> [options]\n"
               "  --top N                waterfalls for the N slowest requests "
               "(default 5)\n"
               "  --req ID               dump one request's full span chain\n"
               "  --assert-attribution   exit 1 unless every request's stages sum\n"
               "                         bit-exactly to its latency (JSONL only)\n",
               invocation);
}

inline int run(const std::vector<std::string>& args, const char* invocation) {
  std::string path;
  std::size_t top = 5;
  std::optional<long long> req;
  bool assert_attribution = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout, invocation);
      return 0;
    }
    if (arg == "--top" && i + 1 < args.size()) {
      char* end = nullptr;
      const long v = std::strtol(args[++i].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || v < 0) {
        std::fprintf(stderr, "error: --top expects a non-negative integer\n");
        return 2;
      }
      top = static_cast<std::size_t>(v);
    } else if (arg == "--req" && i + 1 < args.size()) {
      char* end = nullptr;
      const long long v = std::strtoll(args[++i].c_str(), &end, 10);
      if (end == nullptr || *end != '\0') {
        std::fprintf(stderr, "error: --req expects an integer request id\n");
        return 2;
      }
      req = v;
    } else if (arg == "--assert-attribution") {
      assert_attribution = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      usage(stderr, invocation);
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "error: more than one input file\n");
      return 2;
    }
  }
  if (path.empty()) {
    usage(stderr, invocation);
    return 2;
  }

  const std::optional<TraceFile> file = load_trace(path);
  if (!file) {
    return 2;
  }

  if (req.has_value()) {
    const RequestRec* rec = find_request(*file, *req);
    if (rec == nullptr) {
      std::fprintf(stderr, "error: request %lld not found in %s\n", *req, path.c_str());
      return 1;
    }
    print_chain(*rec, stdout);
    return 0;
  }

  std::printf("%s: %zu requests (%s format)\n", path.c_str(), file->requests.size(),
              file->format.c_str());

  double latency_sum = 0.0;
  for (const RequestRec& rec : file->requests) {
    latency_sum += rec.latency_s;
  }

  // Per-stage aggregates + critical-path breakdown (share of summed latency).
  const std::map<std::string, StageAgg> agg = aggregate_stages(*file);
  std::map<std::string, double> agg_keys;
  for (const auto& [stage, a] : agg) {
    agg_keys.emplace(stage, a.total_s);
  }
  std::printf("\n%-22s %9s %14s %14s %14s %8s %12s\n", "stage", "requests", "total_us",
              "mean_us", "max_us", "share", "energy_J");
  double energy_sum = 0.0;
  for (const auto& [stage, total] : ordered_attribution(agg_keys)) {
    (void)total;
    const StageAgg& a = agg.at(stage);
    const double mean =
        a.requests > 0 ? a.total_s / static_cast<double>(a.requests) : 0.0;
    const double share = latency_sum > 0.0 ? a.total_s / latency_sum : 0.0;
    const double joules = stage_watts_by_name(stage) * a.total_s;
    energy_sum += joules;
    std::printf("%-22s %9zu %14s %14s %14s %7.2f%% %12.4g\n", stage.c_str(), a.requests,
                format_us(a.total_s).c_str(), format_us(mean).c_str(),
                format_us(a.max_s).c_str(), 100.0 * share, joules);
  }
  std::printf("attributed energy at the default power profile: %.6g J\n", energy_sum);

  if (top > 0) {
    std::printf("\ntop %zu slowest requests:\n", top);
    for (const RequestRec* rec : slowest(*file, top)) {
      print_waterfall(*rec, stdout);
    }
  }

  const std::vector<const RequestRec*> bad = attribution_violations(*file);
  if (file->format == "jsonl") {
    std::printf("\nattribution exactness: %zu/%zu requests sum bit-exactly to "
                "their latency with no negative stage\n",
                file->requests.size() - bad.size(), file->requests.size());
    for (const RequestRec* rec : bad) {
      if (const auto* stage = negative_stage(*rec)) {
        std::printf("  VIOLATION request %lld: stage %s is negative (%.17g)\n", rec->id,
                    stage->first.c_str(), stage->second);
      } else {
        std::printf("  VIOLATION request %lld: stages sum %.17g != latency %.17g\n",
                    rec->id, attribution_sum(*rec), rec->latency_s);
      }
    }
    if (assert_attribution && !bad.empty()) {
      std::printf("FAIL: attribution exactness violated\n");
      return 1;
    }
  } else if (assert_attribution) {
    std::printf("\nnote: --assert-attribution applies to exemplar JSONL only; "
                "Chrome span chains are not a partition of latency (skipped)\n");
  }
  return 0;
}

}  // namespace hdc::tools::traceq

#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace hdc::obs::detail {

/// Appends `text` to `out` as a double-quoted JSON string with the mandatory
/// escapes (quote, backslash, control characters).
inline void append_json_string(std::string& out, std::string_view text) {
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// Appends a finite double as a JSON number (fixed notation keeps full
/// microsecond-level precision for timestamps without exponent parsing
/// surprises in downstream tools).
inline void append_json_number(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out += buf;
}

/// Appends a double with round-trip precision (%.17g). Used where downstream
/// tools re-verify bit-exact arithmetic (request-trace attribution records);
/// the shorter %.9g form stays the default for human-facing telemetry.
inline void append_json_number_exact(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

/// Appends `"key":value` (a %.9g number), preceded by a comma when asked.
inline void append_field(std::string& out, std::string_view key, double value,
                         bool leading_comma) {
  if (leading_comma) {
    out.push_back(',');
  }
  append_json_string(out, key);
  out.push_back(':');
  append_json_number(out, value);
}

/// Appends one hdc-bench-v1 metric entry, `"name":{"value":v,"unit":...,
/// "kind":...,"better":...}` — the shape `hdc_perfdiff` gates. The one
/// writer of that format: bench JSON and every snapshot's flat `metrics`
/// map go through it.
inline void append_gate_metric(std::string& out, std::string_view name, double value,
                               std::string_view unit, std::string_view kind,
                               std::string_view better, bool leading_comma = true) {
  if (leading_comma) {
    out.push_back(',');
  }
  append_json_string(out, name);
  out += ":{\"value\":";
  append_json_number(out, value);
  out += ",\"unit\":";
  append_json_string(out, unit);
  out += ",\"kind\":";
  append_json_string(out, kind);
  out += ",\"better\":";
  append_json_string(out, better);
  out.push_back('}');
}

/// Appends a Prometheus text-format family header (`# HELP` then `# TYPE`).
inline void prom_header(std::string& out, std::string_view family, std::string_view type,
                        std::string_view help) {
  out += "# HELP ";
  out += family;
  out.push_back(' ');
  out += help;
  out += "\n# TYPE ";
  out += family;
  out.push_back(' ');
  out += type;
  out.push_back('\n');
}

/// Appends one Prometheus sample line, `family{labels} value` (no braces
/// when `labels` is empty), the value as %.9g.
inline void prom_line(std::string& out, std::string_view family, std::string_view labels,
                      double value) {
  out += family;
  if (!labels.empty()) {
    out.push_back('{');
    out += labels;
    out.push_back('}');
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), " %.9g\n", value);
  out += buf;
}

}  // namespace hdc::obs::detail

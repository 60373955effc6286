// Minimal recursive-descent JSON parser shared by the offline tools
// (hdc_perfdiff and the `hdc` inspection subcommands). Parses objects/arrays/
// strings/numbers/bools/null into a plain value tree; no external
// dependencies, no exceptions escape (failures, including nesting deeper
// than JsonParser::kMaxDepth, return nullopt), plus `read_file`, the tools'
// one way to load an input. This deliberately lives in tools/ — the
// simulator itself only *writes* JSON (src/obs/json.hpp) and must not grow a
// parser dependency.

#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace hdc::tools {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  bool has(const std::string& key) const { return object.contains(key); }
  const Json& at(const std::string& key) const { return object.at(key); }
  /// Convenience lookups with defaults, for tolerant readers.
  double num_or(const std::string& key, double fallback) const {
    const auto it = object.find(key);
    return it != object.end() && it->second.type == Type::kNumber ? it->second.number
                                                                  : fallback;
  }
  std::string str_or(const std::string& key, const std::string& fallback) const {
    const auto it = object.find(key);
    return it != object.end() && it->second.type == Type::kString ? it->second.string
                                                                  : fallback;
  }
  /// This number truncated to an integer, or `fallback` for a non-number or
  /// |number| >= 2^53. Every count and picojoule ledger the simulator writes
  /// is far below 2^53, where doubles hold integers exactly; outside that
  /// range a cast would be undefined.
  long long as_int(long long fallback = 0) const {
    return type == Type::kNumber && std::fabs(number) < 0x1p53
               ? static_cast<long long>(number)
               : fallback;
  }
  long long int_or(const std::string& key, long long fallback = 0) const {
    const auto it = object.find(key);
    return it != object.end() ? it->second.as_int(fallback) : fallback;
  }
};

/// The whole file at `path`, or nullopt when it cannot be opened.
inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class JsonParser {
 public:
  /// Deepest array/object nesting accepted. The simulator's documents nest
  /// fewer than 10 levels; the cap keeps hostile input off the stack.
  static constexpr int kMaxDepth = 64;

  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<Json> parse() {
    skip_ws();
    std::optional<Json> value = parse_value();
    if (!value) {
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      return std::nullopt;  // trailing garbage
    }
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  std::optional<Json> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        return std::nullopt;
      }
      ++depth_;
      std::optional<Json> value = c == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    if (c == '"') {
      return parse_string();
    }
    Json value;
    if (consume_literal("null")) {
      return value;
    }
    if (consume_literal("true")) {
      value.type = Json::Type::kBool;
      value.boolean = true;
      return value;
    }
    if (consume_literal("false")) {
      value.type = Json::Type::kBool;
      return value;
    }
    return parse_number();
  }

  std::optional<Json> parse_object() {
    if (!consume('{')) {
      return std::nullopt;
    }
    Json value;
    value.type = Json::Type::kObject;
    skip_ws();
    if (consume('}')) {
      return value;
    }
    for (;;) {
      skip_ws();
      std::optional<Json> key = parse_string();
      if (!key) {
        return std::nullopt;
      }
      skip_ws();
      if (!consume(':')) {
        return std::nullopt;
      }
      std::optional<Json> member = parse_value();
      if (!member) {
        return std::nullopt;
      }
      value.object.emplace(key->string, std::move(*member));
      skip_ws();
      if (consume('}')) {
        return value;
      }
      if (!consume(',')) {
        return std::nullopt;
      }
    }
  }

  std::optional<Json> parse_array() {
    if (!consume('[')) {
      return std::nullopt;
    }
    Json value;
    value.type = Json::Type::kArray;
    skip_ws();
    if (consume(']')) {
      return value;
    }
    for (;;) {
      std::optional<Json> element = parse_value();
      if (!element) {
        return std::nullopt;
      }
      value.array.push_back(std::move(*element));
      skip_ws();
      if (consume(']')) {
        return value;
      }
      if (!consume(',')) {
        return std::nullopt;
      }
    }
  }

  static int hex_digit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  std::optional<Json> parse_string() {
    if (!consume('"')) {
      return std::nullopt;
    }
    Json value;
    value.type = Json::Type::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return value;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return std::nullopt;
        }
        const char escaped = text_[pos_++];
        switch (escaped) {
          case '"': value.string.push_back('"'); break;
          case '\\': value.string.push_back('\\'); break;
          case '/': value.string.push_back('/'); break;
          case 'b': value.string.push_back('\b'); break;
          case 'f': value.string.push_back('\f'); break;
          case 'n': value.string.push_back('\n'); break;
          case 'r': value.string.push_back('\r'); break;
          case 't': value.string.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return std::nullopt;
            }
            std::uint32_t code = 0;
            for (int k = 0; k < 4; ++k) {
              const int digit = hex_digit(text_[pos_++]);
              if (digit < 0) {
                return std::nullopt;
              }
              code = (code << 4) | static_cast<std::uint32_t>(digit);
            }
            // BMP-only decode to UTF-8; the writer (src/obs/json.hpp) only
            // emits \u00XX for control characters, so this round-trips every
            // string the simulator produces. Surrogates degrade to '?'.
            if (code < 0x80) {
              value.string.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              value.string.push_back(static_cast<char>(0xC0 | (code >> 6)));
              value.string.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else if (code >= 0xD800 && code <= 0xDFFF) {
              value.string.push_back('?');
            } else {
              value.string.push_back(static_cast<char>(0xE0 | (code >> 12)));
              value.string.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              value.string.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: return std::nullopt;
        }
      } else {
        value.string.push_back(c);
      }
    }
    return std::nullopt;
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return std::nullopt;
    }
    Json value;
    value.type = Json::Type::kNumber;
    try {
      value.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    } catch (...) {
      return std::nullopt;
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace hdc::tools

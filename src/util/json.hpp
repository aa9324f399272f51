// The one JSON codec: a parsed value, a strict parser and a string
// escaper. Every JSON document specure writes (reports, serve frames and
// event lines, Chrome traces, sweep and triage tables) escapes its
// strings with escape_json, and every one it reads back goes through
// parse_json.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace specure::util {

/// Deepest array/object nesting parse_json accepts. The deepest document
/// specure writes is 4 levels (report → findings → finding → window);
/// the bound keeps a hostile document from recursing off the stack.
constexpr int kMaxJsonDepth = 64;

/// Every parse failure. what() reads "line N: reason".
class JsonError : public std::runtime_error {
 public:
  JsonError(int line, const std::string& reason);
  int line() const { return line_; }
  const std::string& reason() const { return reason_; }

 private:
  int line_;
  std::string reason_;
};

/// A parsed JSON value. Objects remember the source line of every key so
/// field errors can point at the offending line.
struct Json {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kObject,
    kArray
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  /// kString: the decoded string. kNumber: the token as written, so an
  /// integer above 2^53 survives exactly.
  std::string text;
  // kObject, in source order; parallel arrays because a nested struct
  // holding a Json by value would be an incomplete type, while
  // std::vector of an incomplete element type is fine in C++17.
  std::vector<std::string> keys;
  std::vector<int> key_lines;   ///< source line of each key
  std::vector<Json> values;     ///< parallel to keys
  std::vector<Json> items;      ///< kArray

  const Json* find(std::string_view key) const {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == key) return &values[i];
    }
    return nullptr;
  }

  /// A number written as plain decimal digits that fits in 64 bits;
  /// nullopt for anything else (a fraction, an exponent, a sign).
  std::optional<std::uint64_t> as_u64() const;
};

/// Parse exactly one JSON document (RFC 8259 grammar; strings may not
/// hold a raw newline, `\u` escapes decode to UTF-8). Throws JsonError on
/// malformed input, trailing characters, or nesting deeper than
/// kMaxJsonDepth.
Json parse_json(std::string_view text);

/// The body of a JSON string literal for `text`: quotes, backslashes and
/// control characters escaped, every other byte as is. The escapes are
/// also valid in TOML basic strings.
std::string escape_json(std::string_view text);

}  // namespace specure::util

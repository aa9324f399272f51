#include "util/json.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace specure::util {

JsonError::JsonError(int line, const std::string& reason)
    : std::runtime_error("line " + std::to_string(line) + ": " + reason),
      line_(line),
      reason_(reason) {}

std::optional<std::uint64_t> Json::as_u64() const {
  if (kind != Kind::kNumber) return std::nullopt;
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Value of one hex digit, or -1.
int hex_value(char c) {
  if (is_digit(c)) return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// RFC 8259 number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
bool is_json_number(std::string_view s) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < s.size() && is_digit(s[i])) ++i;
    return i > from;
  };
  if (i < s.size() && s[i] == '-') ++i;
  if (i < s.size() && s[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == s.size();
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json parse() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after the JSON value");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw JsonError(line_, what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  /// The depth inside a new array or object at `depth`; refuses to
  /// recurse past the bound.
  int nested(int depth) {
    if (depth == kMaxJsonDepth) {
      fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
           " levels");
    }
    return depth + 1;
  }

  Json parse_value(int depth) {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(nested(depth));
      case '[':
        return parse_array(nested(depth));
      case '"': {
        Json v;
        v.kind = Json::Kind::kString;
        v.text = parse_string();
        return v;
      }
      case 't':
        if (consume_word("true")) {
          Json v;
          v.kind = Json::Kind::kBool;
          v.boolean = true;
          return v;
        }
        fail("invalid literal (expected true)");
      case 'f':
        if (consume_word("false")) {
          Json v;
          v.kind = Json::Kind::kBool;
          v.boolean = false;
          return v;
        }
        fail("invalid literal (expected false)");
      case 'n':
        if (consume_word("null")) return Json{};
        fail("invalid literal (expected null)");
      default:
        return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json v;
    v.kind = Json::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      const int key_line = line_;
      if (peek() != '"') fail("expected a quoted object key");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.keys.push_back(std::move(key));
      v.key_lines.push_back(key_line);
      v.values.push_back(parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json v;
    v.kind = Json::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\n') fail("raw newline inside a string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const int digit = hex_value(text_[pos_++]);
            if (digit < 0) fail("invalid hex digit in \\u escape");
            code = code << 4 | static_cast<unsigned>(digit);
          }
          // escape_json only ever escapes control characters; encode the
          // code point as UTF-8 (BMP only — no surrogate pairs needed).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          fail(std::string("unknown escape '\\") + e + "'");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (is_digit(text_[pos_]) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty()) fail("expected a JSON value");
    if (!is_json_number(token)) {
      fail("malformed number '" + std::string(token) + "'");
    }
    Json v;
    v.kind = Json::Kind::kNumber;
    v.text = token;
    v.number = std::strtod(v.text.c_str(), nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

Json parse_json(std::string_view text) { return JsonParser(text).parse(); }

std::string escape_json(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace specure::util

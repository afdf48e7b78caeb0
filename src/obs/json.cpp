#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace mhs::obs {

double JsonValue::as_number() const {
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  return std::get<double>(value_);
}

std::optional<std::uint64_t> JsonValue::as_u64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) return *u;
  return std::nullopt;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : as_object()) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Recursive-descent parser. Grammar is strict RFC-8259: no NaN/Infinity,
/// no comments, no trailing commas, no leading zeros, nesting capped at
/// kJsonMaxDepth levels (stack-overflow guard for untrusted input).
class JsonParser {
 public:
  JsonParser(std::string_view text, JsonError* error)
      : text_(text), error_(error) {}

  std::optional<JsonValue> parse() {
    skip_ws();
    std::optional<JsonValue> result = value();
    if (!result) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing garbage after document");
    return result;
  }

 private:
  /// Records the first (deepest) failure position and reason, then
  /// returns nullopt. Failures propagate outward through every caller,
  /// so only the first record — the actual offending character — wins.
  std::nullopt_t fail(std::string message) {
    if (error_ != nullptr && !recorded_) {
      recorded_ = true;
      error_->offset = pos_;
      error_->line = 1;
      error_->column = 1;
      for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
        if (text_[i] == '\n') {
          ++error_->line;
          error_->column = 1;
        } else {
          ++error_->column;
        }
      }
      error_->message = std::move(message);
    }
    return std::nullopt;
  }

  std::optional<JsonValue> value() {
    if (depth_ > kJsonMaxDepth) {
      return fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
                  " levels");
    }
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      std::optional<std::string> s = string();
      if (!s) return std::nullopt;
      return JsonValue(std::move(*s));
    }
    if (c == 't') {
      if (!literal("true")) return fail("expected 'true'");
      return JsonValue(true);
    }
    if (c == 'f') {
      if (!literal("false")) return fail("expected 'false'");
      return JsonValue(false);
    }
    if (c == 'n') {
      if (!literal("null")) return fail("expected 'null'");
      return JsonValue();
    }
    return number();
  }

  std::optional<JsonValue> object() {
    ++depth_;
    ++pos_;  // '{'
    JsonValue::Object members;
    skip_ws();
    if (peek() == '}') { ++pos_; --depth_; return JsonValue(std::move(members)); }
    while (true) {
      skip_ws();
      if (peek() != '"') return fail("expected '\"' to start an object key");
      std::optional<std::string> key = string();
      if (!key) return std::nullopt;
      skip_ws();
      if (peek() != ':') return fail("expected ':' after object key");
      ++pos_;
      skip_ws();
      std::optional<JsonValue> member = value();
      if (!member) return std::nullopt;
      members.emplace_back(std::move(*key), std::move(*member));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; --depth_; return JsonValue(std::move(members)); }
      return fail("expected ',' or '}' in object");
    }
  }

  std::optional<JsonValue> array() {
    ++depth_;
    ++pos_;  // '['
    JsonValue::Array items;
    skip_ws();
    if (peek() == ']') { ++pos_; --depth_; return JsonValue(std::move(items)); }
    while (true) {
      skip_ws();
      std::optional<JsonValue> item = value();
      if (!item) return std::nullopt;
      items.push_back(std::move(*item));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; --depth_; return JsonValue(std::move(items)); }
      return fail("expected ',' or ']' in array");
    }
  }

  std::optional<std::string> string() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return out; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return fail("unterminated escape sequence");
        const char esc = text_[pos_];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) {
              return fail("truncated \\u escape");
            }
            unsigned code = 0;
            for (int k = 1; k <= 4; ++k) {
              const char h = text_[pos_ + k];
              if (!std::isxdigit(static_cast<unsigned char>(h))) {
                return fail("non-hex digit in \\u escape");
              }
              code = code * 16 +
                     static_cast<unsigned>(
                         std::isdigit(static_cast<unsigned char>(h))
                             ? h - '0'
                             : std::tolower(h) - 'a' + 10);
            }
            pos_ += 4;
            // UTF-8 encode the code point (surrogates pass through as
            // three-byte sequences; pairing is not reconstructed).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return fail("invalid escape character");  // \q and friends
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character inside a string");
      } else {
        out += c;
      }
      ++pos_;
    }
    return fail("unterminated string");
  }

  std::optional<JsonValue> number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      return fail("expected a value");
    }
    if (peek() == '0') {
      ++pos_;  // leading zero: no further integer digits allowed
    } else {
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    bool integer = true;
    if (peek() == '.') {
      integer = false;
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("expected a digit after the decimal point");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      integer = false;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("expected a digit in the exponent");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integer) {  // exact when it fits int64_t or uint64_t
      const bool negative = token[0] == '-';
      std::uint64_t magnitude = 0;
      if (std::from_chars(token.data() + negative, token.data() + token.size(),
                          magnitude).ec == std::errc{}) {
        if (!negative || magnitude == 0) return JsonValue(magnitude);
        if (magnitude <= std::uint64_t{1} << 63) {
          return JsonValue(static_cast<std::int64_t>(0 - magnitude));
        }
      }
    }
    const double value = std::strtod(std::string(token).c_str(), nullptr);
    if (!std::isfinite(value)) {
      pos_ = start;
      return fail("number out of range");
    }
    return JsonValue(value);
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  JsonError* error_ = nullptr;
  bool recorded_ = false;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string JsonError::str() const {
  std::ostringstream os;
  os << "line " << line << ", column " << column << ": " << message;
  return os.str();
}

std::optional<JsonValue> json_parse(std::string_view text) {
  return JsonParser(text, nullptr).parse();
}

std::optional<JsonValue> json_parse(std::string_view text, JsonError* error) {
  return JsonParser(text, error).parse();
}

bool json_is_valid(std::string_view text) {
  return json_parse(text).has_value();
}

/// json_render's visitor over the stored alternatives (a friend of
/// JsonValue).
struct JsonWriter {
  std::string& out;

  void operator()(const JsonValue& value) { std::visit(*this, value.value_); }
  void operator()(std::nullptr_t) { out += "null"; }
  void operator()(bool b) { out += b ? "true" : "false"; }
  void operator()(std::uint64_t n) { digits(n); }
  void operator()(std::int64_t n) { digits(n); }
  /// Integral values below 2^53 print without a decimal point, others at
  /// round-trip precision (%.17g). The parser rejects non-finite values;
  /// one built in code degrades to 0.
  void operator()(double v) {
    if (!std::isfinite(v)) v = 0;
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
      return digits(static_cast<std::int64_t>(v));
    }
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                  std::chars_format::general, 17).ptr);
  }
  void operator()(const std::string& s) {
    out += '"';
    out += json_escape(s);
    out += '"';
  }
  void operator()(const JsonValue::Array& items) {
    out += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out += ',';
      (*this)(items[i]);
    }
    out += ']';
  }
  void operator()(const JsonValue::Object& members) {
    out += '{';
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i != 0) out += ',';
      (*this)(members[i].first);
      out += ':';
      (*this)(members[i].second);
    }
    out += '}';
  }

  template <typename Integer>
  void digits(Integer n) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), n).ptr);
  }
};

std::string json_render(const JsonValue& value) {
  std::string out;
  JsonWriter{out}(value);
  // The service caches rendered results: keep none of the growth slack.
  out.shrink_to_fit();
  return out;
}

}  // namespace mhs::obs

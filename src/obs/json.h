// Minimal JSON support for the observability and benchmark pipelines.
//
// Three pieces, shared by trace export, the bench Reporter, and the
// bench_report aggregator:
//
//   * json_escape()   — escapes a string for embedding in a JSON literal;
//   * json_parse()    — a strict recursive-descent parser producing a
//                       JsonValue tree (rejects NaN/Infinity, numbers
//                       that overflow a double, trailing garbage, raw
//                       control characters, bad escapes, leading zeros,
//                       and nesting deeper than kJsonMaxDepth);
//   * json_render()   — renders a JsonValue back to compact canonical
//                       text (the inverse of json_parse, used to
//                       normalize network payloads);
//   * json_is_valid() — well-formedness check, defined as "json_parse
//                       succeeds", so the validator and the parser can
//                       never disagree about what is legal.
//
// The parser is the trust boundary for every byte that reaches the
// process from outside (bench documents, traces, and — since mhs_serve —
// network request bodies), so resource limits are part of the contract:
// recursion is capped at kJsonMaxDepth so a deeply nested body fails
// with a JsonError instead of overflowing the stack.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace mhs::obs {

/// Deepest container nesting json_parse accepts. Exceeding it is a
/// JsonError ("nesting deeper than ..."), not a stack overflow — the
/// guard that makes the parser safe on hostile network input.
inline constexpr int kJsonMaxDepth = 256;

/// One parsed JSON value. Objects preserve source key order; duplicate
/// keys are kept as-is (find() returns the first). A number is an exact
/// integer or a double: an integer token that fits int64_t or uint64_t,
/// and a value built from any C++ integral type, keeps every digit, with
/// one representation per integer (unsigned unless negative). Every
/// other number is a double.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : value_(nullptr) {}
  template <std::same_as<bool> B>  // exactly bool: a pointer is not one
  JsonValue(B b) : value_(b) {}
  template <std::integral I>
    requires(!std::same_as<I, bool> && sizeof(I) <= 8)
  JsonValue(I n)
      : value_(std::cmp_less(n, 0) ? Value(static_cast<std::int64_t>(n))
                                   : Value(static_cast<std::uint64_t>(n))) {}
  JsonValue(double n) : value_(n) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  Kind kind() const {
    const std::size_t i = value_.index();
    return i > kObjectIndex ? Kind::kNumber : static_cast<Kind>(i);
  }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_number() const { return kind() == Kind::kNumber; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  /// Typed accessors; preconditions match the kind. as_number() of an
  /// integer is the nearest double.
  bool as_bool() const { return std::get<bool>(value_); }
  double as_number() const;
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const Array& as_array() const { return std::get<Array>(value_); }
  const Object& as_object() const { return std::get<Object>(value_); }

  /// The exact value of a non-negative integer; nullopt for anything
  /// else, a double with an integral value (`8.0`, `1e3`) included.
  std::optional<std::uint64_t> as_u64() const;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Lenient accessors used by the bench-report reader: return the
  /// default when the value has a different kind.
  double number_or(double fallback) const {
    return is_number() ? as_number() : fallback;
  }
  bool bool_or(bool fallback) const { return is_bool() ? as_bool() : fallback; }
  std::string string_or(std::string fallback) const {
    return is_string() ? as_string() : std::move(fallback);
  }

 private:
  friend struct JsonWriter;  // json_render's visitor

  using Value = std::variant<std::nullptr_t, bool, double, std::string,
                             Array, Object, std::uint64_t, std::int64_t>;
  static constexpr std::size_t kObjectIndex = 5;
  Value value_;
};

/// Where and why a parse failed. `offset` is the byte offset of the
/// first offending character; `line`/`column` are 1-based and count a
/// '\n' as ending a line. For an unexpected end of input, the position
/// is one past the last character.
struct JsonError {
  std::size_t offset = 0;
  std::size_t line = 1;
  std::size_t column = 1;
  std::string message;

  /// "line 3, column 7: unexpected ','"
  std::string str() const;
};

/// Parses `text` as one JSON document. std::nullopt on any syntax error.
std::optional<JsonValue> json_parse(std::string_view text);

/// As above; on failure additionally fills `*error` with the position
/// (line/column) and reason of the first offending character — what
/// mhs_lint --check-json and the bench/trace validators report.
std::optional<JsonValue> json_parse(std::string_view text, JsonError* error);

/// Minimal JSON well-formedness check (objects, arrays, strings, numbers,
/// booleans, null; rejects trailing garbage, NaN/Infinity, numbers that
/// overflow a double, and raw control characters). Used by the tests and
/// the tier-2 trace validation to assert exported traces parse.
bool json_is_valid(std::string_view text);

/// Escapes a string for embedding inside a JSON string literal.
std::string json_escape(std::string_view text);

/// Renders a JsonValue as compact JSON text (no whitespace, object keys
/// in stored order, integers with every digit, doubles with an integral
/// value below 2^53 without a decimal point, other doubles at
/// round-trip precision). Rendering what json_parse read back gives the
/// same bytes, so render-after-parse is a canonical form: two documents
/// that parse to the same tree render to the same bytes — what the
/// service layer uses to normalize request/response payloads.
std::string json_render(const JsonValue& value);

}  // namespace mhs::obs

#pragma once

// Minimal JSON support for the observability layer.
//
// Two halves: escaping for every place the codebase hand-emits JSON (trace
// exporter, bench reporter, metrics reports), and a small recursive-descent
// parser used by slimpipe_report and the trace/report validators. The parser
// covers the full JSON grammar (objects, arrays, strings with escapes,
// numbers, literals) — enough to round-trip everything we emit and to reject
// structurally broken output in tests.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace slim::obs {

/// Escapes the *content* of a JSON string: quotes, backslashes and control
/// characters (the latter as \uXXXX or the short forms \n \t \r \b \f).
/// Does not add surrounding quotes.
std::string json_escape(std::string_view text);

/// `"` + json_escape(text) + `"` — the form callers almost always want.
std::string json_quote(std::string_view text);

/// Formats a double as a valid JSON number (non-finite values, which JSON
/// cannot represent, are clamped to 0).
std::string json_number(double value);

/// Parsed JSON document node. Object member order is preserved.
class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  bool boolean() const { return bool_; }
  double number() const { return number_; }
  const std::string& str() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object() const {
    return object_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Convenience accessors with defaults (for tolerant report loading).
  std::string string_or(std::string_view key, std::string fallback) const;
  double number_or(std::string_view key, double fallback) const;

  /// Parses `text`; on failure returns false and fills `error` with a
  /// message including the byte offset.
  static bool parse(std::string_view text, JsonValue* out, std::string* error);

  // Builders (used by the metrics/report emitters and test fixtures).
  static JsonValue make_string(std::string s);
  static JsonValue make_number(double v);
  static JsonValue make_bool(bool v);
  static JsonValue make_array();
  static JsonValue make_object();

  /// Appends to an array (converts a Null node to an array first).
  void push_back(JsonValue v);

  /// Sets an object member, replacing an existing key (converts a Null node
  /// to an object first). Insertion order is preserved.
  void set(std::string_view key, JsonValue v);

  /// Serializes this value to compact JSON (strings escaped, numbers via
  /// json_number). `indent` > 0 pretty-prints with that many spaces.
  std::string dump(int indent = 0) const;

 private:
  friend class JsonParser;
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

}  // namespace slim::obs

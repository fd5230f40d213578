#pragma once

// Minimal JSON support for the observability layer.
//
// Three parts: escaping and number formatting for the text the codebase
// emits by hand (the Chrome trace, the Prometheus exposition), a small
// recursive-descent parser used by slimpipe_report, slimpipe_top and the
// trace/report validators, and a codec that walks a record's field list to
// and from a JsonValue (the run metrics, live snapshot and bench report
// files). The parser covers the full JSON grammar (objects, arrays, strings
// with escapes, numbers, literals) — enough to round-trip everything we emit
// and to reject structurally broken output in tests; a number goes through
// util::parse_number, so 1e999 is malformed, not infinity.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/fields.hpp"
#include "src/util/number.hpp"

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

// ---------------------------------------------------------------------------
// Field-list codec (src/util/fields.hpp). to_json writes numbers, bools and
// strings as themselves, vectors as arrays and records as objects whose
// members follow the record's field list; from_json reads the same shapes
// back. A member missing from an object keeps its default; a member of the
// wrong type, or a fractional or out-of-range number in an integer member,
// fails the decode, which then leaves `*out` alone.

/// Optional third argument of a field-list visit: JSON carries the member
/// only when `present` (the wire always does; a reader takes it when there).
struct InJson {
  bool present = true;
};

template <class T>
JsonValue to_json(const T& value);
template <class T>
bool from_json(const JsonValue& value, T* out);

/// Field-list visitor: appends each member to `object`, in list order.
class JsonWriter {
 public:
  explicit JsonWriter(JsonValue& object) : object_(object) {}

  template <class T>
  void operator()(std::string_view key, const T& member, InJson in = {}) {
    if (in.present) object_.set(key, to_json(member));
  }

 private:
  JsonValue& object_;
};

/// Field-list visitor: assigns each member that `object` holds.
class JsonReader {
 public:
  explicit JsonReader(const JsonValue& object) : object_(object) {}

  template <class T>
  void operator()(std::string_view key, T& member, InJson = {}) {
    const JsonValue* value = object_.find(key);
    if (value != nullptr && !from_json(*value, &member)) ok_ = false;
  }

  bool ok() const { return ok_; }

 private:
  const JsonValue& object_;
  bool ok_ = true;
};

template <class T>
JsonValue to_json(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return JsonValue::make_bool(value);
  } else if constexpr (std::is_arithmetic_v<T>) {
    return JsonValue::make_number(static_cast<double>(value));
  } else if constexpr (std::is_same_v<T, std::string>) {
    return JsonValue::make_string(value);
  } else if constexpr (is_vector_v<T>) {
    JsonValue array = JsonValue::make_array();
    for (const auto& element : value) array.push_back(to_json(element));
    return array;
  } else {
    JsonValue object = JsonValue::make_object();
    fields(value, JsonWriter(object));
    return object;
  }
}

template <class T>
bool from_json(const JsonValue& value, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!value.is_bool()) return false;
    *out = value.boolean();
  } else if constexpr (std::is_integral_v<T>) {
    if (!value.is_number()) return false;
    const std::optional<T> exact = util::exact_integer<T>(value.number());
    if (!exact) return false;
    *out = *exact;
  } else if constexpr (std::is_floating_point_v<T>) {
    if (!value.is_number()) return false;
    *out = static_cast<T>(value.number());
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!value.is_string()) return false;
    *out = value.str();
  } else if constexpr (is_vector_v<T>) {
    if (!value.is_array()) return false;
    T elements;
    for (const JsonValue& item : value.array()) {
      if (!from_json(item, &elements.emplace_back())) return false;
    }
    *out = std::move(elements);
  } else {
    if (out == nullptr || !value.is_object()) return false;
    T record;
    JsonReader reader(value);
    fields(record, reader);
    if (!reader.ok()) return false;
    *out = std::move(record);
  }
  return true;
}

}  // namespace slim::obs

#include "src/obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace slim::obs {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char raw : text) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  return out;
}

std::string json_quote(std::string_view text) {
  return "\"" + json_escape(text) + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_number(double value) {
  JsonValue v;
  v.kind_ = Kind::Number;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::make_bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::make_array() {
  JsonValue v;
  v.kind_ = Kind::Array;
  return v;
}

JsonValue JsonValue::make_object() {
  JsonValue v;
  v.kind_ = Kind::Object;
  return v;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  array_.push_back(std::move(v));
}

void JsonValue::set(std::string_view key, JsonValue v) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  object_.emplace_back(std::string(key), std::move(v));
}

namespace {

void dump_impl(const JsonValue& value, std::string* out, int indent,
               int depth) {
  const bool pretty = indent > 0;
  auto newline = [&](int level) {
    if (!pretty) return;
    *out += '\n';
    out->append(static_cast<std::size_t>(indent * level), ' ');
  };
  switch (value.kind()) {
    case JsonValue::Kind::Null: *out += "null"; break;
    case JsonValue::Kind::Bool: *out += value.boolean() ? "true" : "false"; break;
    case JsonValue::Kind::Number: *out += json_number(value.number()); break;
    case JsonValue::Kind::String: *out += json_quote(value.str()); break;
    case JsonValue::Kind::Array: {
      *out += '[';
      bool first = true;
      for (const JsonValue& element : value.array()) {
        if (!first) *out += ',';
        first = false;
        newline(depth + 1);
        dump_impl(element, out, indent, depth + 1);
      }
      if (!first) newline(depth);
      *out += ']';
      break;
    }
    case JsonValue::Kind::Object: {
      *out += '{';
      bool first = true;
      for (const auto& [key, member] : value.object()) {
        if (!first) *out += ',';
        first = false;
        newline(depth + 1);
        *out += json_quote(key);
        *out += pretty ? ": " : ":";
        dump_impl(member, out, indent, depth + 1);
      }
      if (!first) newline(depth);
      *out += '}';
      break;
    }
  }
}

}  // namespace

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_impl(*this, &out, indent, 0);
  return out;
}

/// Recursive-descent JSON parser over a string_view.
class JsonParser {
 public:
  JsonParser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool run(JsonValue* out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after value");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 128;

  bool fail(const std::string& message) {
    if (error_ != nullptr) {
      *error_ = message + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("bad literal");
    }
    pos_ += word.size();
    return true;
  }

  bool parse_string(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 't': *out += '\t'; break;
        case 'r': *out += '\r'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad hex digit in \\u escape");
          }
          // Encode as UTF-8 (surrogate pairs kept as-is; we only emit BMP
          // control codes ourselves).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected number");
    const std::optional<double> value =
        util::parse_number<double>(text_.substr(start, pos_ - start));
    if (!value) return fail("malformed number");
    *out = JsonValue::make_number(*value);
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': {
        ++pos_;
        out->kind_ = JsonValue::Kind::Object;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(&key)) return false;
          skip_ws();
          if (pos_ >= text_.size() || text_[pos_] != ':') {
            return fail("expected ':' after object key");
          }
          ++pos_;
          JsonValue member;
          if (!parse_value(&member, depth + 1)) return false;
          out->object_.emplace_back(std::move(key), std::move(member));
          skip_ws();
          if (pos_ >= text_.size()) return fail("unterminated object");
          if (text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (text_[pos_] == '}') {
            ++pos_;
            return true;
          }
          return fail("expected ',' or '}' in object");
        }
      }
      case '[': {
        ++pos_;
        out->kind_ = JsonValue::Kind::Array;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        while (true) {
          JsonValue element;
          if (!parse_value(&element, depth + 1)) return false;
          out->array_.push_back(std::move(element));
          skip_ws();
          if (pos_ >= text_.size()) return fail("unterminated array");
          if (text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (text_[pos_] == ']') {
            ++pos_;
            return true;
          }
          return fail("expected ',' or ']' in array");
        }
      }
      case '"': {
        out->kind_ = JsonValue::Kind::String;
        return parse_string(&out->string_);
      }
      case 't':
        out->kind_ = JsonValue::Kind::Bool;
        out->bool_ = true;
        return literal("true");
      case 'f':
        out->kind_ = JsonValue::Kind::Bool;
        out->bool_ = false;
        return literal("false");
      case 'n':
        out->kind_ = JsonValue::Kind::Null;
        return literal("null");
      default:
        return parse_number(out);
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

bool JsonValue::parse(std::string_view text, JsonValue* out,
                      std::string* error) {
  *out = JsonValue();
  JsonParser parser(text, error);
  return parser.run(out);
}

}  // namespace slim::obs

#pragma once

// One number reader and one writer for all text the program reads from
// outside: environment variables, the tools' flags, fault plans, schedule
// tables and JSON files.

#include <charconv>
#include <cmath>
#include <concepts>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace slim::util {

/// `token` whole as a T: a base-10 integer within T's range, or a finite
/// floating-point value. A '+' sign, a space, hex or a trailing character
/// makes it malformed (strtol read "8abc" as 8 and "0x10" as 0).
template <class T>
  requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
std::optional<T> parse_number(std::string_view token) {
  if (token.empty()) return std::nullopt;
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// `value` as a T when it is an integer within T's range [min, 2^digits);
/// converting any other double to T is undefined or lossy.
template <std::integral T>
std::optional<T> exact_integer(double value) {
  using Limits = std::numeric_limits<T>;
  if (!(value >= Limits::min() && value < std::ldexp(1.0, Limits::digits)) ||
      value != std::trunc(value)) {
    return std::nullopt;
  }
  return static_cast<T>(value);
}

/// Text that parse_number reads back to `value`'s bits: an integral value
/// below 2^53 as an integer ("1000000"), any other as printf's %g ("0.0001",
/// "1e-05") when those six digits read back exactly, else as %.17g
/// ("1.2345678899999999"). A non-finite value prints as "inf", "-inf" or
/// "nan", which the reader rejects.
inline std::string format_number(double value) {
  char text[32];
  const auto printed = [&](std::chars_format format, int precision) {
    return std::string(
        text, std::to_chars(text, text + sizeof text, value, format, precision)
                  .ptr);
  };
  if (std::abs(value) < 0x1p53 && value == std::trunc(value)) {
    return printed(std::chars_format::fixed, 0);
  }
  const std::string six = printed(std::chars_format::general, 6);
  return parse_number<double>(six) == value
             ? six
             : printed(std::chars_format::general, 17);
}

}  // namespace slim::util

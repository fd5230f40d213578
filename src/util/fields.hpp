#pragma once

// Field lists: one walk per record, for every codec the record crosses.
//
// A record that travels (a worker's heartbeat, a report file) names each
// member once, with its JSON key, in a function template beside the struct
// or beside its one codec:
//
//   template <MaybeConst<StageMetrics> M, class Visit>
//   void fields(M& m, Visit&& visit) {
//     visit("device", m.device);
//     ...
//   }
//
// An encoder walks a const record and reads each member; a decoder walks a
// default-constructed one and assigns each member. Members the list leaves
// out do not travel. The codecs find `fields` by argument-dependent lookup,
// so a list lives in the namespace of its record or of its codec, never in
// an anonymous namespace.
//
// The line formats (fault plans, schedule tables) write and read one token
// per member with token_text and read_token: a bool is 0 or 1, a number
// goes through src/util/number.hpp, a string is its text, and an enum goes
// through the name function the visit passes (which says "?" past the last
// enumerator).

#include <concepts>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/util/number.hpp"

namespace slim {

/// `R` is `T` or `const T`: a field list's record parameter, so one list
/// hands an encoder const members and a decoder mutable ones.
template <class R, class T>
concept MaybeConst = std::same_as<std::remove_const_t<R>, T>;

/// Codecs write a std::vector as a counted sequence of its elements.
template <class T>
inline constexpr bool is_vector_v = false;
template <class T, class A>
inline constexpr bool is_vector_v<std::vector<T, A>> = true;

namespace util {

/// Third visit argument of an int member whose value `none` is spelled ".".
struct Dot {
  int none;
};

template <class T>
std::string token_text(const T& member) {
  if constexpr (std::is_same_v<T, bool>) return member ? "1" : "0";
  else if constexpr (std::is_floating_point_v<T>) return format_number(member);
  else if constexpr (std::is_integral_v<T>) return std::to_string(member);
  else return member;
}

template <class E>
std::string token_text(E member, const char* (*name)(E)) {
  return name(member);
}

inline std::string token_text(int member, Dot dot) {
  return member == dot.none ? "." : std::to_string(member);
}

/// Reads `token` into `*member`; false, leaving the member alone, when the
/// token is malformed.
template <class T>
bool read_token(std::string_view token, T* member) {
  std::optional<T> value;
  if constexpr (std::is_same_v<T, bool>) {
    if (token == "0" || token == "1") value = token == "1";
  } else if constexpr (std::is_arithmetic_v<T>) {
    value = parse_number<T>(token);
  } else {
    value = T(token);
  }
  if (value) *member = *value;
  return value.has_value();
}

template <class E>
bool read_token(std::string_view token, E* member, const char* (*name)(E)) {
  for (int i = 0; std::string_view(name(E(i))) != "?"; ++i) {
    if (token == name(E(i))) {
      *member = E(i);
      return true;
    }
  }
  return false;
}

inline bool read_token(std::string_view token, int* member, Dot dot) {
  if (token != ".") return read_token(token, member);
  *member = dot.none;
  return true;
}

}  // namespace util

}  // namespace slim

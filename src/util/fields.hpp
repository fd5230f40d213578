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

#include <concepts>
#include <type_traits>
#include <vector>

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

}  // namespace slim

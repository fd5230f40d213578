#pragma once

// Strict environment-variable parsing.
//
// The runtimes take tuning knobs from SLIMPIPE_* environment variables,
// read with the program's one number reader (util::parse_number): a value
// that is not one whole base-10 integer (SLIMPIPE_THREADS=8abc, +8, 0x8)
// is malformed, and a malformed or too small value logs a warning and falls
// back, where strtol read a prefix of it.

namespace slim::util {

/// Reads environment variable `name`. Unset returns `fallback` silently;
/// set-but-malformed (trailing garbage, empty, out of range) or below
/// `min_value` logs a one-line warning and returns `fallback`.
long long env_int_or(const char* name, long long fallback,
                     long long min_value);

}  // namespace slim::util

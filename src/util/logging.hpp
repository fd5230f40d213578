#pragma once

// Minimal thread-safe logging for the SlimPipe library.
//
// Usage:
//   SLIM_LOG(Warn) << "built schedule with " << n << " ops";

#include <mutex>
#include <sstream>
#include <string>

namespace slim {

enum class LogLevel : int { Warn, Error };

namespace detail {

class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line);
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine();

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace detail

}  // namespace slim

#define SLIM_LOG(severity) \
  ::slim::detail::LogLine(::slim::LogLevel::severity, __FILE__, __LINE__)

/// Check for internal invariants and malformed input (always enabled): a
/// failed one throws std::logic_error naming the condition, file, line and
/// message, and prints nothing itself.
#define SLIM_CHECK(cond, msg)                                              \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::slim::detail::check_failed(#cond, msg, __FILE__, __LINE__);        \
    }                                                                      \
  } while (false)

namespace slim::detail {
[[noreturn]] void check_failed(const char* cond, const std::string& msg,
                               const char* file, int line);
}  // namespace slim::detail

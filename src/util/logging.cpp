#include "src/util/logging.hpp"

#include <cstdio>
#include <iostream>
#include <stdexcept>

namespace slim {

namespace {
std::mutex g_io_mutex;
}  // namespace

namespace detail {

LogLine::LogLine(LogLevel level, const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << (level == LogLevel::Warn ? "WARN " : "ERROR") << "] "
          << base << ":" << line << " ";
}

LogLine::~LogLine() {
  std::lock_guard<std::mutex> lock(g_io_mutex);
  std::cerr << stream_.str() << "\n";
}

// Throws only: whoever catches the error reports what() (the tools, a
// worker's Done frame, PipelineError), and an uncaught one reaches
// std::terminate's message.
void check_failed(const char* cond, const std::string& msg, const char* file,
                  int line) {
  std::ostringstream out;
  out << "SLIM_CHECK failed: (" << cond << ") at " << file << ":" << line
      << ": " << msg;
  throw std::logic_error(out.str());
}

}  // namespace detail
}  // namespace slim

#include "src/util/logging.hpp"

#include <atomic>
#include <cstdio>
#include <iostream>
#include <stdexcept>

namespace slim {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::Warn)};
std::mutex g_io_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF  ";
  }
  return "?????";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(static_cast<int>(level)); }

namespace detail {

LogLine::LogLine(LogLevel level, const char* file, int line)
    : enabled_(static_cast<int>(level) >= g_level.load()) {
  if (enabled_) {
    const char* base = file;
    for (const char* p = file; *p != '\0'; ++p) {
      if (*p == '/') base = p + 1;
    }
    stream_ << "[" << level_name(level) << "] " << base << ":" << line << " ";
  }
}

LogLine::~LogLine() {
  if (enabled_) {
    std::lock_guard<std::mutex> lock(g_io_mutex);
    std::cerr << stream_.str() << "\n";
  }
}

void check_failed(const char* cond, const std::string& msg, const char* file,
                  int line) {
  std::ostringstream out;
  out << "SLIM_CHECK failed: (" << cond << ") at " << file << ":" << line
      << ": " << msg;
  {
    std::lock_guard<std::mutex> lock(g_io_mutex);
    std::cerr << out.str() << std::endl;
  }
  throw std::logic_error(out.str());
}

}  // namespace detail
}  // namespace slim

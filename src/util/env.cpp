#include "src/util/env.hpp"

#include <cstdlib>

#include "src/util/logging.hpp"
#include "src/util/number.hpp"

namespace slim::util {

long long env_int_or(const char* name, long long fallback,
                     long long min_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const auto parsed = parse_number<long long>(raw);
  if (!parsed.has_value() || *parsed < min_value) {
    SLIM_LOG(Warn) << name << "=\"" << raw << "\" is not an integer >= "
                   << min_value << "; using " << fallback;
    return fallback;
  }
  return *parsed;
}

}  // namespace slim::util

#pragma once

// Runs a test body on every kernel ISA path this CPU supports
// (src/numerics/isa.hpp), so one test binary checks each compiled copy of
// the chunk bodies. Failures name the path.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "src/numerics/isa.hpp"

namespace slim::num {

inline void for_each_isa(const std::function<void()>& body) {
  for (detail::Isa isa : detail::available_isas()) {
    detail::ScopedIsa path(isa);
    SCOPED_TRACE(std::string("kernel path ") + detail::isa_name(isa));
    body();
  }
}

}  // namespace slim::num

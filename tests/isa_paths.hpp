#pragma once

// Runs a test body on every kernel ISA path this CPU supports
// (src/numerics/isa.hpp), so one test binary checks each compiled copy of
// the chunk bodies. Failures name the path.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "src/numerics/isa.hpp"
#include "src/util/thread_pool.hpp"

namespace slim::num {

inline void for_each_isa(const std::function<void()>& body) {
  for (detail::Isa isa : detail::available_isas()) {
    detail::ScopedIsa path(isa);
    SCOPED_TRACE(std::string("kernel path ") + detail::isa_name(isa));
    body();
  }
}

/// Runs the body on every ISA path at kernel pool widths 1 and 4, and puts
/// the pool's width back afterwards. Failures name the path and the width.
inline void for_each_isa_and_width(const std::function<void()>& body) {
  struct WidthGuard {
    util::ThreadPool& pool = util::ThreadPool::global();
    int previous = pool.max_threads();
    ~WidthGuard() { pool.set_threads(previous); }
  } guard;
  for (int width : {1, 4}) {
    guard.pool.set_threads(width);
    SCOPED_TRACE("pool width " + std::to_string(width));
    for_each_isa(body);
  }
}

}  // namespace slim::num

#include "src/numerics/isa.hpp"

#include <atomic>

#include "src/util/logging.hpp"

namespace slim::num::detail {

namespace {

std::atomic<Isa>& path() {
  static std::atomic<Isa> isa{cpu_has_avx2() ? Isa::kAvx2 : Isa::kBaseline};
  return isa;
}

}  // namespace

const char* isa_name(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "baseline";
}

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

std::vector<Isa> available_isas() {
  std::vector<Isa> isas = {Isa::kBaseline};
  if (cpu_has_avx2()) isas.push_back(Isa::kAvx2);
  return isas;
}

Isa active_isa() { return path().load(std::memory_order_relaxed); }

ScopedIsa::ScopedIsa(Isa isa) : previous_(active_isa()) {
  SLIM_CHECK(isa != Isa::kAvx2 || cpu_has_avx2(),
             "this CPU cannot run the avx2 kernel path");
  path().store(isa, std::memory_order_relaxed);
}

ScopedIsa::~ScopedIsa() { path().store(previous_, std::memory_order_relaxed); }

}  // namespace slim::num::detail

#pragma once

// Run-time choice of the instruction set the numerics kernels run at.
//
// Every hot chunk body in src/numerics is written once, as an
// always-inline function, and compiled twice: inlined into a baseline
// wrapper and into an `__attribute__((target("avx2")))` wrapper. The path is
// chosen once per process from CPUID (`__builtin_cpu_supports`). Only the
// wrappers carry the target attribute, never a whole file: out-of-line
// copies of shared inline functions stay baseline, so the linker cannot
// hand an AVX2 copy to a baseline caller.
//
// Both paths give the same bits. The bodies vectorize across independent
// outputs only (DESIGN §8), the AVX2 target does not include FMA, and the
// library builds with -ffp-contract=off, so the wider registers change how
// many elements one instruction handles and nothing about how each one
// rounds.

#include <cstdint>
#include <vector>

#include "src/util/thread_pool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define SLIM_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define SLIM_TARGET_AVX2
#endif

/// Marks a chunk body, which runs only through avx2_path or baseline_path
/// below: always inlined, so each wrapper compiles its own copy of it for
/// its own target.
#define SLIM_CHUNK_BODY [[gnu::always_inline]] inline

namespace slim::num::detail {

enum class Isa { kBaseline, kAvx2 };

const char* isa_name(Isa isa);

/// True when the CPU and the OS support AVX2 (checked once per process).
bool cpu_has_avx2();

/// Every path this CPU can run: baseline, then AVX2 when supported.
std::vector<Isa> available_isas();

/// The path the kernels take: AVX2 when supported, unless a ScopedIsa
/// forces another.
Isa active_isa();

/// Test hook: forces the kernels of the whole process onto one path while
/// alive and restores the previous path on destruction. Forcing AVX2 on a
/// CPU without it throws. Must not race a kernel in flight, like
/// util::ThreadPool::set_threads.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa);
  ~ScopedIsa();
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  Isa previous_;
};

template <auto Body, class Ctx>
SLIM_TARGET_AVX2 void avx2_path(const Ctx& ctx, std::int64_t lo,
                                std::int64_t hi) {
  Body(ctx, lo, hi);
}

template <auto Body, class Ctx>
void baseline_path(const Ctx& ctx, std::int64_t lo, std::int64_t hi) {
  Body(ctx, lo, hi);
}

/// Body compiled for the path active now.
template <auto Body, class Ctx>
auto active_path() -> void (*)(const Ctx&, std::int64_t, std::int64_t) {
  return active_isa() == Isa::kAvx2 ? &avx2_path<Body, Ctx>
                                    : &baseline_path<Body, Ctx>;
}

/// Runs Body(ctx, lo, hi) once on the calling thread, on the active path.
template <auto Body, class Ctx>
void run_chunk(const Ctx& ctx, std::int64_t lo, std::int64_t hi) {
  active_path<Body, Ctx>()(ctx, lo, hi);
}

/// parallel_for over [begin, end) in chunks of `grain` on the kernel pool,
/// every chunk running Body on the path active at the call.
template <auto Body, class Ctx>
void parallel_chunks(std::int64_t begin, std::int64_t end, std::int64_t grain,
                     const Ctx& ctx) {
  const auto body = active_path<Body, Ctx>();
  util::ThreadPool::global().parallel_for(
      begin, end, grain,
      [&](std::int64_t lo, std::int64_t hi) { body(ctx, lo, hi); });
}

}  // namespace slim::num::detail

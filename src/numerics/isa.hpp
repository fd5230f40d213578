#pragma once

// Run-time choice of the instruction set the numerics kernels run at.
//
// Every hot chunk body in src/numerics is written once, as an
// always-inline function, and compiled twice: inlined into a baseline
// wrapper and into an `__attribute__((target("avx2")))` wrapper. A
// register-tiled body (matmul, attention) is one template instantiated
// once per path instead, each with tiles sized for its path's registers
// (active_path's Body and Narrow). The path is chosen once per process from
// CPUID (`__builtin_cpu_supports`). Only the
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
#include <cstring>
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

// GCC vector types for the register tiles of the chunk bodies. Their
// arithmetic is element-wise IEEE float or double, so each wrapper lowers
// it to its own registers (one ymm on the AVX2 path, two xmm on the
// baseline one) with the same bits, and never to a fused multiply-add.
using f32x8 = float __attribute__((vector_size(32)));
using f32x4 = float __attribute__((vector_size(16)));
using f64x4 = double __attribute__((vector_size(32)));
using i32x4 = std::int32_t __attribute__((vector_size(16)));
using i64x4 = std::int64_t __attribute__((vector_size(32)));

/// Unaligned load of a V (a vector type above, or a plain float or double)
/// from p.
template <class V, class T>
[[gnu::always_inline]] inline V load(const T* p) {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}

/// Unaligned store of v to p.
template <class V, class T>
[[gnu::always_inline]] inline void store(T* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

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

/// The body for the path active now: Body compiled for AVX2, or Narrow
/// compiled for the baseline. A register-tiled kernel passes as Narrow the
/// same computation with tiles sized for the baseline's sixteen xmm
/// registers (the bits do not depend on the tile); every other kernel
/// passes one body for both.
template <auto Body, auto Narrow, class Ctx>
auto active_path() -> void (*)(const Ctx&, std::int64_t, std::int64_t) {
  return active_isa() == Isa::kAvx2 ? &avx2_path<Body, Ctx>
                                    : &baseline_path<Narrow, Ctx>;
}

/// Runs the active path's body once on the calling thread over [lo, hi).
template <auto Body, auto Narrow = Body, class Ctx>
void run_chunk(const Ctx& ctx, std::int64_t lo, std::int64_t hi) {
  active_path<Body, Narrow, Ctx>()(ctx, lo, hi);
}

/// parallel_for over [begin, end) in chunks of `grain` on the kernel pool,
/// every chunk running the body of the path active at the call.
template <auto Body, auto Narrow = Body, class Ctx>
void parallel_chunks(std::int64_t begin, std::int64_t end, std::int64_t grain,
                     const Ctx& ctx) {
  const auto body = active_path<Body, Narrow, Ctx>();
  util::ThreadPool::global().parallel_for(
      begin, end, grain,
      [&](std::int64_t lo, std::int64_t hi) { body(ctx, lo, hi); });
}

}  // namespace slim::num::detail

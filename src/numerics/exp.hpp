#pragma once

// The numerics library's own exponential. Every kernel that exponentiates
// (attention's softmax, SiLU, cross entropy, the MoE router) calls
// exp_f32, so the kernels do not depend on which libm `expf` the loader
// picks, and their exp loops vectorize.
//
// exp_f32 is within 1 ULP of the exact value on every float (0.95 ULP at
// worst, checked exhaustively on [-110, 90]), returns +0 and +inf exactly
// where the correctly rounded exp does, and maps NaN to NaN. It is plain
// float arithmetic, which the library never contracts into fused
// multiply-adds, so a vectorized copy gives the bits of the scalar one on
// every ISA path (isa.hpp); like the chunk bodies it is always inlined, so
// each ISA wrapper compiles its own copy.

#include <bit>
#include <cstdint>

namespace slim::num {

/// e^x: Cody–Waite reduction x = n·ln2 + r with |r| <= ln2/2, a degree-7
/// polynomial for e^r, then a multiply by 2^n in two halves, so a
/// subnormal result rounds once instead of flushing to zero.
[[gnu::always_inline]] inline float exp_f32(float x) {
  // Past these bounds e^x is 0 or inf in float; NaN passes both compares.
  x = x < -104.0f ? -104.0f : x;
  x = x > 104.0f ? 104.0f : x;
  // 1.5·2^23 puts round(x·log2 e) in the low mantissa bits of z.
  constexpr float kShift = 0x1.8p23f;
  const float z = x * 1.44269504088896341f + kShift;
  const float n = z - kShift;
  // ln 2 in two parts: n·kLn2Hi is exact for |n| <= 2^8.
  constexpr float kLn2Hi = 0.693145751953125f;
  constexpr float kLn2Lo = 1.428606765330187045e-06f;
  float r = x - n * kLn2Hi;
  r = r - n * kLn2Lo;
  float u = 0.000198527617612853646278381f;
  u = u * r + 0.00139304355252534151077271f;
  u = u * r + 0.00833336077630519866943359f;
  u = u * r + 0.0416664853692054748535156f;
  u = u * r + 0.166666671633720397949219f;
  u = u * r + 0.5f;
  const float p = 1.0f + (r * r * u + r);
  // n + 2^22 straight from z's bits (2^23 is 0x4B000000), in unsigned
  // arithmetic: no float-to-int conversion, which is undefined for NaN.
  const std::uint32_t biased = std::bit_cast<std::uint32_t>(z) - 0x4B000000u;
  const std::uint32_t half = biased >> 1;  // floor(n / 2) + 2^21
  constexpr std::uint32_t kRebias = (1u << 21) - 127u;
  const float lo = std::bit_cast<float>((half - kRebias) << 23);
  const float hi = std::bit_cast<float>((biased - half - kRebias) << 23);
  return p * lo * hi;
}

/// Lanes per exp block: one AVX2 register of floats.
inline constexpr std::int64_t kExpLanes = 8;

/// y[i] = exp_f32(x[i] - shift) for i in [0, n), in whole blocks of
/// kExpLanes so the loop vectorizes; a last partial block runs on a copy
/// padded with `shift`. `y` may be `x` (in place) but must not otherwise
/// overlap it.
[[gnu::always_inline]] inline void exp_shifted(const float* x, float shift,
                                               std::int64_t n, float* y) {
  std::int64_t i = 0;
  for (; i + kExpLanes <= n; i += kExpLanes) {
    for (std::int64_t b = 0; b < kExpLanes; ++b) {
      y[i + b] = exp_f32(x[i + b] - shift);
    }
  }
  if (i == n) return;
  float tail[kExpLanes];
  std::int64_t b = 0;
  for (; i + b < n; ++b) tail[b] = x[i + b];
  for (; b < kExpLanes; ++b) tail[b] = shift;
  for (b = 0; b < kExpLanes; ++b) tail[b] = exp_f32(tail[b] - shift);
  for (b = 0; i + b < n; ++b) y[i + b] = tail[b];
}

}  // namespace slim::num

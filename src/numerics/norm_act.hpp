#pragma once

// RMSNorm and SwiGLU with manual backward passes.
//
// Both follow the paper's memory-thrifty conventions (§5): RMSNorm keeps no
// output (gradients are recomputed from the input), and SwiGLU recomputes
// the swish product from the stored gate/up projections.

#include "src/numerics/exp.hpp"
#include "src/numerics/tensor.hpp"

namespace slim::num {

inline constexpr float kRmsEps = 1e-5f;

/// y[r] = x[r] / rms(x[r]) * w   (w broadcast over rows).
Tensor rmsnorm(const Tensor& x, const Tensor& weight);

/// Backward from dy; accumulates into dweight, returns dx. Recomputes the
/// normalizer from x (memory-efficient variant).
Tensor rmsnorm_bwd(const Tensor& x, const Tensor& weight, const Tensor& dy,
                   Tensor& dweight);

/// silu(x) = x * sigmoid(x). Always inlined, so the swiglu loops vectorize.
[[gnu::always_inline]] inline float silu(float x) {
  return x / (1.0f + exp_f32(-x));
}
[[gnu::always_inline]] inline float silu_grad(float x) {
  const float s = 1.0f / (1.0f + exp_f32(-x));
  return s * (1.0f + x * (1.0f - s));
}

/// out = silu(gate) * up, elementwise.
Tensor swiglu(const Tensor& gate, const Tensor& up);

/// Backward: fills dgate and dup from dout (recomputing silu from gate).
void swiglu_bwd(const Tensor& gate, const Tensor& up, const Tensor& dout,
                Tensor& dgate, Tensor& dup);

}  // namespace slim::num

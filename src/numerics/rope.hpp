#pragma once

// Rotary position embeddings: pairwise rotation of each head's feature
// dimensions with position-dependent angles. The backward rotation is the
// inverse rotation, so RoPE needs no stored activations.
//
// One pass per tensor: a row's heads are its head_dim-wide column bands,
// and every band rotates by the same angles, so each (row, pair) angle is
// evaluated once and applied to all of the row's heads in place.

#include <cstdint>

#include "src/numerics/tensor.hpp"

namespace slim::num {

inline constexpr float kRopeBase = 10000.0f;

/// Rotates every head_dim-wide band of each row of `x` (shape s x
/// k * head_dim, head_dim even) in place for global positions
/// [pos_offset, pos_offset + s).
void rope_apply(Tensor& x, std::int64_t head_dim, std::int64_t pos_offset);

/// Gradient: rotate `dx` by the negative angles (in place).
void rope_apply_bwd(Tensor& dx, std::int64_t head_dim,
                    std::int64_t pos_offset);

}  // namespace slim::num

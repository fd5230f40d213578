#pragma once

// Softmax cross-entropy: monolithic and vocabulary-sharded (paper §4.3.2).
//
// The sharded loss never gathers the logits. Its three phases are what the
// threaded runtime's vocabulary rounds route between devices, and
// cross_entropy_sharded composes them on one thread: ce_shard_stats (each
// shard's O(tokens) statistics), ce_fold (the synchronized global and the
// loss) and ce_shard_grad (each shard's logit gradient). Every exponential
// is exp_shifted's (exp.hpp). Tests assert agreement with the monolithic
// path.

#include <cstdint>
#include <vector>

#include "src/numerics/tensor.hpp"

namespace slim::num {

struct CeResult {
  double loss = 0.0;    // mean over tokens
  Tensor dlogits;       // gradient of the mean loss
};

/// logits: (tokens x vocab); targets: one class id per token.
CeResult cross_entropy(const Tensor& logits,
                       const std::vector<std::int64_t>& targets);

struct ShardedCeResult {
  double loss = 0.0;
  std::vector<Tensor> dshards;  // same shapes as the input shards
};

/// `shards[k]` holds columns [offsets[k], offsets[k] + shards[k].cols()).
/// Offsets are implied by cumulative widths.
ShardedCeResult cross_entropy_sharded(
    const std::vector<Tensor>& shards,
    const std::vector<std::int64_t>& targets);

/// `shard` holds logit columns [col_offset, col_offset + shard.cols()).
/// Rows of the result, per token: the shard's max logit, its sum of
/// exp(logit - max), the target's logit (-inf when not in this shard).
Tensor ce_shard_stats(const Tensor& shard, std::int64_t col_offset,
                      const std::vector<std::int64_t>& targets);

struct CeFold {
  Tensor global;      // 2 x tokens: global max logit, sum of exp(logit - max)
  double loss = 0.0;  // mean over tokens
};

/// Folds every shard's statistics in shard order. Throws when a token's
/// target lies in no shard.
CeFold ce_fold(const std::vector<Tensor>& stats);

/// d(loss) / d(shard) from ce_fold's global, times `scale` (1 / tokens for
/// the mean loss).
Tensor ce_shard_grad(const Tensor& shard, std::int64_t col_offset,
                     const std::vector<std::int64_t>& targets,
                     const Tensor& global, float scale);

}  // namespace slim::num

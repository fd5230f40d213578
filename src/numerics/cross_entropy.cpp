#include "src/numerics/cross_entropy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "src/numerics/arena.hpp"
#include "src/numerics/exp.hpp"
#include "src/util/thread_pool.hpp"

namespace slim::num {

namespace {
constexpr float kNegInf = -std::numeric_limits<float>::infinity();
constexpr std::int64_t kTokenGrain = 16;

util::ThreadPool& pool() { return util::ThreadPool::global(); }
}

CeResult cross_entropy(const Tensor& logits,
                       const std::vector<std::int64_t>& targets) {
  SLIM_CHECK(static_cast<std::int64_t>(targets.size()) == logits.rows(),
             "one target per token required");
  CeResult result;
  // Every row of dlogits is fully written by its owning chunk — uninit.
  result.dlogits = Tensor::uninit(logits.rows(), logits.cols());
  const std::int64_t tokens = logits.rows(), vocab = logits.cols();
  const float inv_tokens = 1.0f / static_cast<float>(tokens);
  // The scalar loss is a reduction over tokens: per-chunk partials, folded
  // in ascending chunk order (thread-count independent). Partial slots are
  // workspace-leased; each worker zeroes its own slot before accumulating.
  const std::int64_t n_chunks = util::chunk_count(0, tokens, kTokenGrain);
  WorkspaceLease<double> loss_partials(n_chunks);
  pool().parallel_for(0, tokens, kTokenGrain,
                      [&](std::int64_t t0, std::int64_t t1) {
    double& loss = loss_partials[t0 / kTokenGrain];
    loss = 0.0;
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t y = targets[static_cast<std::size_t>(t)];
      SLIM_CHECK(y >= 0 && y < vocab, "target out of vocabulary");
      const float* row = logits.data() + t * vocab;
      float* drow = result.dlogits.data() + t * vocab;
      float m = kNegInf;
      for (std::int64_t c = 0; c < vocab; ++c) m = std::max(m, row[c]);
      // The row's exp values go to its gradient row, then become p there.
      exp_shifted(row, m, vocab, drow);
      double l = 0.0;
      for (std::int64_t c = 0; c < vocab; ++c) l += drow[c];
      loss += std::log(l) + m - row[y];
      for (std::int64_t c = 0; c < vocab; ++c) {
        const float p = static_cast<float>(drow[c] / l);
        drow[c] = (p - (c == y ? 1.0f : 0.0f)) * inv_tokens;
      }
    }
  });
  for (std::int64_t ch = 0; ch < n_chunks; ++ch) {
    result.loss += loss_partials[ch];
  }
  result.loss /= static_cast<double>(tokens);
  return result;
}

Tensor ce_shard_stats(const Tensor& shard, std::int64_t col_offset,
                      const std::vector<std::int64_t>& targets) {
  const std::int64_t tokens = shard.rows(), width = shard.cols();
  SLIM_CHECK(static_cast<std::int64_t>(targets.size()) == tokens,
             "one target per token required");
  // Every element is written by its token's chunk — uninit is safe.
  Tensor stats = Tensor::uninit(3, tokens);
  float* max_logit = stats.data();
  float* sum_exp = max_logit + tokens;
  float* target_logit = sum_exp + tokens;
  pool().parallel_for(0, tokens, kTokenGrain,
                      [&](std::int64_t t0, std::int64_t t1) {
    WorkspaceLease<float> w(width);
    for (std::int64_t t = t0; t < t1; ++t) {
      const float* row = shard.data() + t * width;
      float m = kNegInf;
      for (std::int64_t c = 0; c < width; ++c) m = std::max(m, row[c]);
      exp_shifted(row, m, width, w.data());
      double l = 0.0;
      for (std::int64_t c = 0; c < width; ++c) l += w[c];
      max_logit[t] = m;
      sum_exp[t] = static_cast<float>(l);
      const std::int64_t y = targets[static_cast<std::size_t>(t)] - col_offset;
      target_logit[t] = y >= 0 && y < width ? row[y] : kNegInf;
    }
  });
  return stats;
}

CeFold ce_fold(const std::vector<Tensor>& stats) {
  SLIM_CHECK(!stats.empty(), "need at least one shard");
  const std::int64_t tokens = stats.front().cols();
  for (const Tensor& st : stats) {
    SLIM_CHECK(st.rows() == 3 && st.cols() == tokens,
               "shard statistics must be 3 x tokens");
  }
  CeFold fold{Tensor::uninit(2, tokens), 0.0};
  for (std::int64_t t = 0; t < tokens; ++t) {
    float gmax = kNegInf, target = kNegInf;
    for (const Tensor& st : stats) {
      gmax = std::max(gmax, st.at(0, t));
      if (st.at(2, t) != kNegInf) target = st.at(2, t);
    }
    SLIM_CHECK(target != kNegInf, "token " + std::to_string(t) +
                                      ": target class missing from all shards");
    double gsum = 0.0;
    for (const Tensor& st : stats) {
      if (st.at(1, t) > 0.0f) {
        gsum += static_cast<double>(st.at(1, t)) * exp_f32(st.at(0, t) - gmax);
      }
    }
    fold.loss += std::log(gsum) + gmax - target;
    fold.global.at(0, t) = gmax;
    fold.global.at(1, t) = static_cast<float>(gsum);
  }
  fold.loss /= static_cast<double>(tokens);
  return fold;
}

Tensor ce_shard_grad(const Tensor& shard, std::int64_t col_offset,
                     const std::vector<std::int64_t>& targets,
                     const Tensor& global, float scale) {
  const std::int64_t tokens = shard.rows(), width = shard.cols();
  SLIM_CHECK(static_cast<std::int64_t>(targets.size()) == tokens &&
                 global.rows() == 2 && global.cols() == tokens,
             "one target and one global (max, sum) per token required");
  const float* gmax = global.data();
  const float* gsum = gmax + tokens;
  // Every element of grad is written exactly once — uninit is safe.
  Tensor grad = Tensor::uninit(tokens, width);
  pool().parallel_for(0, tokens, kTokenGrain,
                      [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t y = targets[static_cast<std::size_t>(t)] - col_offset;
      float* grow = grad.data() + t * width;
      exp_shifted(shard.data() + t * width, gmax[t], width, grow);
      for (std::int64_t c = 0; c < width; ++c) {
        grow[c] = (grow[c] / gsum[t] - (c == y ? 1.0f : 0.0f)) * scale;
      }
    }
  });
  return grad;
}

ShardedCeResult cross_entropy_sharded(
    const std::vector<Tensor>& shards,
    const std::vector<std::int64_t>& targets) {
  SLIM_CHECK(!shards.empty(), "need at least one shard");
  const std::int64_t tokens = shards.front().rows();
  std::vector<Tensor> stats;
  std::int64_t offset = 0;
  for (const Tensor& shard : shards) {
    SLIM_CHECK(shard.rows() == tokens, "shard token-count mismatch");
    stats.push_back(ce_shard_stats(shard, offset, targets));
    offset += shard.cols();
  }
  const CeFold fold = ce_fold(stats);
  ShardedCeResult result;
  result.loss = fold.loss;
  offset = 0;
  for (const Tensor& shard : shards) {
    result.dshards.push_back(ce_shard_grad(shard, offset, targets, fold.global,
                                           1.0f / static_cast<float>(tokens)));
    offset += shard.cols();
  }
  return result;
}

}  // namespace slim::num

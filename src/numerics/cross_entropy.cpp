#include "src/numerics/cross_entropy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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

CeShardStats ce_shard_stats(const Tensor& shard, std::int64_t col_offset,
                            const std::vector<std::int64_t>& targets) {
  CeShardStats stats;
  const std::int64_t tokens = shard.rows(), width = shard.cols();
  stats.max_logit.assign(static_cast<std::size_t>(tokens), kNegInf);
  stats.sum_exp.assign(static_cast<std::size_t>(tokens), 0.0f);
  stats.target_logit.assign(static_cast<std::size_t>(tokens), kNegInf);
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
      stats.max_logit[static_cast<std::size_t>(t)] = m;
      stats.sum_exp[static_cast<std::size_t>(t)] = static_cast<float>(l);
      const std::int64_t y = targets[static_cast<std::size_t>(t)] - col_offset;
      if (y >= 0 && y < width) {
        stats.target_logit[static_cast<std::size_t>(t)] = shard.at(t, y);
      }
    }
  });
  return stats;
}

ShardedCeResult cross_entropy_sharded(
    const std::vector<Tensor>& shards,
    const std::vector<std::int64_t>& targets) {
  SLIM_CHECK(!shards.empty(), "need at least one shard");
  const std::int64_t tokens = shards.front().rows();
  ShardedCeResult result;

  // Phase 1: local statistics (what each PP device computes).
  std::vector<CeShardStats> stats;
  std::vector<std::int64_t> offsets;
  std::int64_t offset = 0;
  for (const Tensor& shard : shards) {
    SLIM_CHECK(shard.rows() == tokens, "shard token-count mismatch");
    offsets.push_back(offset);
    stats.push_back(ce_shard_stats(shard, offset, targets));
    offset += shard.cols();
  }

  // Phase 2: synchronize scalars (the all-reduce of the paper — O(tokens)).
  std::vector<float> gmax(static_cast<std::size_t>(tokens), kNegInf);
  for (const CeShardStats& st : stats) {
    for (std::int64_t t = 0; t < tokens; ++t) {
      gmax[static_cast<std::size_t>(t)] =
          std::max(gmax[static_cast<std::size_t>(t)],
                   st.max_logit[static_cast<std::size_t>(t)]);
    }
  }
  std::vector<double> gsum(static_cast<std::size_t>(tokens), 0.0);
  std::vector<float> gtarget(static_cast<std::size_t>(tokens), kNegInf);
  std::vector<float> rescale(static_cast<std::size_t>(tokens));
  for (const CeShardStats& st : stats) {
    // exp(max - gmax) per token; an unused one may be NaN (-inf - -inf).
    for (std::int64_t t = 0; t < tokens; ++t) {
      const std::size_t ti = static_cast<std::size_t>(t);
      rescale[ti] = st.max_logit[ti] - gmax[ti];
    }
    exp_shifted(rescale.data(), 0.0f, tokens, rescale.data());
    for (std::int64_t t = 0; t < tokens; ++t) {
      const std::size_t ti = static_cast<std::size_t>(t);
      if (st.sum_exp[ti] > 0.0f) {
        gsum[ti] += static_cast<double>(st.sum_exp[ti]) * rescale[ti];
      }
      if (st.target_logit[ti] != kNegInf) gtarget[ti] = st.target_logit[ti];
    }
  }

  // Phase 3: loss and shard-local gradients from the global statistics.
  const float inv_tokens = 1.0f / static_cast<float>(tokens);
  for (std::int64_t t = 0; t < tokens; ++t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    SLIM_CHECK(gtarget[ti] != kNegInf, "target class missing from all shards");
    result.loss += std::log(gsum[ti]) + gmax[ti] - gtarget[ti];
  }
  result.loss /= static_cast<double>(tokens);

  for (std::size_t s = 0; s < shards.size(); ++s) {
    const Tensor& shard = shards[s];
    // Every element of grad is written exactly once — uninit is safe.
    Tensor grad = Tensor::uninit(shard.rows(), shard.cols());
    pool().parallel_for(0, tokens, kTokenGrain,
                        [&](std::int64_t t0, std::int64_t t1) {
      const std::int64_t width = shard.cols();
      for (std::int64_t t = t0; t < t1; ++t) {
        const std::size_t ti = static_cast<std::size_t>(t);
        const std::int64_t y = targets[ti] - offsets[s];
        float* grow = grad.data() + t * width;
        exp_shifted(shard.data() + t * width, gmax[ti], width, grow);
        for (std::int64_t c = 0; c < width; ++c) {
          const float p = static_cast<float>(grow[c] / gsum[ti]);
          grow[c] = (p - (c == y ? 1.0f : 0.0f)) * inv_tokens;
        }
      }
    });
    result.dshards.push_back(std::move(grad));
  }
  return result;
}

}  // namespace slim::num

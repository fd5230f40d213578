#pragma once

// Causal attention: reference, partial (block-wise with online-softmax
// statistics) and cache-wide variants.
//
// The cache-wide pass (attn_group_fwd / attn_group_bwd) is SlimPipe's
// slice-wise attention (§4.1.2): a query slice attends to the KV cache of
// every earlier slice of its microbatch plus its own, in one pass over
// every visible key, read in place from the cache. Each query row's result
// is therefore the whole-sequence attention's, bit for bit, however the
// sequence is sliced. attn_streamed and attn_streamed_bwd are the same
// pass for one head over a list of chunks.
//
// The *partial* form with its online-softmax merge serves attention
// context exchange (§4.2.2): a device computes attention against part of
// the KV remotely and the partial output is merged back "via the online
// softmax method" [Milakov & Gimelshein]. merge(attn(Q, KV_a), attn(Q,
// KV_b)) == attn(Q, KV_a ∪ KV_b) up to rounding, which the tests assert.

#include <cstdint>
#include <span>
#include <vector>

#include "src/numerics/tensor.hpp"

namespace slim::num {

/// Softmax-normalized partial attention output with its online-softmax
/// statistics. `m` is the per-query running max of scores, `l` the running
/// normalizer. Queries with no visible keys have l == 0.
struct AttnPartial {
  Tensor out;             // (q_len, head_dim), already normalized by l
  std::vector<float> m;   // per query row
  std::vector<float> l;

  std::int64_t q_len() const { return out.rows(); }
};

/// Attention of q (global positions q_offset..q_offset+q_len-1) against
/// k/v (global positions k_offset..), causally masked: key j visible to
/// query i iff k_offset + j <= q_offset + i. q, k and v share one head
/// width: this is attn_group_fwd for one head over one chunk.
AttnPartial attn_partial(const Tensor& q, const Tensor& k, const Tensor& v,
                         std::int64_t q_offset, std::int64_t k_offset,
                         float scale);

/// Online-softmax merge of two partials over disjoint key sets.
AttnPartial attn_merge(const AttnPartial& a, const AttnPartial& b);

/// Reference causal attention (single block, k_offset = 0).
Tensor attn_reference(const Tensor& q, const Tensor& k, const Tensor& v,
                      std::int64_t q_offset, float scale);

/// Reference backward. dq/dk/dv are (re)initialized to the right shapes.
void attn_reference_bwd(const Tensor& q, const Tensor& k, const Tensor& v,
                        std::int64_t q_offset, float scale, const Tensor& dout,
                        Tensor& dq, Tensor& dk, Tensor& dv);

/// One cached chunk as the cache-wide pass reads it, in place: `rows` keys
/// from global position `pos`. Row r of K, V and of the gradient
/// accumulators dK and dV (which only the backward touches) starts r * ld
/// floats past the pointer, ld being the HeadGroup's kv_ld.
struct KvRows {
  const float* k = nullptr;
  const float* v = nullptr;
  float* dk = nullptr;
  float* dv = nullptr;
  std::int64_t rows = 0;
  std::int64_t pos = 0;
};

/// The query heads of one GQA group against their KV head's whole cache:
/// the one attention call a layer makes per KV head and slice.
struct HeadGroup {
  std::span<const KvRows> cache;  // contiguous in position, ascending
  std::int64_t kv_ld = 0;         // floats per row of K, V, dK and dV
  std::int64_t kv_col = 0;        // the KV head's first column in them
  const float* q = nullptr;       // query rows, q_ld floats apart; query
  std::int64_t q_ld = 0;          // head g's columns start at g * head_dim
  std::int64_t rows = 0;          // query rows
  std::int64_t q_offset = 0;      // global position of query row 0
  std::int64_t heads = 1;
  std::int64_t head_dim = 0;      // of queries, keys and values alike
  float scale = 1.0f;
};

/// Forward of every head of the group. Head g's output rows go to out + g *
/// head_dim, out_ld floats apart; its per-row max and normalizer to m[g *
/// rows + i] and l[g * rows + i]. Row i's result is attn_partial's against
/// the concatenated cache: one pass over its visible keys. A row that sees
/// no key gets m = -inf and l = 0, and its output is not written.
void attn_group_fwd(const HeadGroup& g, float* out, std::int64_t out_ld,
                    float* m, float* l);

/// Backward of every head of the group from the forward's out, m and l
/// (laid out as attn_group_fwd writes them) and dout (laid out as out).
/// Head g's dq rows (dq + g * head_dim, dq_ld floats apart) accumulate its
/// gradient over the keys in ascending order onto what they hold (zero for
/// the gradient alone). The cache's dK and dV columns of the KV head get
/// each head's gradient added, in ascending head order; a head's gradient
/// for a key is its 8-row query chunks' partial sums folded from zero in
/// ascending chunk order. The keys are walked in fixed blocks, which do not
/// change a bit.
void attn_group_bwd(const HeadGroup& g, const float* out, std::int64_t out_ld,
                    const float* m, const float* l, const float* dout,
                    std::int64_t dout_ld, float* dq, std::int64_t dq_ld);

/// One KV chunk with its global start position.
struct KvChunk {
  Tensor k;
  Tensor v;
  std::int64_t pos = 0;  // global position of the chunk's first key
};

/// attn_group_fwd for one head (q, k and v of one width) over chunks
/// contiguous in position: bit for bit attn_partial over their
/// concatenation.
AttnPartial attn_streamed(const Tensor& q, const std::vector<KvChunk>& chunks,
                          std::int64_t q_offset, float scale);

/// attn_group_bwd for one head: recomputes the probabilities from the
/// forward's (m, l) statistics, writes dq and adds into per-chunk gradient
/// buffers (which is what makes LIFO slice backward necessary: a chunk's
/// gradient is only complete once every later slice has contributed).
void attn_streamed_bwd(const Tensor& q, const std::vector<KvChunk>& chunks,
                       std::int64_t q_offset, float scale,
                       const AttnPartial& fwd, const Tensor& dout, Tensor& dq,
                       std::vector<Tensor>& dk_chunks,
                       std::vector<Tensor>& dv_chunks);

}  // namespace slim::num

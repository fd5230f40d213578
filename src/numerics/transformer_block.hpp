#pragma once

// A real (CPU, fp32) transformer layer and tiny language model that execute
// SlimPipe's slice-wise schedule numerically: forward slice-by-slice with a
// chunked KV cache, backward strictly LIFO with per-chunk KV gradient
// accumulation. The equivalence tests compare against monolithic
// execution — this is the functional proof that uniform slicing, KV chunk
// reuse and reverse-order backward compute the exact same gradients.
//
// Memory-thrifty conventions from the paper's §5 are followed: RMSNorm
// outputs and the SwiGLU product are recomputed in backward, not stored.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/core/slice_layout.hpp"
#include "src/numerics/arena.hpp"
#include "src/numerics/attention.hpp"
#include "src/numerics/moe.hpp"
#include "src/numerics/cross_entropy.hpp"
#include "src/numerics/norm_act.hpp"
#include "src/numerics/rope.hpp"
#include "src/numerics/tensor.hpp"
#include "src/util/rng.hpp"

namespace slim::num {

struct BlockDims {
  std::int64_t hidden = 0;
  std::int64_t heads = 0;
  std::int64_t kv_heads = 0;  // GQA groups; == heads for MHA
  std::int64_t ffn = 0;

  std::int64_t head_dim() const { return hidden / heads; }
  std::int64_t kv_hidden() const { return kv_heads * head_dim(); }
};

struct LayerWeights {
  Tensor wq, wk, wv, wo;        // (h,h) (h,kvh) (h,kvh) (h,h)
  Tensor w_gate, w_up, w_down;  // (h,f) (h,f) (f,h)
  Tensor norm1, norm2;          // (1,h)

  static LayerWeights random(const BlockDims& dims, Rng& rng);

  /// In-place SGD step: w -= lr * g.
  void apply_sgd(const struct LayerGrads& grads, float lr);
};

struct LayerGrads {
  Tensor wq, wk, wv, wo, w_gate, w_up, w_down, norm1, norm2;
  std::optional<MoeGrads> moe;  // set for MoE layers

  static LayerGrads zeros(const BlockDims& dims);
  static LayerGrads zeros_moe(const BlockDims& dims, const MoeDims& moe);
  void add_(const LayerGrads& other);
  float max_abs_diff(const LayerGrads& other) const;
};

/// One transformer layer executing slices against a chunked KV cache.
class Layer {
 public:
  Layer(BlockDims dims, LayerWeights weights);

  /// Mixture-of-Experts variant (Mixtral-style, Table 3): the dense FFN is
  /// replaced by a routed top-k expert FFN; attention is unchanged.
  Layer(BlockDims dims, LayerWeights weights, MoeDims moe_dims,
        MoeWeights moe_weights);

  bool is_moe() const { return moe_weights_.has_value(); }
  const std::optional<MoeDims>& moe_dims() const { return moe_dims_; }

  /// SGD step on all of this layer's parameters (dense + MoE).
  void apply_sgd(const LayerGrads& grads, float lr);

  const BlockDims& dims() const { return dims_; }
  const LayerWeights& weights() const { return weights_; }

  /// Forward of a slice whose first token has global position `pos`.
  /// Appends one KV chunk to microbatch `mb`'s cache; a microbatch's
  /// slices must arrive in position order. Several microbatches may be in
  /// flight at once (1F1B interleaves them); each keeps its own cache.
  Tensor forward_slice(const Tensor& x, std::int64_t pos, int mb = 0);

  /// Backward of microbatch `mb`'s most recent un-backwarded slice (LIFO
  /// within the microbatch, enforced). Returns dx; accumulates into
  /// `grads`. Frees the slice's activations and its KV chunk (the
  /// steady-state memory invariant of §4.1.2).
  Tensor backward_slice(const Tensor& dout, LayerGrads& grads, int mb = 0);

  /// Live (not yet backwarded) slices across all in-flight microbatches.
  /// Each holds exactly one KV chunk.
  std::int64_t live_slices() const;

  /// Clears cache/activations (abandoning any pending backward).
  void reset();

  /// Routes every retained slice tensor (activations under kActivation, KV
  /// chunks under kKvCache, KV-gradient accumulators under kGrads) through
  /// a per-microbatch arena reporting into `stats`. nullptr (the default)
  /// keeps plain heap ownership. Arena placement never changes the math:
  /// results stay bit-identical to the heap path.
  void set_arena_stats(ArenaStats* stats) { arena_stats_ = stats; }

  /// Analytical arena footprint one slice of `slice_len` tokens retains
  /// between its forward and its backward — the prediction side of
  /// measured-vs-analytical reconciliation. Sizes are 64-byte-aligned the
  /// way the arena rounds them.
  struct SliceFootprint {
    std::int64_t activation_bytes = 0;  // x, q, attn_cat, x2 (+gate, up)
    std::int64_t kv_bytes = 0;          // post-RoPE k, v
    std::int64_t grad_bytes = 0;        // dk, dv accumulators
    std::int64_t total() const {
      return activation_bytes + kv_bytes + grad_bytes;
    }
  };
  SliceFootprint slice_footprint(std::int64_t slice_len) const;

 private:
  /// One live slice: what its forward retains for its backward, its KV
  /// chunk with the gradient accumulators later slices' backwards add into,
  /// and the arena mark its backward releases to.
  struct Slice {
    std::int64_t pos = 0;     // global position of the first token
    Arena::Mark mark;         // set when arena stats are enabled
    Tensor x;                 // layer input
    Tensor q;                 // rotated queries
    Tensor k, v;              // post-RoPE keys, values (s, kvh)
    Tensor dk, dv;            // KV gradient accumulators, completed LIFO
    Tensor attn_cat;          // per-head attention outputs, concatenated
    std::vector<float> m, l;  // head h's row i at h * rows + i
    Tensor x2;                // post-attention residual
    Tensor gate, up;          // MLP projections (dense layers)
  };
  struct MicrobatchState {
    std::unique_ptr<Arena> arena;  // set when arena stats are enabled
    std::vector<Slice> slices;     // live slices in position order
  };

  MicrobatchState& state_of(int mb);

  BlockDims dims_;
  LayerWeights weights_;
  std::optional<MoeDims> moe_dims_;
  std::optional<MoeWeights> moe_weights_;
  std::vector<std::pair<int, MicrobatchState>> microbatches_;
  ArenaStats* arena_stats_ = nullptr;
};

/// The tied embedding's token gather: row ids[r] of `table` (vocab x
/// hidden) as row r. Throws on an id outside [0, vocab).
Tensor embed(const Tensor& table, std::span<const std::int64_t> ids);

/// Its gradient: adds row r of `dx` to row ids[r] of `dtable` for r in
/// ascending order, so a repeated id accumulates in row order. Throws on an
/// id outside [0, vocab).
void embed_bwd(std::span<const std::int64_t> ids, const Tensor& dx,
               Tensor& dtable);

/// Tiny LM: tied embedding, L layers, final norm, vocabulary head.
class TinyModel {
 public:
  TinyModel(BlockDims dims, std::int64_t vocab, std::int64_t num_layers,
            Rng& rng);

  /// Mixture-of-Experts model (every layer routed, Mixtral-style).
  TinyModel(BlockDims dims, std::int64_t vocab, std::int64_t num_layers,
            MoeDims moe, Rng& rng);

  struct Grads {
    Tensor embedding;
    std::vector<LayerGrads> layers;
    Tensor final_norm;
    float max_abs_diff(const Grads& other) const;
  };

  /// One full forward+backward over `tokens` (next-token targets) split
  /// into `n_slices` token-uniform slices (remainder to the first slices —
  /// seq % n_slices need not be 0 and every token is trained on), forward
  /// in order, backward LIFO. Returns the mean loss; accumulates gradients.
  double train_step(const std::vector<std::int64_t>& tokens,
                    const std::vector<std::int64_t>& targets, int n_slices,
                    Grads& grads, int vocab_shards = 1);

  /// Explicit-boundary form: `layout` carries the per-slice boundaries
  /// (layout.seq() must equal tokens.size()), e.g. cost-balanced ones from
  /// model::balanced_layout.
  double train_step(const std::vector<std::int64_t>& tokens,
                    const std::vector<std::int64_t>& targets,
                    const core::SliceLayout& layout, Grads& grads,
                    int vocab_shards = 1);

  Grads zero_grads() const;

  /// In-place SGD step on every parameter (used by the convergence tests;
  /// gradient *equivalence* across schedules is the main deliverable).
  void apply_sgd(const Grads& grads, float lr);

  std::int64_t vocab() const { return vocab_; }
  const BlockDims& dims() const { return dims_; }

 private:
  BlockDims dims_;
  std::int64_t vocab_;
  Tensor embedding_;  // (vocab, h), tied with the output head
  std::vector<Layer> layers_;
  Tensor final_norm_;
};

}  // namespace slim::num

#include "src/numerics/transformer_block.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/util/thread_pool.hpp"

namespace slim::num {

namespace {

util::ThreadPool& pool() { return util::ThreadPool::global(); }

/// Keeps a slice's tensor until its backward: adopts the heap buffer
/// (move) on the heap path, copies it into `arena` under `category` once
/// when arenas are enabled.
Tensor retain(Tensor&& t, Arena* arena, int category) {
  if (arena == nullptr) return std::move(t);
  ArenaBinding bind(arena, category);
  return Tensor(t);
}

/// The microbatch's KV cache as the attention pass reads it, in place: one
/// chunk per live slice.
template <class Slices>
std::vector<KvRows> kv_rows(Slices& slices) {
  std::vector<KvRows> rows;
  rows.reserve(slices.size());
  for (auto& sl : slices) {
    rows.push_back({sl.k.data(), sl.v.data(), sl.dk.data(), sl.dv.data(),
                    sl.k.rows(), sl.pos});
  }
  return rows;
}

/// KV head kh's GQA group of query heads (columns of q) against the cache.
HeadGroup head_group(const BlockDims& dims, std::span<const KvRows> cache,
                     std::int64_t kh, const Tensor& q, std::int64_t pos) {
  const std::int64_t hd = dims.head_dim();
  const std::int64_t group = dims.heads / dims.kv_heads;
  return {.cache = cache,
          .kv_ld = dims.kv_hidden(),
          .kv_col = kh * hd,
          .q = q.data() + kh * group * hd,
          .q_ld = dims.hidden,
          .rows = q.rows(),
          .q_offset = pos,
          .heads = group,
          .head_dim = hd,
          .scale = 1.0f / std::sqrt(static_cast<float>(hd))};
}

/// The arena's rounding: 64-byte-aligned float buffers.
std::int64_t aligned_bytes(std::int64_t elems) {
  const std::int64_t bytes = elems * static_cast<std::int64_t>(sizeof(float));
  return (bytes + 63) / 64 * 64;
}

}  // namespace

LayerWeights LayerWeights::random(const BlockDims& dims, Rng& rng) {
  const std::int64_t h = dims.hidden, kvh = dims.kv_hidden(), f = dims.ffn;
  LayerWeights w;
  const float s = 0.2f / std::sqrt(static_cast<float>(h));
  w.wq = Tensor::randn(h, h, rng, s);
  w.wk = Tensor::randn(h, kvh, rng, s);
  w.wv = Tensor::randn(h, kvh, rng, s);
  w.wo = Tensor::randn(h, h, rng, s);
  w.w_gate = Tensor::randn(h, f, rng, s);
  w.w_up = Tensor::randn(h, f, rng, s);
  w.w_down = Tensor::randn(f, h, rng, s);
  w.norm1 = Tensor(1, h);
  w.norm1.fill(1.0f);
  w.norm2 = Tensor(1, h);
  w.norm2.fill(1.0f);
  return w;
}

void LayerWeights::apply_sgd(const LayerGrads& grads, float lr) {
  wq.add_scaled_(grads.wq, -lr);
  wk.add_scaled_(grads.wk, -lr);
  wv.add_scaled_(grads.wv, -lr);
  wo.add_scaled_(grads.wo, -lr);
  w_gate.add_scaled_(grads.w_gate, -lr);
  w_up.add_scaled_(grads.w_up, -lr);
  w_down.add_scaled_(grads.w_down, -lr);
  norm1.add_scaled_(grads.norm1, -lr);
  norm2.add_scaled_(grads.norm2, -lr);
}

LayerGrads LayerGrads::zeros_moe(const BlockDims& dims, const MoeDims& moe) {
  LayerGrads g = zeros(dims);
  g.moe = MoeGrads::zeros(moe);
  return g;
}

LayerGrads LayerGrads::zeros(const BlockDims& dims) {
  const std::int64_t h = dims.hidden, kvh = dims.kv_hidden(), f = dims.ffn;
  LayerGrads g;
  g.wq = Tensor(h, h);
  g.wk = Tensor(h, kvh);
  g.wv = Tensor(h, kvh);
  g.wo = Tensor(h, h);
  g.w_gate = Tensor(h, f);
  g.w_up = Tensor(h, f);
  g.w_down = Tensor(f, h);
  g.norm1 = Tensor(1, h);
  g.norm2 = Tensor(1, h);
  return g;
}

void LayerGrads::add_(const LayerGrads& o) {
  if (moe.has_value()) {
    moe->router.add_(o.moe->router);
    for (std::size_t e = 0; e < moe->experts.size(); ++e) {
      moe->experts[e].w_gate.add_(o.moe->experts[e].w_gate);
      moe->experts[e].w_up.add_(o.moe->experts[e].w_up);
      moe->experts[e].w_down.add_(o.moe->experts[e].w_down);
    }
  }
  wq.add_(o.wq);
  wk.add_(o.wk);
  wv.add_(o.wv);
  wo.add_(o.wo);
  w_gate.add_(o.w_gate);
  w_up.add_(o.w_up);
  w_down.add_(o.w_down);
  norm1.add_(o.norm1);
  norm2.add_(o.norm2);
}

float LayerGrads::max_abs_diff(const LayerGrads& o) const {
  float d = 0.0f;
  if (moe.has_value()) d = std::max(d, moe->max_abs_diff(*o.moe));
  d = std::max(d, wq.max_abs_diff(o.wq));
  d = std::max(d, wk.max_abs_diff(o.wk));
  d = std::max(d, wv.max_abs_diff(o.wv));
  d = std::max(d, wo.max_abs_diff(o.wo));
  d = std::max(d, w_gate.max_abs_diff(o.w_gate));
  d = std::max(d, w_up.max_abs_diff(o.w_up));
  d = std::max(d, w_down.max_abs_diff(o.w_down));
  d = std::max(d, norm1.max_abs_diff(o.norm1));
  d = std::max(d, norm2.max_abs_diff(o.norm2));
  return d;
}

Layer::Layer(BlockDims dims, LayerWeights weights)
    : dims_(dims), weights_(std::move(weights)) {
  SLIM_CHECK(dims_.hidden % dims_.heads == 0, "hidden % heads != 0");
  SLIM_CHECK(dims_.heads % dims_.kv_heads == 0, "heads % kv_heads != 0");
  SLIM_CHECK(dims_.head_dim() % 2 == 0, "head_dim must be even for RoPE");
}

Layer::Layer(BlockDims dims, LayerWeights weights, MoeDims moe_dims,
             MoeWeights moe_weights)
    : Layer(dims, std::move(weights)) {
  SLIM_CHECK(moe_dims.hidden == dims.hidden, "MoE hidden mismatch");
  moe_dims_ = moe_dims;
  moe_weights_ = std::move(moe_weights);
}

void Layer::reset() { microbatches_.clear(); }

void Layer::apply_sgd(const LayerGrads& grads, float lr) {
  weights_.apply_sgd(grads, lr);
  if (is_moe()) {
    moe_weights_->router.add_scaled_(grads.moe->router, -lr);
    for (std::size_t e = 0; e < moe_weights_->experts.size(); ++e) {
      moe_weights_->experts[e].w_gate.add_scaled_(
          grads.moe->experts[e].w_gate, -lr);
      moe_weights_->experts[e].w_up.add_scaled_(grads.moe->experts[e].w_up,
                                                -lr);
      moe_weights_->experts[e].w_down.add_scaled_(
          grads.moe->experts[e].w_down, -lr);
    }
  }
}

Layer::MicrobatchState& Layer::state_of(int mb) {
  for (auto& [id, state] : microbatches_) {
    if (id == mb) return state;
  }
  microbatches_.emplace_back(mb, MicrobatchState{});
  return microbatches_.back().second;
}

std::int64_t Layer::live_slices() const {
  std::int64_t total = 0;
  for (const auto& [id, state] : microbatches_) {
    total += static_cast<std::int64_t>(state.slices.size());
  }
  return total;
}

Layer::SliceFootprint Layer::slice_footprint(std::int64_t slice_len) const {
  const std::int64_t s = slice_len, h = dims_.hidden, kvh = dims_.kv_hidden();
  SliceFootprint fp;
  // Retained activations: x, q, attn_cat, x2; dense layers also keep
  // the gate/up projections (MoE recomputes everything from x2).
  fp.activation_bytes = 4 * aligned_bytes(s * h);
  if (!is_moe()) fp.activation_bytes += 2 * aligned_bytes(s * dims_.ffn);
  fp.kv_bytes = 2 * aligned_bytes(s * kvh);
  fp.grad_bytes = 2 * aligned_bytes(s * kvh);
  return fp;
}

Tensor Layer::forward_slice(const Tensor& x, std::int64_t pos, int mb) {
  MicrobatchState& st = state_of(mb);
  SLIM_CHECK(x.cols() == dims_.hidden, "layer input width mismatch");
  const std::int64_t s = x.rows();
  const std::int64_t hd = dims_.head_dim();

  // One arena scope per slice: everything retained below is reclaimed by
  // this slice's own backward (the LIFO discipline of §4.1.2). Bindings are
  // kept NARROW — only around the retained-tensor copies, never around
  // kernel calls, so kernel temporaries stay off the arena and measured
  // peaks track retained state only. Blocks hold one slice's footprint, and
  // backward_slice trims each retired slice's: reserved tracks live bytes.
  if (arena_stats_ != nullptr && st.arena == nullptr) {
    st.arena = std::make_unique<Arena>(
        arena_stats_, static_cast<std::size_t>(slice_footprint(s).total()));
  }
  Arena* arena = st.arena.get();
  Slice& sl = st.slices.emplace_back();
  sl.pos = pos;
  if (arena != nullptr) sl.mark = arena->mark();
  {
    ArenaBinding bind(arena, mem::kActivation);
    sl.x = x;
  }

  // q and k rotate in place before they are kept; everything below reads
  // the kept copies.
  const Tensor h1 = rmsnorm(x, weights_.norm1);
  Tensor q = matmul(h1, weights_.wq);
  Tensor k = matmul(h1, weights_.wk);
  rope_apply(q, hd, pos);
  rope_apply(k, hd, pos);
  sl.q = retain(std::move(q), arena, mem::kActivation);
  sl.k = retain(std::move(k), arena, mem::kKvCache);
  sl.v = retain(matmul(h1, weights_.wv), arena, mem::kKvCache);
  {
    // The KV-gradient accumulators belong to THIS slice's scope even
    // though later slices' backwards write into them: releasing a later
    // slice's mark must not free them (LIFO completion, §4.1.2).
    ArenaBinding bind(arena, mem::kGrads);
    sl.dk = Tensor(s, dims_.kv_hidden());
    sl.dv = Tensor(s, dims_.kv_hidden());
  }

  // One attention pass per KV head over the microbatch's whole cache, read
  // in place: each slice's rows are the whole-sequence attention's bits.
  // KV heads are independent in forward: disjoint columns of attn_cat and
  // disjoint m/l rows. Attention kernels called from inside this loop run
  // inline (nested parallel_for serializes).
  Tensor attn_cat(s, dims_.hidden);
  sl.m.resize(static_cast<std::size_t>(dims_.heads * s));
  sl.l.resize(static_cast<std::size_t>(dims_.heads * s));
  const std::int64_t group = dims_.heads / dims_.kv_heads;
  const std::vector<KvRows> cache = kv_rows(st.slices);
  pool().parallel_for(0, dims_.kv_heads, 1,
                      [&](std::int64_t h0, std::int64_t h1) {
    for (std::int64_t kh = h0; kh < h1; ++kh) {
      const std::int64_t head = kh * group;
      attn_group_fwd(head_group(dims_, cache, kh, sl.q, pos),
                     attn_cat.data() + head * hd, dims_.hidden,
                     sl.m.data() + head * s, sl.l.data() + head * s);
    }
  });
  sl.attn_cat = retain(std::move(attn_cat), arena, mem::kActivation);

  Tensor x2 = matmul(sl.attn_cat, weights_.wo);
  x2.add_(x);
  sl.x2 = retain(std::move(x2), arena, mem::kActivation);

  const Tensor h2 = rmsnorm(sl.x2, weights_.norm2);
  Tensor out;
  if (is_moe()) {
    // Routed expert FFN; everything recomputed in backward from x2.
    out = moe_forward(*moe_dims_, *moe_weights_, h2);
  } else {
    Tensor gate = matmul(h2, weights_.w_gate);
    Tensor up = matmul(h2, weights_.w_up);
    out = matmul(swiglu(gate, up), weights_.w_down);
    sl.gate = retain(std::move(gate), arena, mem::kActivation);
    sl.up = retain(std::move(up), arena, mem::kActivation);
  }
  out.add_(sl.x2);
  return out;
}

Tensor Layer::backward_slice(const Tensor& dout, LayerGrads& grads, int mb) {
  MicrobatchState& st = state_of(mb);
  SLIM_CHECK(!st.slices.empty(), "backward without pending forward");
  Slice& sl = st.slices.back();
  const std::int64_t s = sl.x.rows();
  const std::int64_t hd = dims_.head_dim();
  const std::int64_t group = dims_.heads / dims_.kv_heads;

  // ---- FFN backward (activations recomputed) ----
  const Tensor h2 = rmsnorm(sl.x2, weights_.norm2);  // recompute
  Tensor dh2;
  if (is_moe()) {
    dh2 = moe_backward(*moe_dims_, *moe_weights_, h2, dout, *grads.moe);
  } else {
    const Tensor swiglu_out = swiglu(sl.gate, sl.up);
    grads.w_down.add_(matmul_tn(swiglu_out, dout));
    const Tensor dswiglu = matmul_nt(dout, weights_.w_down);
    Tensor dgate, dup;
    swiglu_bwd(sl.gate, sl.up, dswiglu, dgate, dup);
    grads.w_gate.add_(matmul_tn(h2, dgate));
    grads.w_up.add_(matmul_tn(h2, dup));
    dh2 = matmul_nt(dgate, weights_.w_gate);
    dh2.add_(matmul_nt(dup, weights_.w_up));
  }
  Tensor dx2 = rmsnorm_bwd(sl.x2, weights_.norm2, dh2, grads.norm2);
  dx2.add_(dout);  // residual

  // ---- attention projection backward ----
  grads.wo.add_(matmul_tn(sl.attn_cat, dx2));
  const Tensor dattn_cat = matmul_nt(dx2, weights_.wo);

  // ---- attention backward, one pass per KV head ----
  // KV heads write disjoint columns of dq and of the cache's dK/dV; a
  // group's heads add into their KV head's columns in ascending head order.
  // Contributions to earlier chunks wait there until those slices' own
  // backward — the LIFO completion argument of §4.1.2.
  Tensor dq(s, dims_.hidden);
  const std::vector<KvRows> cache = kv_rows(st.slices);
  pool().parallel_for(0, dims_.kv_heads, 1,
                      [&](std::int64_t h0, std::int64_t h1) {
    for (std::int64_t kh = h0; kh < h1; ++kh) {
      const std::int64_t col = kh * group * hd, row = kh * group * s;
      attn_group_bwd(head_group(dims_, cache, kh, sl.q, sl.pos),
                     sl.attn_cat.data() + col, dims_.hidden,
                     sl.m.data() + row, sl.l.data() + row,
                     dattn_cat.data() + col, dims_.hidden, dq.data() + col,
                     dims_.hidden);
    }
  });

  // ---- this slice's own KV chunk is now complete: undo RoPE on dq and
  // dK in place, then project back ----
  rope_apply_bwd(dq, hd, sl.pos);
  rope_apply_bwd(sl.dk, hd, sl.pos);
  const Tensor h1 = rmsnorm(sl.x, weights_.norm1);  // recompute
  grads.wq.add_(matmul_tn(h1, dq));
  grads.wk.add_(matmul_tn(h1, sl.dk));
  grads.wv.add_(matmul_tn(h1, sl.dv));
  Tensor dh1 = matmul_nt(dq, weights_.wq);
  dh1.add_(matmul_nt(sl.dk, weights_.wk));
  dh1.add_(matmul_nt(sl.dv, weights_.wv));
  Tensor dx = rmsnorm_bwd(sl.x, weights_.norm1, dh1, grads.norm1);
  dx.add_(dx2);  // residual through the attention block

  // Retire the slice, then reclaim everything its forward scope retained.
  const Arena::Mark mark = sl.mark;
  st.slices.pop_back();
  if (st.arena != nullptr) {
    st.arena->release_to(mark);
    st.arena->trim();
  }
  if (st.slices.empty()) {
    // Drop the finished microbatch's bookkeeping entry.
    for (auto it = microbatches_.begin(); it != microbatches_.end(); ++it) {
      if (it->first == mb) {
        microbatches_.erase(it);
        break;
      }
    }
  }
  return dx;
}

Tensor embed(const Tensor& table, std::span<const std::int64_t> ids) {
  const std::int64_t hidden = table.cols();
  // Every row is copied below — uninit is safe.
  Tensor x = Tensor::uninit(static_cast<std::int64_t>(ids.size()), hidden);
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    const std::int64_t id = ids[static_cast<std::size_t>(r)];
    SLIM_CHECK(id >= 0 && id < table.rows(),
               "token " + std::to_string(id) + " out of vocabulary");
    std::copy_n(table.data() + id * hidden, hidden, x.data() + r * hidden);
  }
  return x;
}

void embed_bwd(std::span<const std::int64_t> ids, const Tensor& dx,
               Tensor& dtable) {
  const std::int64_t hidden = dtable.cols();
  SLIM_CHECK(dx.rows() == static_cast<std::int64_t>(ids.size()) &&
                 dx.cols() == hidden,
             "one gradient row of the table's width per token required");
  for (std::int64_t r = 0; r < dx.rows(); ++r) {
    const std::int64_t id = ids[static_cast<std::size_t>(r)];
    SLIM_CHECK(id >= 0 && id < dtable.rows(),
               "token " + std::to_string(id) + " out of vocabulary");
    float* drow = dtable.data() + id * hidden;
    const float* src = dx.data() + r * hidden;
    for (std::int64_t c = 0; c < hidden; ++c) drow[c] += src[c];
  }
}

TinyModel::TinyModel(BlockDims dims, std::int64_t vocab,
                     std::int64_t num_layers, Rng& rng)
    : dims_(dims), vocab_(vocab) {
  embedding_ = Tensor::randn(vocab, dims.hidden, rng,
                             0.5f / std::sqrt(static_cast<float>(dims.hidden)));
  for (std::int64_t i = 0; i < num_layers; ++i) {
    layers_.emplace_back(dims, LayerWeights::random(dims, rng));
  }
  final_norm_ = Tensor(1, dims.hidden);
  final_norm_.fill(1.0f);
}

TinyModel::TinyModel(BlockDims dims, std::int64_t vocab,
                     std::int64_t num_layers, MoeDims moe, Rng& rng)
    : dims_(dims), vocab_(vocab) {
  embedding_ = Tensor::randn(vocab, dims.hidden, rng,
                             0.5f / std::sqrt(static_cast<float>(dims.hidden)));
  for (std::int64_t i = 0; i < num_layers; ++i) {
    layers_.emplace_back(dims, LayerWeights::random(dims, rng), moe,
                         MoeWeights::random(moe, rng));
  }
  final_norm_ = Tensor(1, dims.hidden);
  final_norm_.fill(1.0f);
}

TinyModel::Grads TinyModel::zero_grads() const {
  Grads g;
  g.embedding = Tensor(vocab_, dims_.hidden);
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    g.layers.push_back(layers_[i].is_moe()
                           ? LayerGrads::zeros_moe(dims_,
                                                   *layers_[i].moe_dims())
                           : LayerGrads::zeros(dims_));
  }
  g.final_norm = Tensor(1, dims_.hidden);
  return g;
}

float TinyModel::Grads::max_abs_diff(const Grads& other) const {
  float d = embedding.max_abs_diff(other.embedding);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    d = std::max(d, layers[i].max_abs_diff(other.layers[i]));
  }
  d = std::max(d, final_norm.max_abs_diff(other.final_norm));
  return d;
}

void TinyModel::apply_sgd(const Grads& grads, float lr) {
  embedding_.add_scaled_(grads.embedding, -lr);
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].apply_sgd(grads.layers[i], lr);
  }
  final_norm_.add_scaled_(grads.final_norm, -lr);
}

double TinyModel::train_step(const std::vector<std::int64_t>& tokens,
                             const std::vector<std::int64_t>& targets,
                             int n_slices, Grads& grads, int vocab_shards) {
  const std::int64_t seq = static_cast<std::int64_t>(tokens.size());
  SLIM_CHECK(n_slices >= 1 && seq >= n_slices,
             "need at least one token per slice");
  return train_step(tokens, targets, core::SliceLayout::uniform(seq, n_slices),
                    grads, vocab_shards);
}

double TinyModel::train_step(const std::vector<std::int64_t>& tokens,
                             const std::vector<std::int64_t>& targets,
                             const core::SliceLayout& layout, Grads& grads,
                             int vocab_shards) {
  const std::int64_t seq = static_cast<std::int64_t>(tokens.size());
  const int n_slices = layout.slices();
  SLIM_CHECK(targets.size() == tokens.size(), "targets size mismatch");
  SLIM_CHECK(layout.seq() == seq, "slice layout does not cover the sequence");
  SLIM_CHECK(vocab_shards >= 1 && vocab_ % vocab_shards == 0,
             "vocabulary must split uniformly");
  for (Layer& layer : layers_) layer.reset();

  auto slice_ids = [&](int si) {
    return std::span<const std::int64_t>(tokens).subspan(
        static_cast<std::size_t>(layout.begin(si)),
        static_cast<std::size_t>(layout.len(si)));
  };
  // Per slice: d(final hidden) from the loss, kept for the LIFO backward.
  std::vector<Tensor> head_grads(static_cast<std::size_t>(n_slices));
  double total_loss = 0.0;

  // ---- forward, slice by slice ----
  for (int si = 0; si < n_slices; ++si) {
    const std::int64_t pos = layout.begin(si);
    const std::int64_t slice_len = layout.len(si);
    const float slice_weight =
        static_cast<float>(slice_len) / static_cast<float>(seq);
    Tensor x = embed(embedding_, slice_ids(si));
    for (Layer& layer : layers_) x = layer.forward_slice(x, pos);

    const Tensor hidden = rmsnorm(x, final_norm_);
    std::vector<std::int64_t> slice_targets(
        targets.begin() + pos, targets.begin() + pos + slice_len);

    // Output head: logits = hidden @ embedding^T, optionally sharded
    // column-wise over the vocabulary (vocabulary parallelism, §4.3).
    Tensor dlogits(slice_len, vocab_);
    double loss = 0.0;
    if (vocab_shards == 1) {
      const Tensor logits = matmul_nt(hidden, embedding_);
      CeResult ce = cross_entropy(logits, slice_targets);
      loss = ce.loss;
      dlogits = std::move(ce.dlogits);
    } else {
      const std::int64_t width = vocab_ / vocab_shards;
      std::vector<Tensor> shards;
      for (int k = 0; k < vocab_shards; ++k) {
        shards.push_back(matmul_nt(
            hidden, embedding_.slice_rows(k * width, (k + 1) * width)));
      }
      ShardedCeResult ce = cross_entropy_sharded(shards, slice_targets);
      loss = ce.loss;
      for (int k = 0; k < vocab_shards; ++k) {
        dlogits.assign_cols(k * width,
                            ce.dshards[static_cast<std::size_t>(k)]);
      }
    }
    total_loss += loss * slice_weight;

    // Backward through the output head immediately (its activations need
    // not persist); the gradient w.r.t. the final hidden state is kept for
    // the LIFO backward phase. Scale to a mean over the full sequence.
    Tensor dlogits_scaled = dlogits;
    for (std::int64_t i = 0; i < dlogits_scaled.size(); ++i) {
      dlogits_scaled.data()[i] *= slice_weight;
    }
    grads.embedding.add_(matmul_tn(dlogits_scaled, hidden));
    const Tensor dhidden = matmul(dlogits_scaled, embedding_);
    head_grads[static_cast<std::size_t>(si)] =
        rmsnorm_bwd(x, final_norm_, dhidden, grads.final_norm);
  }

  // ---- backward, strictly LIFO over slices ----
  for (int si = n_slices - 1; si >= 0; --si) {
    Tensor dx = std::move(head_grads[static_cast<std::size_t>(si)]);
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
      const std::size_t layer_idx =
          layers_.size() - 1 -
          static_cast<std::size_t>(std::distance(layers_.rbegin(), it));
      dx = it->backward_slice(dx, grads.layers[layer_idx]);
    }
    // Tied embedding: input-side gradient.
    embed_bwd(slice_ids(si), dx, grads.embedding);
  }
  for (Layer& layer : layers_) {
    SLIM_CHECK(layer.live_slices() == 0, "slice bookkeeping leaked");
  }
  return total_loss;
}

}  // namespace slim::num

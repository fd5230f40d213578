#include "src/runtime/stage_machine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/core/slice.hpp"
#include "src/numerics/norm_act.hpp"
#include "src/util/logging.hpp"

namespace slim::rt {

std::vector<core::SliceLayout> resolve_layouts(
    const Batch& tokens, const Batch& targets, int n_slices,
    std::vector<core::SliceLayout> layouts) {
  const std::size_t m = tokens.size();
  SLIM_CHECK(m >= 1 && targets.size() == m, "bad microbatches");
  SLIM_CHECK(n_slices >= 1, "n_slices must be >= 1");
  if (layouts.empty()) {
    for (const auto& sequence : tokens) {
      layouts.push_back(core::SliceLayout::uniform(
          static_cast<std::int64_t>(sequence.size()), n_slices));
    }
  }
  SLIM_CHECK(layouts.size() == m, "one slice layout per microbatch required");
  for (std::size_t mb = 0; mb < m; ++mb) {
    SLIM_CHECK(layouts[mb].slices() == n_slices &&
                   layouts[mb].seq() ==
                       static_cast<std::int64_t>(tokens[mb].size()),
               "slice layout does not match its microbatch");
    SLIM_CHECK(tokens[mb].size() == targets[mb].size(),
               "tokens/targets length mismatch");
  }
  return layouts;
}

const char* message_kind_name(Message::Kind kind) {
  switch (kind) {
    case Message::Kind::Forward: return "fwd";
    case Message::Kind::Backward: return "bwd";
    case Message::Kind::VocabWork: return "vocab_work";
    case Message::Kind::VocabStats: return "vocab_stats";
    case Message::Kind::VocabGlobal: return "vocab_global";
    case Message::Kind::VocabDx: return "vocab_dx";
  }
  return "?";
}

StageMachine::StageMachine(const StageInputs& inputs, int stage,
                           std::vector<int> mbs, num::ArenaStats* arena)
    : in_(inputs),
      model_(*inputs.model),
      stage_(stage),
      p_(inputs.model->stages),
      total_stages_(inputs.model->stages * inputs.model->chunks_per_stage),
      head_thread_(inputs.model->head_stage()),
      m_(static_cast<int>(inputs.tokens->size())),
      mbs_(std::move(mbs)),
      rank_of_(static_cast<std::size_t>(m_), -1) {
  const int v = model_.chunks_per_stage;
  const int n = in_.n_slices;
  const int mk = static_cast<int>(mbs_.size());
  SLIM_CHECK(mk >= 1, "attempt without microbatches");
  SLIM_CHECK(!in_.vocab_parallel || model_.vocab % p_ == 0,
             "vocabulary must split evenly across stages");
  for (int r = 0; r < mk; ++r) {
    rank_of_[static_cast<std::size_t>(mbs_[static_cast<std::size_t>(r)])] = r;
  }

  chunk_layers_.resize(static_cast<std::size_t>(v));
  local_of_global_.assign(static_cast<std::size_t>(model_.layers_total), -1);
  int local = 0;
  for (int chunk = 0; chunk < v; ++chunk) {
    const auto [lo, hi] =
        model_.stage_layers[static_cast<std::size_t>(chunk * p_ + stage_)];
    for (int i = lo; i < hi; ++i) {
      auto& layers = chunk_layers_[static_cast<std::size_t>(chunk)];
      layers.emplace_back(model_.dims,
                          model_.layer_weights[static_cast<std::size_t>(i)]);
      layers.back().set_arena_stats(arena);
      local_of_global_[static_cast<std::size_t>(i)] = local++;
    }
  }
  if (in_.vocab_parallel) {
    shard_width_ = model_.vocab / p_;
    shard_lo_ = stage_ * shard_width_;
    head_shard_ =
        model_.embedding.slice_rows(shard_lo_, shard_lo_ + shard_width_);
  }
  for (int r = 0; r < mk; ++r) {
    staged_.push_back(make_stage_commit(model_, stage_, in_.vocab_parallel));
  }

  const std::size_t slots = static_cast<std::size_t>(mk * n);
  const bool is_head = stage_ == head_thread_;
  head_grad_.resize(is_head ? slots : 0);
  if (is_head && in_.vocab_parallel) {
    final_input_.resize(slots);
    dx_sum_.resize(slots);
    stats_seen_.assign(slots, 0);
    dx_seen_.assign(slots, 0);
    stats_acc_.resize(slots);
  }
  if (in_.vocab_parallel) shard_hidden_.resize(slots);

  slices_due_ = mk * n * v;
  vocab_due_ = in_.vocab_parallel ? mk * n : 0;
  live_cap_ = core::slimpipe_warmup_units(p_, stage_, n, v);
  b_done_.assign(static_cast<std::size_t>(mk), 0);
  if (stage_ == 0) {
    for (const int mb : mbs_) {
      for (int s = 0; s < n; ++s) {
        arrivals_.push_back({Message::Kind::Forward, mb, s, 0, {}});
      }
    }
  }
}

void StageMachine::deliver(Message msg) {
  arrivals_.push_back(std::move(msg));
}

int StageMachine::admitted_mb() {
  const int per_mb = in_.n_slices * model_.chunks_per_stage;
  while (mb_min_ < mbs_.size() && b_done_[mb_min_] == per_mb) ++mb_min_;
  return mb_min_ < mbs_.size() ? mbs_[mb_min_] : -1;
}

bool StageMachine::pick(Message& out,
                        const std::function<void(const Message&)>& on_pick) {
  for (;;) {
    if (!deferred_.empty() &&
        (live_ < live_cap_ || deferred_.front().mb == admitted_mb())) {
      out = std::move(deferred_.front());
      deferred_.pop_front();
      return true;
    }
    if (!continuations_.empty()) {
      out = std::move(continuations_.back());
      continuations_.pop_back();
    } else if (!arrivals_.empty()) {
      out = std::move(arrivals_.front());
      arrivals_.pop_front();
    } else {
      return false;
    }
    ++messages_;
    last_mb_ = out.mb;
    if (on_pick) on_pick(out);
    // Eq. 1's window: park forwards of *younger* microbatches while full.
    if (out.kind != Message::Kind::Forward || out.mb == admitted_mb() ||
        live_ < live_cap_) {
      return true;
    }
    deferred_.push_back(std::move(out));
  }
}

bool StageMachine::finished() const {
  return done_f_ == slices_due_ && done_b_ == slices_due_ &&
         done_vw_ == vocab_due_ && done_vg_ == vocab_due_;
}

std::string StageMachine::progress() const {
  const std::string due = std::to_string(slices_due_);
  return "f=" + std::to_string(done_f_) + "/" + due +
         " b=" + std::to_string(done_b_) + "/" + due +
         " live=" + std::to_string(live_) + " cap=" + std::to_string(live_cap_);
}

bool StageMachine::drained() const {
  for (const auto& chunk : chunk_layers_) {
    for (const num::Layer& layer : chunk) {
      if (layer.live_slices() != 0 || layer.cache_chunks() != 0) return false;
    }
  }
  return true;
}

std::size_t StageMachine::rank(int mb) const {
  const int r = mb >= 0 && mb < m_ ? rank_of_[static_cast<std::size_t>(mb)]
                                   : -1;
  SLIM_CHECK(r >= 0, "message for a microbatch outside the attempt");
  return static_cast<std::size_t>(r);
}

std::size_t StageMachine::slot(int mb, int slice) const {
  return rank(mb) * static_cast<std::size_t>(in_.n_slices) +
         static_cast<std::size_t>(slice);
}

StageCommit StageMachine::take_commit(int mb) {
  return std::move(staged_[rank(mb)]);
}

const StageCommit& StageMachine::commit(int mb) const {
  return staged_[rank(mb)];
}

float StageMachine::slice_weight(int mb, int slice) const {
  // Slice (mb, s) contributes len / (seq_mb * m) of the iteration loss.
  const core::SliceLayout& layout = layout_of(mb);
  return static_cast<float>(layout.len(slice)) /
         (static_cast<float>(layout.seq()) * static_cast<float>(m_));
}

std::vector<std::int64_t> StageMachine::slice_targets(int mb, int slice) const {
  const core::SliceLayout& layout = layout_of(mb);
  const auto& targets = (*in_.targets)[static_cast<std::size_t>(mb)];
  return std::vector<std::int64_t>(
      targets.begin() + layout.begin(slice),
      targets.begin() + layout.begin(slice) + layout.len(slice));
}

int StageMachine::run(Message msg, std::vector<Outgoing>& sends) {
  int retired = -1;
  StageCommit& staged = staged_[rank(msg.mb)];
  switch (msg.kind) {
    case Message::Kind::Forward:
      forward(msg, staged, sends);
      break;
    case Message::Kind::Backward:
      retired = backward(msg, staged, sends);
      break;
    case Message::Kind::VocabWork:
      vocab_work(msg, sends);
      break;
    case Message::Kind::VocabStats:
      vocab_stats(msg, staged, sends);
      break;
    case Message::Kind::VocabGlobal:
      vocab_global(msg, staged, sends);
      break;
    case Message::Kind::VocabDx:
      vocab_dx(msg, staged);
      break;
  }
  if (finished()) SLIM_CHECK(drained(), "stage leaked slices/chunks");
  return retired;
}

void StageMachine::forward(Message& msg, StageCommit& staged,
                           std::vector<Outgoing>& sends) {
  ++done_f_;
  ++live_;
  peak_live_ = std::max(peak_live_, live_);
  const core::SliceLayout& layout = layout_of(msg.mb);
  const std::int64_t pos = layout.begin(msg.slice);
  num::Tensor x;
  if (msg.stage == 0) {
    const std::int64_t slice_len = layout.len(msg.slice);
    const auto& ids = (*in_.tokens)[static_cast<std::size_t>(msg.mb)];
    x = num::Tensor(slice_len, model_.dims.hidden);
    for (std::int64_t r = 0; r < slice_len; ++r) {
      const std::int64_t id = ids[static_cast<std::size_t>(pos + r)];
      for (std::int64_t c = 0; c < model_.dims.hidden; ++c) {
        x.at(r, c) = model_.embedding.at(id, c);
      }
    }
  } else {
    x = std::move(msg.payload);
  }
  for (num::Layer& layer :
       chunk_layers_[static_cast<std::size_t>(msg.stage / p_)]) {
    x = layer.forward_slice(x, pos, msg.mb);
  }
  if (msg.stage + 1 < total_stages_) {
    sends.push_back({(msg.stage + 1) % p_,
                     {Message::Kind::Forward, msg.mb, msg.slice,
                      msg.stage + 1, std::move(x)}});
    return;
  }
  const num::Tensor hidden = num::rmsnorm(x, model_.final_norm);
  const std::size_t i = slot(msg.mb, msg.slice);
  if (in_.vocab_parallel) {
    // Phase 1: broadcast the hidden states to every shard.
    final_input_[i] = std::move(x);
    for (int s = 0; s < p_; ++s) {
      sends.push_back(
          {s, {Message::Kind::VocabWork, msg.mb, msg.slice, 0, hidden}});
    }
    return;
  }
  const float weight = slice_weight(msg.mb, msg.slice);
  const num::Tensor logits = num::matmul_nt(hidden, model_.embedding);
  num::CeResult ce =
      num::cross_entropy(logits, slice_targets(msg.mb, msg.slice));
  staged.loss += ce.loss * weight * static_cast<double>(m_);
  for (std::int64_t k = 0; k < ce.dlogits.size(); ++k) {
    ce.dlogits.data()[k] *= weight;
  }
  staged.head_shard.add_(num::matmul_tn(ce.dlogits, hidden));
  const num::Tensor dhidden = num::matmul(ce.dlogits, model_.embedding);
  head_grad_[i] =
      num::rmsnorm_bwd(x, model_.final_norm, dhidden, staged.final_norm);
  if (msg.slice == in_.n_slices - 1) {
    continuations_.push_back({Message::Kind::Backward, msg.mb, msg.slice,
                              total_stages_ - 1, {}});
  }
}

int StageMachine::backward(Message& msg, StageCommit& staged,
                           std::vector<Outgoing>& sends) {
  const bool head_edge = msg.stage == total_stages_ - 1;
  num::Tensor dx;
  if (head_edge) {
    // The head runs a microbatch's vocabulary rounds in slice order, every
    // shard answers in arrival order and transports are FIFO per sender,
    // so a slice's head gradient exists before its backward runs.
    num::Tensor& grad = head_grad_[slot(msg.mb, msg.slice)];
    SLIM_CHECK(!grad.empty(), "head-edge backward before its head gradient");
    dx = std::move(grad);
  } else {
    dx = std::move(msg.payload);
  }
  ++done_b_;
  --live_;
  const std::size_t r = rank(msg.mb);
  ++b_done_[r];
  auto& layers = chunk_layers_[static_cast<std::size_t>(msg.stage / p_)];
  const int clo =
      model_.stage_layers[static_cast<std::size_t>(msg.stage)].first;
  for (std::size_t k = layers.size(); k-- > 0;) {
    const int local =
        local_of_global_[static_cast<std::size_t>(clo) + k];
    dx = layers[k].backward_slice(
        dx, staged.layers[static_cast<std::size_t>(local)], msg.mb);
  }
  if (msg.stage > 0) {
    sends.push_back({(msg.stage - 1 + p_) % p_,
                     {Message::Kind::Backward, msg.mb, msg.slice,
                      msg.stage - 1, std::move(dx)}});
  } else {
    const core::SliceLayout& layout = layout_of(msg.mb);
    const std::int64_t pos = layout.begin(msg.slice);
    const auto& ids = (*in_.tokens)[static_cast<std::size_t>(msg.mb)];
    for (std::int64_t row = 0; row < layout.len(msg.slice); ++row) {
      const std::int64_t id = ids[static_cast<std::size_t>(pos + row)];
      for (std::int64_t c = 0; c < model_.dims.hidden; ++c) {
        staged.embed_in.at(id, c) += dx.at(row, c);
      }
    }
  }
  if (head_edge && msg.slice > 0) {
    continuations_.push_back({Message::Kind::Backward, msg.mb, msg.slice - 1,
                              total_stages_ - 1, {}});
  }
  if (b_done_[r] < in_.n_slices * model_.chunks_per_stage) return -1;
  // Retired on this stage: the staged gradients are final (commit point).
  staged.complete = true;
  ++committed_;
  return msg.mb;
}

void StageMachine::vocab_work(Message& msg, std::vector<Outgoing>& sends) {
  ++done_vw_;
  // Shard pass 1: local logits -> per-token scalar statistics.
  const std::int64_t slice_len = msg.payload.rows();
  const num::Tensor logits = num::matmul_nt(msg.payload, head_shard_);
  const num::CeShardStats st = num::ce_shard_stats(
      logits, shard_lo_, slice_targets(msg.mb, msg.slice));
  num::Tensor packed(3, slice_len);
  for (std::int64_t i = 0; i < slice_len; ++i) {
    packed.at(0, i) = st.max_logit[static_cast<std::size_t>(i)];
    packed.at(1, i) = st.sum_exp[static_cast<std::size_t>(i)];
    packed.at(2, i) = st.target_logit[static_cast<std::size_t>(i)];
  }
  shard_hidden_[slot(msg.mb, msg.slice)] = std::move(msg.payload);
  sends.push_back({head_thread_,
                   {Message::Kind::VocabStats, msg.mb, msg.slice, 0,
                    std::move(packed)}});
}

void StageMachine::vocab_stats(const Message& msg, StageCommit& staged,
                               std::vector<Outgoing>& sends) {
  // Head: synchronize the scalars across shards.
  const std::int64_t slice_len = msg.payload.cols();
  const std::size_t i = slot(msg.mb, msg.slice);
  num::CeShardStats& acc = stats_acc_[i];
  if (stats_seen_[i] == 0) {
    acc.max_logit.assign(static_cast<std::size_t>(slice_len),
                         -std::numeric_limits<float>::infinity());
    acc.sum_exp.assign(static_cast<std::size_t>(slice_len), 0.0f);
    acc.target_logit.assign(static_cast<std::size_t>(slice_len),
                            -std::numeric_limits<float>::infinity());
  }
  // Combine as running (max, rescaled sum).
  for (std::int64_t t = 0; t < slice_len; ++t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    const float sm = msg.payload.at(0, t);
    const float ss = msg.payload.at(1, t);
    const float stl = msg.payload.at(2, t);
    const float gmax = std::max(acc.max_logit[ti], sm);
    float gsum = 0.0f;
    if (acc.sum_exp[ti] > 0.0f) {
      gsum += acc.sum_exp[ti] * std::exp(acc.max_logit[ti] - gmax);
    }
    if (ss > 0.0f) gsum += ss * std::exp(sm - gmax);
    acc.max_logit[ti] = gmax;
    acc.sum_exp[ti] = gsum;
    acc.target_logit[ti] = std::max(acc.target_logit[ti], stl);
  }
  if (++stats_seen_[i] < p_) return;
  // Loss from the synchronized scalars; broadcast them back.
  double loss = 0.0;
  num::Tensor global(2, slice_len);
  for (std::int64_t t = 0; t < slice_len; ++t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    loss += std::log(acc.sum_exp[ti]) + acc.max_logit[ti] -
            acc.target_logit[ti];
    global.at(0, t) = acc.max_logit[ti];
    global.at(1, t) = acc.sum_exp[ti];
  }
  acc = {};
  staged.loss += loss / static_cast<double>(slice_len) *
                 slice_weight(msg.mb, msg.slice) * static_cast<double>(m_);
  for (int s = 0; s < p_; ++s) {
    sends.push_back(
        {s, {Message::Kind::VocabGlobal, msg.mb, msg.slice, 0, global}});
  }
}

void StageMachine::vocab_global(const Message& msg, StageCommit& staged,
                                std::vector<Outgoing>& sends) {
  ++done_vg_;
  // Shard pass 2: gradient of the shard's logits from the global
  // statistics; return the partial d(hidden).
  const std::int64_t slice_len = msg.payload.cols();
  const float weight = slice_weight(msg.mb, msg.slice);
  const num::Tensor hidden = std::move(shard_hidden_[slot(msg.mb, msg.slice)]);
  const num::Tensor logits = num::matmul_nt(hidden, head_shard_);
  const auto targets = slice_targets(msg.mb, msg.slice);
  num::Tensor dlogits(slice_len, shard_width_);
  for (std::int64_t t = 0; t < slice_len; ++t) {
    const float gmax = msg.payload.at(0, t);
    const float gsum = msg.payload.at(1, t);
    const std::int64_t y = targets[static_cast<std::size_t>(t)] - shard_lo_;
    for (std::int64_t col = 0; col < shard_width_; ++col) {
      const float prob = std::exp(logits.at(t, col) - gmax) / gsum;
      // Mean over the slice's tokens, then the slice's share of the
      // iteration mean — matching the monolithic head exactly.
      dlogits.at(t, col) = (prob - (col == y ? 1.0f : 0.0f)) *
                           (weight / static_cast<float>(slice_len));
    }
  }
  staged.head_shard.add_(num::matmul_tn(dlogits, hidden));
  sends.push_back({head_thread_,
                   {Message::Kind::VocabDx, msg.mb, msg.slice, 0,
                    num::matmul(dlogits, head_shard_)}});
}

void StageMachine::vocab_dx(Message& msg, StageCommit& staged) {
  // Head: reduce the shards' partial d(hidden).
  const std::size_t i = slot(msg.mb, msg.slice);
  if (dx_seen_[i] == 0) {
    dx_sum_[i] = std::move(msg.payload);
  } else {
    dx_sum_[i].add_(msg.payload);
  }
  if (++dx_seen_[i] == p_) {
    head_grad_[i] = num::rmsnorm_bwd(final_input_[i], model_.final_norm,
                                     dx_sum_[i], staged.final_norm);
    final_input_[i] = {};
    dx_sum_[i] = {};
    if (msg.slice == in_.n_slices - 1) {
      continuations_.push_back({Message::Kind::Backward, msg.mb,
                                msg.slice, total_stages_ - 1, {}});
    }
  }
}

}  // namespace slim::rt

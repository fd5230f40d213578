#include "src/runtime/stage_machine.hpp"

#include <algorithm>

#include "src/core/slice.hpp"
#include "src/core/slimpipe.hpp"
#include "src/numerics/cross_entropy.hpp"
#include "src/numerics/norm_act.hpp"
#include "src/util/logging.hpp"

namespace slim::rt {

std::vector<core::SliceLayout> resolve_layouts(
    const Batch& tokens, const Batch& targets, std::int64_t vocab,
    int n_slices, std::vector<core::SliceLayout> layouts) {
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
    for (std::size_t pos = 0; pos < tokens[mb].size(); ++pos) {
      const std::int64_t token = tokens[mb][pos], target = targets[mb][pos];
      SLIM_CHECK(token >= 0 && token < vocab && target >= 0 && target < vocab,
                 "microbatch " + std::to_string(mb) + " position " +
                     std::to_string(pos) + ": token id " +
                     std::to_string(token) + ", target id " +
                     std::to_string(target) + ", vocabulary [0, " +
                     std::to_string(vocab) + ")");
    }
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
    const std::int64_t width = model_.vocab / p_;
    shard_lo_ = stage_ * width;
    head_shard_ = model_.embedding.slice_rows(shard_lo_, shard_lo_ + width);
  }
  for (int r = 0; r < mk; ++r) {
    staged_.push_back(make_stage_commit(model_, stage_, in_.vocab_parallel));
  }

  const std::size_t slots = static_cast<std::size_t>(mk * n);
  const bool is_head = stage_ == head_thread_;
  head_grad_.resize(is_head ? slots : 0);
  if (is_head && in_.vocab_parallel) {
    final_input_.resize(slots);
    stats_parts_.assign(slots, std::vector<num::Tensor>(p_));
    dx_parts_.assign(slots, std::vector<num::Tensor>(p_));
    stats_seen_.assign(slots, 0);
    dx_seen_.assign(slots, 0);
  }
  if (in_.vocab_parallel) shard_hidden_.resize(slots);

  slices_due_ = mk * n * v;
  vocab_due_ = in_.vocab_parallel ? mk * n : 0;
  live_cap_ = core::slimpipe_warmup_units(p_, stage_, n, v);
  b_done_.assign(static_cast<std::size_t>(mk), 0);
  sched::PipelineSpec table;
  table.p = p_;
  table.v = v;
  table.n = n;
  table.m = mk;
  rows_ = core::slimpipe_programs(table)[static_cast<std::size_t>(stage_)];
}

void StageMachine::deliver(Message msg) {
  const Message::Kind kind = msg.kind;
  (kind == Message::Kind::Forward    ? forwards_
   : kind == Message::Kind::Backward ? backwards_
                                     : vocab_)
      .push_back(std::move(msg));
}

bool StageMachine::pick(Message& out,
                        const std::function<void(const Message&)>& on_pick) {
  if (!vocab_.empty()) {
    out = std::move(vocab_.front());
    vocab_.pop_front();
  } else {
    if (next_row_ == rows_.size()) return false;
    const sched::Pass& row = rows_[next_row_];
    const bool fwd = row.type == sched::PassType::Forward;
    const Message::Kind kind =
        fwd ? Message::Kind::Forward : Message::Kind::Backward;
    const int mb = mbs_[static_cast<std::size_t>(row.microbatch)];
    const int at_stage = row.chunk * p_ + stage_;
    if (fwd ? at_stage == 0 : at_stage == total_stages_ - 1) {
      // Stage 0 embeds its own tokens; the head edge starts from the
      // slice's head gradient, which vocabulary rounds complete later.
      if (!fwd && head_grad_[slot(mb, row.slice)].empty()) return false;
      out = {kind, mb, row.slice, at_stage, {}};
    } else {
      std::deque<Message>& fifo = fwd ? forwards_ : backwards_;
      if (fifo.empty()) return false;
      const Message& front = fifo.front();
      SLIM_CHECK(front.mb == mb && front.slice == row.slice &&
                     front.stage == at_stage,
                 "stage " + std::to_string(stage_) +
                     ": arrival out of table order: row " +
                     std::to_string(next_row_) + " wants " +
                     message_kind_name(kind) + " mb" + std::to_string(mb) +
                     " s" + std::to_string(row.slice));
      out = std::move(fifo.front());
      fifo.pop_front();
    }
    ++next_row_;
  }
  ++messages_;
  last_mb_ = out.mb;
  if (on_pick) on_pick(out);
  return true;
}

int StageMachine::waits_on() const {
  if (next_row_ == rows_.size()) return -1;
  const sched::Pass& row = rows_[next_row_];
  const int at_stage = row.chunk * p_ + stage_;
  if (row.type == sched::PassType::Forward) {
    return at_stage == 0 ? -1 : (at_stage - 1) % p_;
  }
  return at_stage == total_stages_ - 1 ? -1 : (at_stage + 1) % p_;
}

bool StageMachine::finished() const {
  return done_f_ == slices_due_ && done_b_ == slices_due_ &&
         done_vw_ == vocab_due_ && done_vg_ == vocab_due_;
}

bool StageMachine::drained() const {
  for (const auto& chunk : chunk_layers_) {
    for (const num::Layer& layer : chunk) {
      if (layer.live_slices() != 0) return false;
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

std::span<const std::int64_t> StageMachine::slice_tokens(int mb,
                                                        int slice) const {
  const core::SliceLayout& layout = layout_of(mb);
  return std::span<const std::int64_t>(
             (*in_.tokens)[static_cast<std::size_t>(mb)])
      .subspan(static_cast<std::size_t>(layout.begin(slice)),
               static_cast<std::size_t>(layout.len(slice)));
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
  const std::int64_t pos = layout_of(msg.mb).begin(msg.slice);
  num::Tensor x =
      msg.stage == 0
          ? num::embed(model_.embedding, slice_tokens(msg.mb, msg.slice))
          : std::move(msg.payload);
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
}

int StageMachine::backward(Message& msg, StageCommit& staged,
                           std::vector<Outgoing>& sends) {
  const bool head_edge = msg.stage == total_stages_ - 1;
  // pick() only hands out a head-edge backward once its gradient exists.
  num::Tensor dx = head_edge
                       ? std::move(head_grad_[slot(msg.mb, msg.slice)])
                       : std::move(msg.payload);
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
    num::embed_bwd(slice_tokens(msg.mb, msg.slice), dx, staged.embed_in);
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
  num::Tensor stats =
      num::ce_shard_stats(num::matmul_nt(msg.payload, head_shard_), shard_lo_,
                          slice_targets(msg.mb, msg.slice));
  shard_hidden_[slot(msg.mb, msg.slice)] = std::move(msg.payload);
  sends.push_back({head_thread_,
                   {Message::Kind::VocabStats, msg.mb, msg.slice, stage_,
                    std::move(stats)}});
}

void StageMachine::vocab_stats(Message& msg, StageCommit& staged,
                               std::vector<Outgoing>& sends) {
  // Head: synchronize the scalars across shards once all p arrived, in
  // shard order; the loss comes from the synchronized scalars, which are
  // broadcast back.
  const std::size_t i = slot(msg.mb, msg.slice);
  std::vector<num::Tensor>& parts = stats_parts_[i];
  parts[static_cast<std::size_t>(msg.stage)] = std::move(msg.payload);
  if (++stats_seen_[i] < p_) return;
  const num::CeFold fold = num::ce_fold(parts);
  parts.assign(parts.size(), {});
  staged.loss +=
      fold.loss * slice_weight(msg.mb, msg.slice) * static_cast<double>(m_);
  for (int s = 0; s < p_; ++s) {
    sends.push_back(
        {s, {Message::Kind::VocabGlobal, msg.mb, msg.slice, 0, fold.global}});
  }
}

void StageMachine::vocab_global(const Message& msg, StageCommit& staged,
                                std::vector<Outgoing>& sends) {
  ++done_vg_;
  // Shard pass 2: gradient of the shard's logits from the global
  // statistics; return the partial d(hidden).
  const num::Tensor hidden = std::move(shard_hidden_[slot(msg.mb, msg.slice)]);
  // Mean over the slice's tokens, then the slice's share of the iteration
  // mean.
  const num::Tensor dlogits = num::ce_shard_grad(
      num::matmul_nt(hidden, head_shard_), shard_lo_,
      slice_targets(msg.mb, msg.slice), msg.payload,
      slice_weight(msg.mb, msg.slice) / static_cast<float>(hidden.rows()));
  staged.head_shard.add_(num::matmul_tn(dlogits, hidden));
  sends.push_back({head_thread_,
                   {Message::Kind::VocabDx, msg.mb, msg.slice, stage_,
                    num::matmul(dlogits, head_shard_)}});
}

void StageMachine::vocab_dx(Message& msg, StageCommit& staged) {
  // Head: reduce the shards' partial d(hidden) in shard order once all p
  // arrived.
  const std::size_t i = slot(msg.mb, msg.slice);
  std::vector<num::Tensor>& parts = dx_parts_[i];
  parts[static_cast<std::size_t>(msg.stage)] = std::move(msg.payload);
  if (++dx_seen_[i] < p_) return;
  num::Tensor dx = std::move(parts[0]);
  for (int s = 1; s < p_; ++s) dx.add_(parts[static_cast<std::size_t>(s)]);
  head_grad_[i] = num::rmsnorm_bwd(final_input_[i], model_.final_norm, dx,
                                   staged.final_norm);
  final_input_[i] = {};
  parts.assign(parts.size(), {});
}

}  // namespace slim::rt

#include "src/runtime/commit.hpp"

#include <algorithm>

#include "src/util/logging.hpp"

namespace slim::rt {

namespace {

/// Rows of the output head stage `stage` holds (0: none).
std::int64_t head_rows(const PipelineModel& model, int stage,
                       bool vocab_parallel) {
  if (vocab_parallel) return model.vocab / model.stages;
  return stage == model.head_stage() ? model.vocab : 0;
}

}  // namespace

StageCommit make_stage_commit(const PipelineModel& model, int stage,
                              bool vocab_parallel) {
  StageCommit commit;
  const std::size_t n_owned =
      model.owned_layers()[static_cast<std::size_t>(stage)].size();
  commit.layers.assign(n_owned, num::LayerGrads::zeros(model.dims));
  if (stage == 0) {
    commit.embed_in = num::Tensor(model.vocab, model.dims.hidden);
  }
  if (const std::int64_t rows = head_rows(model, stage, vocab_parallel)) {
    commit.head_shard = num::Tensor(rows, model.dims.hidden);
  }
  if (stage == model.head_stage()) {
    commit.final_norm = num::Tensor(1, model.dims.hidden);
  }
  return commit;
}

CommitLedger::CommitLedger(const PipelineModel& model, int microbatches,
                           bool vocab_parallel)
    : model_(&model),
      microbatches_(microbatches),
      vocab_parallel_(vocab_parallel),
      owned_(model.owned_layers()),
      slots_(static_cast<std::size_t>(model.stages) *
             static_cast<std::size_t>(microbatches)),
      merged_(static_cast<std::size_t>(microbatches), false) {
  SLIM_CHECK(microbatches >= 1, "ledger without microbatches");
  grads_.embedding = num::Tensor(model.vocab, model.dims.hidden);
  grads_.layers.assign(static_cast<std::size_t>(model.layers_total),
                       num::LayerGrads::zeros(model.dims));
  grads_.final_norm = num::Tensor(1, model.dims.hidden);
  for (int s = 0; s < model.stages; ++s) {
    const std::int64_t rows = head_rows(model, s, vocab_parallel);
    head_shards_.push_back(rows > 0 ? num::Tensor(rows, model.dims.hidden)
                                    : num::Tensor());
  }
}

void CommitLedger::prepare(int stage, int mb) { slot(stage, mb) = {}; }

StageCommit& CommitLedger::slot(int stage, int mb) {
  SLIM_CHECK(stage >= 0 && stage < model_->stages && mb >= 0 &&
                 mb < microbatches_,
             "commit slot out of range");
  return slots_[static_cast<std::size_t>(stage) *
                    static_cast<std::size_t>(microbatches_) +
                static_cast<std::size_t>(mb)];
}

const StageCommit& CommitLedger::slot(int stage, int mb) const {
  return const_cast<CommitLedger*>(this)->slot(stage, mb);
}

bool CommitLedger::fully_committed(int mb) const {
  for (int s = 0; s < model_->stages; ++s) {
    if (!slot(s, mb).complete) return false;
  }
  return true;
}

std::vector<int> CommitLedger::uncommitted() const {
  std::vector<int> out;
  for (int mb = 0; mb < microbatches_; ++mb) {
    if (!fully_committed(mb)) out.push_back(mb);
  }
  return out;
}

void CommitLedger::merge_committed() {
  for (int mb = 0; mb < microbatches_; ++mb) {
    if (merged_[static_cast<std::size_t>(mb)] || !fully_committed(mb)) {
      continue;
    }
    merged_[static_cast<std::size_t>(mb)] = true;
    for (int s = 0; s < model_->stages; ++s) {
      const StageCommit& commit = slot(s, mb);
      const std::vector<int>& owned = owned_[static_cast<std::size_t>(s)];
      SLIM_CHECK(commit.layers.size() == owned.size(),
                 "commit slot layer count mismatch");
      for (std::size_t i = 0; i < owned.size(); ++i) {
        grads_.layers[static_cast<std::size_t>(owned[i])].add_(
            commit.layers[i]);
      }
      if (commit.embed_in.size() > 0) grads_.embedding.add_(commit.embed_in);
      if (commit.head_shard.size() > 0) {
        head_shards_[static_cast<std::size_t>(s)].add_(commit.head_shard);
      }
      if (commit.final_norm.size() > 0) {
        grads_.final_norm.add_(commit.final_norm);
      }
      loss_sum_ += commit.loss;
    }
  }
}

int CommitLedger::merged() const {
  return static_cast<int>(std::count(merged_.begin(), merged_.end(), true));
}

void CommitLedger::finish(double& loss, num::TinyModel::Grads& grads) {
  if (vocab_parallel_) {
    const std::int64_t width = model_->vocab / model_->stages;
    for (int s = 0; s < model_->stages; ++s) {
      num::Tensor rows =
          grads_.embedding.slice_rows(s * width, (s + 1) * width);
      rows.add_(head_shards_[static_cast<std::size_t>(s)]);
      grads_.embedding.assign_rows(s * width, rows);
    }
  } else {
    grads_.embedding.add_(
        head_shards_[static_cast<std::size_t>(model_->head_stage())]);
  }
  loss = loss_sum_ / static_cast<double>(microbatches_);
  grads = std::move(grads_);
}

}  // namespace slim::rt

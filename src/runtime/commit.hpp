#pragma once

// The staged per-microbatch gradient-commit protocol, shared by the
// threaded and multi-process pipeline backends.
//
// Every (stage, microbatch) pair stages its gradient contributions into a
// private StageCommit while the microbatch is in flight (owned by the
// stage's rt::StageMachine); the slot becomes `complete` exactly when the
// microbatch retires on that stage (all of its backward slices finished).
// A microbatch's work enters the iteration result only once it retired on
// EVERY stage — a crash mid-iteration therefore discards precisely the
// partial work, and replaying the uncommitted microbatches on respawned
// workers reproduces the fault-free gradients bit for bit (per-microbatch
// contributions are deterministic and the merge runs in a fixed
// stage-major order on one thread).
//
// At retirement the threaded backend moves the machine's slot into the
// ledger; a multi-process worker ships it to the supervisor in a Commit
// frame — at-most-once semantics fall out of the frame being sent only at
// retirement and the supervisor overwriting the slot wholesale (a torn
// frame from a killed worker is detected by its CRC and discarded, leaving
// the slot incomplete, i.e. scheduled for replay).

#include <cstdint>
#include <vector>

#include "src/runtime/pipeline_model.hpp"

namespace slim::rt {

/// Staged contribution of one (stage, microbatch) pair. Field presence
/// follows the stage's role: embed_in only on stage 0, final_norm only on
/// the head stage, head_shard on the head stage (or on every stage under
/// vocabulary parallelism).
struct StageCommit {
  std::vector<num::LayerGrads> layers;  // indexed like owned_layers[stage]
  num::Tensor embed_in;                 // input-side embedding grads
  num::Tensor head_shard;               // output-head shard grads
  num::Tensor final_norm;               // final-norm grads
  double loss = 0.0;
  bool complete = false;
};

/// Freshly zeroed staging buffers for one (stage, microbatch) slot.
StageCommit make_stage_commit(const PipelineModel& model, int stage,
                              bool vocab_parallel);

/// All (stage, microbatch) commit slots of one iteration plus the
/// iteration's gradient accumulators. Slot writers are exclusive per
/// (stage, mb): threaded workers move their stage's retired slots in; the
/// multi-process supervisor deserializes received Commit frames into them.
/// The merge and the committed/uncommitted queries run single-threaded
/// after workers quiesced (join / waitpid is the synchronization point).
class CommitLedger {
 public:
  CommitLedger(const PipelineModel& model, int microbatches,
               bool vocab_parallel);

  /// Empties the slot (incomplete, no buffers) — called for every
  /// participating (stage, mb) at the start of an attempt, so a replay
  /// discards the failed attempt's partial work.
  void prepare(int stage, int mb);

  StageCommit& slot(int stage, int mb);
  const StageCommit& slot(int stage, int mb) const;

  /// True when the microbatch retired on every stage.
  bool fully_committed(int mb) const;

  /// Ascending microbatch ids not yet fully committed.
  std::vector<int> uncommitted() const;

  /// Merges every microbatch that newly retired on every stage, ascending,
  /// each in the fixed stage-major order both backends share: for each
  /// stage ascending — owned layer grads, embed_in, head_shard (into that
  /// stage's shard accumulator), final_norm, loss.
  void merge_committed();

  /// Microbatches merged so far.
  int merged() const;

  /// The iteration result: head shards folded into the embedding gradient
  /// and the loss averaged over microbatches.
  void finish(double& loss, num::TinyModel::Grads& grads);

 private:
  const PipelineModel* model_ = nullptr;
  int microbatches_ = 0;
  bool vocab_parallel_ = false;
  std::vector<std::vector<int>> owned_;
  std::vector<StageCommit> slots_;  // stage-major: [stage * m + mb]
  std::vector<bool> merged_;
  num::TinyModel::Grads grads_;
  std::vector<num::Tensor> head_shards_;  // per stage (empty: no head rows)
  double loss_sum_ = 0.0;
};

}  // namespace slim::rt

#pragma once

// One pipeline stage's SlimPipe discipline (§4.1.2) as a transport-free
// state machine: no threads, sockets or clocks.
//
// A driver moves the machine's messages — the threaded runtime over
// Channels (pipeline_runtime.cpp), the multi-process runtime over its data
// sockets (src/dist/stage_worker.cpp), the unit tests over plain queues —
// and the machine decides everything else:
//
//  * order: its device's rows of the SlimPipe table (core::slimpipe_programs,
//    the rows the simulator executes), in table order. A row is ready when
//    its input is present: a stage-0 forward embeds its own tokens, a
//    head-edge backward needs the slice's head gradient, any other row
//    needs the front of its kind's arrival FIFO. Each kind has one sending
//    device and the verifier certifies FIFO receives, so any other front
//    is an error ("arrival out of table order"). Vocabulary messages (§4.3)
//    wait on no row and run first. The live-slice peak is the table's:
//    Eq. 1's min(n*v + 2(p-1-r), m*n*v);
//  * the numerics of every message kind: slice forwards appending one KV
//    chunk, slice backwards popping exactly that chunk, the loss head and
//    the four vocabulary-parallel rounds;
//  * per-microbatch staged gradients, complete exactly when the
//    microbatch's last backward slice ran on this stage (retirement).
//
// Every row and every vocabulary message is counted once when picked and
// shown to the driver's `on_pick` (the fault hooks key on that count).
// Each microbatch owns its accumulators and its slice order is fixed by the
// table, so the staged gradients do not depend on how the transport
// interleaves neighbours — which is what makes both runtimes bit-identical.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/core/slice_layout.hpp"
#include "src/numerics/arena.hpp"
#include "src/runtime/commit.hpp"
#include "src/runtime/pipeline_model.hpp"
#include "src/sched/schedule.hpp"

namespace slim::rt {

using Batch = std::vector<std::vector<std::int64_t>>;

/// Per-microbatch slice boundaries for an iteration: `layouts` as given, or
/// (when empty) a token-uniform layout per microbatch with the remainder on
/// the first slices — seq % n_slices != 0 and ragged microbatches both
/// train on every token. Checks that every layout has n_slices slices
/// covering its microbatch and that tokens and targets line up.
std::vector<core::SliceLayout> resolve_layouts(
    const Batch& tokens, const Batch& targets, int n_slices,
    std::vector<core::SliceLayout> layouts);

/// The iteration's read-only inputs, shared by every stage machine.
struct StageInputs {
  const PipelineModel* model = nullptr;
  const Batch* tokens = nullptr;
  const Batch* targets = nullptr;
  const std::vector<core::SliceLayout>* layouts = nullptr;  // per microbatch
  int n_slices = 1;
  bool vocab_parallel = false;
};

struct Message {
  enum class Kind {
    Forward,
    Backward,
    VocabWork,    // broadcast hidden states -> every shard   (head -> all)
    VocabStats,   // per-token (max, sumexp, target) scalars  (shard -> head)
    VocabGlobal,  // synchronized (max, sumexp) scalars       (head -> all)
    VocabDx,      // partial d(hidden) of one shard           (shard -> head)
  } kind = Kind::Forward;
  int mb = 0;
  int slice = 0;
  /// Global stage index (interleaving routes by it); the sending shard for
  /// VocabStats and VocabDx.
  int stage = 0;
  num::Tensor payload;  // activation / gradient / packed scalars
};

const char* message_kind_name(Message::Kind kind);

/// A message the machine hands to its driver for stage `dst`.
struct Outgoing {
  int dst = 0;
  Message msg;
};

class StageMachine {
 public:
  /// Stage `stage` of an attempt over `mbs` (ascending iteration microbatch
  /// ids): its layers are built from the model's weights with arenas
  /// reporting into `arena`, its staging slots are zeroed, and its rows are
  /// device `stage`'s program of the attempt's SlimPipe table (m =
  /// mbs.size(); row microbatch k is mbs[k]).
  StageMachine(const StageInputs& inputs, int stage, std::vector<int> mbs,
               num::ArenaStats* arena);

  /// Queues a message from the transport on its kind's FIFO.
  void deliver(Message msg);

  /// Takes the next message to run: a queued vocabulary message first, else
  /// the next table row once its input is present. What it takes is
  /// counted and shown to `on_pick` (the driver's fault hooks). Returns
  /// false when nothing can run until the driver delivers more; throws
  /// when a row's FIFO front is another row's message.
  bool pick(Message& out, const std::function<void(const Message&)>& on_pick);

  /// Runs a picked message, appending what it sends to `sends`. Returns the
  /// microbatch it retired on this stage, else -1.
  int run(Message msg, std::vector<Outgoing>& sends);

  /// True once every forward, backward and vocabulary round ran.
  bool finished() const;
  /// True when no layer holds a live slice or KV chunk.
  bool drained() const;

  /// A retired microbatch's staged gradients: the threaded driver moves
  /// them into the ledger, the worker ships them in a Commit frame.
  StageCommit take_commit(int mb);
  const StageCommit& commit(int mb) const;

  // Progress, for status tables, heartbeats and metrics.
  std::int64_t messages() const { return messages_; }
  int last_mb() const { return last_mb_; }
  int forwards_done() const { return done_f_; }
  int backwards_done() const { return done_b_; }
  int live() const { return live_; }
  int peak_live() const { return peak_live_; }
  int live_cap() const { return live_cap_; }
  int queued() const {
    return static_cast<int>(forwards_.size() + backwards_.size() +
                            vocab_.size());
  }
  int committed() const { return committed_; }
  /// "f=3/8 b=1/8 live=2 cap=4": the line starvation reports carry.
  std::string progress() const;

 private:
  const core::SliceLayout& layout_of(int mb) const {
    return (*in_.layouts)[static_cast<std::size_t>(mb)];
  }
  std::size_t rank(int mb) const;
  std::size_t slot(int mb, int slice) const;
  float slice_weight(int mb, int slice) const;
  std::vector<std::int64_t> slice_targets(int mb, int slice) const;
  void forward(Message& msg, StageCommit& staged,
               std::vector<Outgoing>& sends);
  int backward(Message& msg, StageCommit& staged,
               std::vector<Outgoing>& sends);
  void vocab_work(Message& msg, std::vector<Outgoing>& sends);
  void vocab_stats(Message& msg, StageCommit& staged,
                   std::vector<Outgoing>& sends);
  void vocab_global(const Message& msg, StageCommit& staged,
                    std::vector<Outgoing>& sends);
  void vocab_dx(Message& msg, StageCommit& staged);

  StageInputs in_;
  const PipelineModel& model_;
  int stage_ = 0;
  int p_ = 1;
  int total_stages_ = 1;
  int head_thread_ = 0;
  int m_ = 1;  // iteration microbatches (slice weights use the full count)
  std::vector<int> mbs_;
  std::vector<int> rank_of_;  // iteration mb -> rank in mbs_, -1 outside

  // This stage owns global stages stage, p+stage, 2p+stage, ...
  std::vector<std::vector<num::Layer>> chunk_layers_;
  std::vector<int> local_of_global_;  // global layer id -> staging index
  std::int64_t shard_lo_ = 0;
  std::int64_t shard_width_ = 0;
  num::Tensor head_shard_;  // output-head rows (vocabulary parallel only)

  std::vector<StageCommit> staged_;  // per rank

  // Per-(rank, slice) state.
  std::vector<num::Tensor> head_grad_;    // head: d(final hidden input)
  std::vector<num::Tensor> final_input_;  // head: stashed until VocabDx
  // Head: each shard's VocabStats / VocabDx payload, indexed by shard and
  // folded in shard order once all p arrived, so the reduction does not
  // depend on arrival order.
  std::vector<std::vector<num::Tensor>> stats_parts_, dx_parts_;
  std::vector<int> stats_seen_, dx_seen_;
  std::vector<num::Tensor> shard_hidden_;  // shard: between the two rounds

  sched::DeviceProgram rows_;  // this device's table rows, in order
  std::size_t next_row_ = 0;
  std::deque<Message> forwards_, backwards_, vocab_;  // arrival FIFOs

  int slices_due_ = 0;  // forward (= backward) slices this stage runs
  int vocab_due_ = 0;  // VocabWork (= VocabGlobal) rounds this stage runs
  int done_f_ = 0, done_b_ = 0, done_vw_ = 0, done_vg_ = 0;
  int live_ = 0, peak_live_ = 0, live_cap_ = 0;
  std::vector<int> b_done_;  // per rank
  std::int64_t messages_ = 0;
  int last_mb_ = -1;
  int committed_ = 0;
};

}  // namespace slim::rt

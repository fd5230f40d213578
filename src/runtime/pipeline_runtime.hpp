#pragma once

// A working, multi-threaded SlimPipe runtime at miniature scale.
//
// Each pipeline stage is a worker thread owning a contiguous block of real
// transformer layers (src/numerics). Activation slices flow downstream
// through message channels, gradient slices flow back upstream. The
// threads are thin drivers: every stage decision — the Eq. 1 live-slice
// window, oldest-microbatch admission, LIFO backward continuations, the
// per-message numerics and commit at retirement (§4.1.2) — is made by the
// stage's rt::StageMachine (stage_machine.hpp), which the multi-process
// backend (src/dist) drives over sockets instead. A driver delivers
// arrivals, routes the machine's sends over Channels, applies fault
// hooks, moves retired slots into the CommitLedger and records probes and
// trace spans.
//
// The runtime's gradients match single-threaded monolithic execution up to
// float accumulation order, and the multi-process backend's bit for bit —
// a functional proof of the whole scheme, concurrency included.

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/slice_layout.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/numerics/transformer_block.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/channel.hpp"
#include "src/runtime/commit.hpp"
#include "src/runtime/pipeline_model.hpp"
#include "src/util/rng.hpp"

namespace slim::rt {

/// Default for RunOptions::starvation_timeout: SLIMPIPE_STARVATION_TIMEOUT_MS
/// when set to a positive integer, else 30 s. Sanitizer-slowed CI runs
/// raise it via the env so legitimate long waits don't trip the watchdog.
std::chrono::milliseconds default_starvation_timeout();

struct PipelineStats {
  /// Peak simultaneously-live slices per stage (the Eq. 1 quantity in
  /// slice units).
  std::vector<int> peak_live_slices;
  /// Activation/gradient messages exchanged per stage boundary.
  std::vector<std::int64_t> messages;
  /// Microbatches replayed after a stage respawn (empty when fault-free).
  std::vector<int> replayed_microbatches;

  /// Per-stage observability breakdown — the same shape the simulator
  /// attaches to sched::ScheduleResult, filled from cheap always-on probes
  /// (wall-clock busy/blocked time, cross-stage message counts, channel
  /// high-water marks). The consistency tests assert the discrete fields
  /// match the simulator for the same schedule.
  obs::RunMetrics metrics;
};

/// Structured pipeline failure: what happened, on which stage, and the
/// per-stage blocked-on table at the moment of failure. Every worker
/// exception — injected faults, invariant violations, starvation — is
/// captured, converted into one of these and rethrown from the parent
/// thread after all workers joined; no failure path reaches
/// std::terminate.
class PipelineError : public std::runtime_error {
 public:
  PipelineError(const std::string& what, fault::FaultReport report)
      : std::runtime_error(what), report_(std::move(report)) {}

  const fault::FaultReport& report() const { return report_; }

 private:
  fault::FaultReport report_;
};

/// Knobs of one threaded-runtime iteration.
struct RunOptions {
  int n_slices = 1;
  bool vocab_parallel = false;
  /// Per-microbatch slice boundaries (one layout per microbatch, each with
  /// n_slices slices summing to that microbatch's token count). Empty
  /// derives a token-uniform layout per microbatch, remainder to the first
  /// slices — seq % n_slices != 0 and per-microbatch sequence lengths are
  /// both legal and every token is trained on.
  std::vector<core::SliceLayout> layouts;
  /// Starvation probe: a stage blocked in receive for this long collects
  /// the per-stage blocked-on table and fails the iteration (the
  /// watchdog). Short values let fault tests probe deadlocks quickly.
  std::chrono::milliseconds starvation_timeout = default_starvation_timeout();
  /// Runtime-substrate faults to inject (stage crashes/hangs, delays).
  const fault::FaultPlan* faults = nullptr;
  /// After an injected stage crash: respawn the stage from the parameter
  /// snapshot and replay the unretired microbatches instead of failing.
  bool recover = false;
  /// Filled with the injected/observed fault events when set.
  fault::FaultReport* report = nullptr;
  /// Optional tracing sink. When set, every slice forward/backward, vocab
  /// shard pass, cross-stage send/recv and gradient commit records a span
  /// or flow on the recorder (stage s = track s); fault events become
  /// instant markers. Null (the default) skips all recording — the hot
  /// path only pays a pointer test.
  obs::Recorder* recorder = nullptr;
  /// Per-stage cap on numerics-kernel threads (util::ScopedKernelThreads).
  /// Stage workers run concurrently, so letting each one fan out to the
  /// full pool oversubscribes the machine; 0 (the default) divides the
  /// pool's width evenly across stages (at least 1 — i.e. kernels run
  /// serially inside each stage when stages >= pool width). Any positive
  /// value is used as-is. Results are bit-identical either way — the cap
  /// only affects how many workers help, never chunk boundaries.
  int kernel_threads = 0;
};

/// Lifecycle of one stage worker, thread or process: the state column of
/// the blocked-on tables (process workers also carry it in heartbeats).
enum class StageState : int {
  Running = 0,
  Waiting,  // blocked in receive
  Done,
  Starved,  // a process worker's starvation watchdog fired
  Hung,     // injected hang: parked
  Crashed,  // a worker thread threw
  Aborted,  // a worker thread unwound by channel poisoning
};

const char* stage_state_name(StageState state);

/// Tied-embedding transformer split across `stages` worker threads.
class ThreadedPipeline {
 public:
  /// Builds a model with `layers_total` layers split as evenly as possible
  /// across `stages * chunks_per_stage` stage chunks (earlier chunks take
  /// the remainder). `chunks_per_stage > 1` gives the interleaved form of
  /// Figure 5: thread r owns global stages r, p+r, 2p+r, ...
  ThreadedPipeline(num::BlockDims dims, std::int64_t vocab, int layers_total,
                   int stages, Rng& rng, int chunks_per_stage = 1);

  struct Result {
    double loss = 0.0;
    num::TinyModel::Grads grads;  // flattened: embedding, all layers, norm
    PipelineStats stats;
  };

  /// One training iteration over `microbatches` sequences, each uniformly
  /// split into `n_slices`. Spawns one thread per stage; returns the mean
  /// loss and accumulated gradients.
  ///
  /// With `vocab_parallel` the output head is sharded row-wise across the
  /// stage threads (paper §4.3): the last stage broadcasts each slice's
  /// final hidden states, every stage computes its shard's logits and
  /// contributes per-token (max, sum-exp, target-logit) statistics, the
  /// last stage synchronizes the scalars and broadcasts them back, and the
  /// shards return partial hidden-state gradients — only O(tokens) scalars
  /// and O(tokens x hidden) activations travel, never O(vocab) logits.
  Result run_iteration(const std::vector<std::vector<std::int64_t>>& tokens,
                       const std::vector<std::vector<std::int64_t>>& targets,
                       int n_slices, bool vocab_parallel = false);

  /// Full-option form: starvation watchdog, fault injection and
  /// crash-recovery (respawn + replay of unretired microbatches). Worker
  /// gradients are staged per microbatch and committed at microbatch
  /// retirement, so a mid-iteration crash discards only partial work and
  /// the recovered gradients still match run_reference.
  Result run_iteration(const std::vector<std::vector<std::int64_t>>& tokens,
                       const std::vector<std::vector<std::int64_t>>& targets,
                       const RunOptions& options);

  /// Reference: the same parameters executed monolithically on one thread
  /// (for equivalence checks).
  Result run_reference(const std::vector<std::vector<std::int64_t>>& tokens,
                       const std::vector<std::vector<std::int64_t>>& targets);

  int stages() const { return model_.stages; }
  int chunks_per_stage() const { return model_.chunks_per_stage; }
  std::int64_t layers_total() const { return model_.layers_total; }

  /// The shared model split (weights + stage layout) this pipeline runs —
  /// the multi-process backend builds its own PipelineModel the same way,
  /// so equal seeds give bit-identical parameters across backends.
  const PipelineModel& model() const { return model_; }

 private:
  PipelineModel model_;
};

}  // namespace slim::rt

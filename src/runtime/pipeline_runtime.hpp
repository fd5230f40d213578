#pragma once

// A working, multi-threaded SlimPipe runtime at miniature scale.
//
// Each pipeline stage is a worker thread owning a contiguous block of real
// transformer layers (src/numerics). Activation slices flow downstream
// through message channels, gradient slices flow back upstream. Each
// thread runs rt::drive_stage (stage_driver.hpp) over its stage's
// rt::StageMachine (stage_machine.hpp), which runs its device's rows of the
// simulator's SlimPipe table in order, with the per-message numerics and
// commit at retirement (§4.1.2); the multi-process backend (src/dist)
// drives the same machine with the same loop over sockets, and both recover
// through one replay loop (replay.hpp). This runtime supplies only one
// attempt: a Channel link per stage — arrivals, sends, retired slots into
// the CommitLedger — a thread per stage, and the shutdown protocol.
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
#include "src/runtime/commit.hpp"
#include "src/runtime/pipeline_model.hpp"
#include "src/util/rng.hpp"

namespace slim::rt {

/// Default for RunOptions::starvation_timeout: SLIMPIPE_STARVATION_TIMEOUT_MS
/// when set to a positive integer, else 30 s. Sanitizer-slowed CI runs
/// raise it via the env so legitimate long waits don't trip the watchdog.
std::chrono::milliseconds default_starvation_timeout();

/// Structured pipeline failure: what happened, on which stage, and the
/// per-stage blocked-on table at the end of the failed attempt. Every
/// worker failure — injected faults, invariant violations, starvation — is
/// captured and, once the replay loop (replay.hpp) gives up on it, thrown
/// from the parent after all workers joined; no failure path reaches
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
  /// After any failed attempt (an injected crash or hang, the watchdog, a
  /// worker exception): respawn the pipeline from the parameter snapshot
  /// and replay the unretired microbatches instead of failing, under the
  /// replay loop's respawn budget and backoff (replay.hpp).
  bool recover = false;
  /// Appended to with the injected/observed fault events, whether the
  /// iteration succeeds or throws.
  fault::FaultReport* report = nullptr;
  /// Optional tracing sink. When set, every slice forward/backward, vocab
  /// shard pass, cross-stage send/recv and gradient commit records a span
  /// or flow on the recorder (stage s = track s); fault events become
  /// instant markers. Null (the default) skips all recording — the hot
  /// path only pays a pointer test.
  obs::Recorder* recorder = nullptr;
};

/// Tied-embedding transformer split across `stages` worker threads.
class ThreadedPipeline {
 public:
  /// Builds a model with `layers_total` layers split as evenly as possible
  /// across `stages * chunks_per_stage` stage chunks (earlier chunks take
  /// the remainder). `chunks_per_stage > 1` gives the interleaved form of
  /// Figure 5: thread r owns global stages r, p+r, 2p+r, ...
  ThreadedPipeline(num::BlockDims dims, std::int64_t vocab, int layers_total,
                   int stages, Rng& rng, int chunks_per_stage = 1);

  using Result = PipelineResult;

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

  /// Full-option form: starvation watchdog, fault injection and recovery
  /// (respawn + replay of unretired microbatches). Worker gradients are
  /// staged per microbatch and committed at microbatch retirement, so a
  /// failed attempt discards only partial work and the recovered gradients
  /// still match run_reference.
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

#pragma once

// The immutable per-iteration model state shared by every pipeline backend,
// and the result shape every backend returns.
//
// Both the threaded runtime (one worker thread per stage) and the
// multi-process runtime (src/dist: one forked worker process per stage)
// execute the same model split: a tied-embedding transformer whose layers
// are divided into contiguous blocks over `stages * chunks_per_stage`
// global stage chunks. Factoring the weights + split out of
// ThreadedPipeline lets a forked stage worker inherit the whole model as
// its parameter snapshot (weights are immutable within an iteration, so
// copy-on-write pages are never dirtied) while results, commits and
// heartbeats travel only over sockets.

#include <cstdint>
#include <utility>
#include <vector>

#include "src/numerics/transformer_block.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/rng.hpp"

namespace slim::rt {

struct PipelineModel {
  num::BlockDims dims;
  std::int64_t vocab = 0;
  std::int64_t layers_total = 0;
  int stages = 1;
  int chunks_per_stage = 1;
  num::Tensor embedding;
  num::Tensor final_norm;
  std::vector<num::LayerWeights> layer_weights;    // all layers, in order
  std::vector<std::pair<int, int>> stage_layers;   // [begin, end) per global stage

  /// Builds a model with `layers_total` layers split as evenly as possible
  /// across `stages * chunks_per_stage` stage chunks (earlier chunks take
  /// the remainder) — the scheduler's uneven-stage convention.
  static PipelineModel build(num::BlockDims dims, std::int64_t vocab,
                             int layers_total, int stages, Rng& rng,
                             int chunks_per_stage = 1);

  /// Global layer ids owned by each stage worker, chunk-major (worker r
  /// owns global stages r, p+r, 2p+r, ...) — the index space of the
  /// per-microbatch staged gradients.
  std::vector<std::vector<int>> owned_layers() const;

  /// The stage worker holding the output head (and final norm): the owner
  /// of the last global stage chunk.
  int head_stage() const {
    return (stages * chunks_per_stage - 1) % stages;
  }
};

struct PipelineStats {
  /// Peak simultaneously-live slices per stage (the Eq. 1 quantity in
  /// slice units).
  std::vector<int> peak_live_slices;
  /// Activation/gradient messages exchanged per stage boundary.
  std::vector<std::int64_t> messages;
  /// Microbatches the first respawn replayed (empty when fault-free).
  std::vector<int> replayed_microbatches;

  /// Per-stage observability breakdown — the same shape the simulator
  /// attaches to sched::ScheduleResult, filled from cheap always-on probes
  /// (wall-clock busy/blocked time, cross-stage message counts, arrival
  /// high-water marks). The consistency tests assert the discrete fields
  /// match the simulator for the same schedule.
  obs::RunMetrics metrics;
};

/// One iteration on any backend: the mean loss, the accumulated gradients
/// and the run's statistics (empty for the monolithic reference).
struct PipelineResult {
  double loss = 0.0;
  num::TinyModel::Grads grads;  // flattened: embedding, all layers, norm
  PipelineStats stats;
};

/// The same parameters executed monolithically on one thread — the ground
/// truth every pipeline backend's gradients are compared against.
PipelineResult reference_run(
    const PipelineModel& model,
    const std::vector<std::vector<std::int64_t>>& tokens,
    const std::vector<std::vector<std::int64_t>>& targets);

}  // namespace slim::rt

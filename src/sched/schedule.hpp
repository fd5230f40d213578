#pragma once

// Common pipeline-schedule representation.
//
// Every pipeline scheme (GPipe, TeraPipe, 1F1B, interleaved 1F1B, ZB-V,
// V-Half, SlimPipe) is expressed as a per-device ordered list of passes.
// The builder (builder.hpp) compiles passes into a sim::OpGraph with
// durations from the cost model, inter-stage transfers, and byte-exact
// memory deltas; the executor then measures makespan, bubbles and peak
// memory — nothing about pipeline behaviour is assumed in closed form.

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/slice_layout.hpp"
#include "src/memory/offload.hpp"
#include "src/model/activation.hpp"
#include "src/model/flops.hpp"
#include "src/model/hardware.hpp"
#include "src/model/transformer.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/report.hpp"
#include "src/sim/topology.hpp"

namespace slim::sched {

enum class PassType : std::uint8_t {
  Forward,
  Backward,
  BackwardInput,   // ZB-V: activation-gradient half
  BackwardWeight,  // ZB-V: weight-gradient half
};

struct Pass {
  PassType type = PassType::Forward;
  std::int32_t microbatch = 0;
  std::int32_t slice = 0;  // 0 for unsliced schemes
  std::int32_t chunk = 0;  // local stage chunk on this device, [0, v)
};

/// Program of one pipeline device: passes in execution order.
using DeviceProgram = std::vector<Pass>;

/// How global stages map onto devices.
enum class StageLayoutKind : std::uint8_t {
  Sequential,   // v == 1: stage r on device r
  Interleaved,  // stage s on device s % p (Megatron interleaving)
  VShape,       // ZB-V: device r holds stages r and 2p-1-r
};

struct StageLayout {
  int p = 1;
  int v = 1;
  StageLayoutKind kind = StageLayoutKind::Sequential;

  int num_stages() const { return p * v; }
  int device_of(int stage) const;
  int chunk_of(int stage) const;          // local chunk index on its device
  int stage_of(int device, int chunk) const;
};

/// Full specification of one pipeline-parallel training iteration.
struct PipelineSpec {
  model::TransformerConfig cfg;
  model::GpuSpec gpu;
  model::Shard shard;                       // t, c, e
  model::CheckpointPolicy policy = model::CheckpointPolicy::None;
  model::CpMode cp_mode = model::CpMode::RingKv;

  int p = 1;                                // pipeline size
  int v = 1;                                // stage chunks per device
  StageLayoutKind layout = StageLayoutKind::Sequential;
  std::int64_t seq = 0;                     // sequence (context) length
  int n = 1;                                // slices per sequence
  int m = 1;                                // microbatches per iteration

  /// Per-microbatch slice boundaries for elastic (variable-length)
  /// workloads: exactly m layouts of n slices each when set. Empty means
  /// every microbatch carries the full `seq` tokens split token-uniformly
  /// into n slices (remainder to the first slices, Megatron-style, in
  /// blocks of shard.c tokens) — no token is ever dropped.
  std::vector<core::SliceLayout> layouts;

  bool retain_kv = false;                   // keep K/V of earlier slices
  bool vocab_parallel = false;              // distribute the output layer
  bool context_exchange = false;            // SlimPipe attention rebalance
  /// Adaptive exchange: skip a cohort's rebalancing when the transfer time
  /// would exceed the imbalance it removes (an extension beyond the paper,
  /// ablated in bench_eq2_exchange_volume).
  bool adaptive_exchange = false;
  mem::OffloadModel offload;

  /// Fraction of data-parallel gradient communication that is exposed
  /// (not overlapped with backward); uniform across schemes.
  double dp_exposed_fraction = 0.25;
  std::int64_t d = 1;                       // data-parallel size (optimizer)

  /// Declared cap on simultaneously-live activation units (slices) per
  /// device. 0 = undeclared; when positive, sched::compile enforces it via
  /// the verifier's sched-inflight-bound rule. core::plan_scheme fills in
  /// each scheme's analytical cap.
  double max_inflight_units = 0.0;

  /// Base layers per stage (uneven splits give the remainder to the first
  /// stages, Megatron-style).
  std::int64_t layers_per_stage() const {
    return cfg.layers / static_cast<std::int64_t>(p * v);
  }

  /// Layers assigned to a specific global stage.
  std::int64_t layers_of_stage(int stage) const {
    const std::int64_t base = layers_per_stage();
    const std::int64_t rem =
        cfg.layers - base * static_cast<std::int64_t>(p * v);
    return base + (stage < rem ? 1 : 0);
  }
  /// Uniform slice length; only meaningful when uniform_slices() holds
  /// (seq % n == 0 and no explicit layouts).
  std::int64_t slice_len() const { return seq / n; }
  StageLayout stage_layout() const { return StageLayout{p, v, layout}; }

  // ---- elastic slice layouts ----

  bool elastic() const { return !layouts.empty(); }
  /// Layout of microbatch mb; resolves the empty-layouts default.
  core::SliceLayout layout_of(int mb) const;
  /// All m layouts with the default resolved.
  std::vector<core::SliceLayout> resolved_layouts() const;
  /// Tokens in microbatch mb (== seq when layouts is empty).
  std::int64_t seq_of(int mb) const;
  /// Tokens across the whole iteration (all m microbatches).
  std::int64_t total_tokens() const;
  /// True when every microbatch resolves to identical equal-length slices
  /// — the shape context exchange's closed-form rebalancing assumes.
  bool uniform_slices() const;

  /// Validates divisibility and structural constraints; returns an error
  /// message or empty string when valid.
  std::string validate() const;
};

/// Everything measured for one simulated iteration.
struct ScheduleResult {
  std::string scheme;
  double iteration_time = 0.0;          // seconds
  double bubble_fraction = 0.0;         // mean over pipeline devices
  double mfu = 0.0;                     // causal-exact model FLOPs basis
  double peak_memory = 0.0;             // max over devices, bytes
  double first_device_memory = 0.0;     // bytes (Fig. 10 reports both)
  double last_device_memory = 0.0;
  std::vector<double> device_peaks;     // bytes per pipeline device
  double exchange_bytes_max_device = 0.0;  // context-exchange volume
  bool oom = false;
  std::string ascii_timeline;           // filled when requested

  // Fault-injection accounting (zero on fault-free runs). iteration_time
  // already includes both components when a FaultPlan was applied.
  double fault_injected_seconds = 0.0;  // straggler/link time added to ops
  double fault_recovery_seconds = 0.0;  // checkpoint-restart replay cost

  /// Per-stage observability breakdown (same shape as the threaded
  /// runtime's rt::PipelineStats::metrics).
  obs::RunMetrics metrics;

  /// Full analytical memory replay (per-device, per-category peaks) — the
  /// prediction side of measured-vs-analytical footprint reconciliation
  /// (mem::reconcile_peaks against the runtime's arena-measured peaks).
  mem::MemoryReport memory;
};

/// Packs a ScheduleResult into the bench-report run shape.
obs::RunRecord to_run_record(const ScheduleResult& result,
                             const std::string& label);

}  // namespace slim::sched

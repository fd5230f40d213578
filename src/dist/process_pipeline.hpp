#pragma once

// Multi-process SlimPipe pipeline with process supervision.
//
// Each pipeline stage runs in its own forked worker process; adjacent
// stages exchange activation/gradient slices over AF_UNIX stream sockets
// and every worker owns a control socket to the supervisor in the parent.
// The supervisor is a single-threaded poll loop that
//
//  * exchanges heartbeats with every worker (each beat carries the stage's
//    progress snapshot — the source of the postmortem blocked-on table);
//  * detects a SIGKILLed worker (waitpid/EOF), a crashed worker (nonzero
//    exit or Error frame) or a hung worker (missed-heartbeat deadline —
//    the supervisor SIGKILLs it) within a configurable timeout;
//  * deserializes Commit frames into the shared CommitLedger
//    (src/runtime/commit.hpp) as microbatches retire per stage;
//  * on failure drains surviving workers briefly (maximizing the set of
//    retired microbatches), respawns the pipeline with bounded exponential
//    backoff and replays exactly the unretired microbatches — the
//    recovered gradients are bit-identical to the fault-free run;
//  * converts an exhausted respawn budget (or recover=false) into a
//    structured PipelineError with the per-stage postmortem table — never
//    a hang.
//
// Workers inherit the model weights through fork-time copy-on-write memory
// (the parameter snapshot; weights are immutable within an iteration), so
// only activations, gradients, commits and telemetry cross the sockets.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/fault_plan.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/pipeline_runtime.hpp"
#include "src/util/rng.hpp"

namespace slim::dist {

/// Crash-torture hook: a real SIGKILL of the worker of `stage` at a chosen
/// protocol phase. The supervisor kills at PreForward; the commit phases
/// are armed in the worker, which raises SIGKILL right after sending the
/// Commit frame. The crash-torture tests sweep this over every
/// (stage, phase) pair.
struct KillSpec {
  int stage = -1;  // -1: disabled
  enum class Phase {
    None,
    PreForward,  // immediately after fork, before any forward completes
    MidCommit,   // right after the stage's first Commit frame
    PostCommit,  // right after its last Commit frame (all work retired)
  };
  Phase phase = Phase::None;
  /// Re-kill the respawned worker on every attempt — drives the respawn
  /// budget to exhaustion deterministically.
  bool persistent = false;
};

/// Knobs of one multi-process iteration.
struct ProcessOptions {
  int n_slices = 1;
  /// Per-microbatch slice boundaries (same contract as
  /// rt::RunOptions::layouts): one layout per microbatch, each with
  /// n_slices slices covering that microbatch's token count. Empty derives
  /// a token-uniform layout per microbatch, remainder to the first slices.
  std::vector<core::SliceLayout> layouts;
  /// Worker-side starvation watchdog (same semantics as the threaded
  /// runtime's): a stage blocked in receive for this long sends a
  /// structured Error frame. Defaults from SLIMPIPE_STARVATION_TIMEOUT_MS.
  std::chrono::milliseconds starvation_timeout =
      rt::default_starvation_timeout();
  /// Heartbeat cadence (worker -> supervisor).
  std::chrono::milliseconds heartbeat_interval{25};
  /// A worker silent for this long is declared hung and SIGKILLed.
  std::chrono::milliseconds heartbeat_timeout{1000};
  /// After a failure: how long surviving workers may keep retiring
  /// microbatches before teardown (maximizes committed work; makes the
  /// crash-torture replay sets deterministic).
  std::chrono::milliseconds drain_grace{500};
  /// Respawns allowed per iteration before the supervisor gives up with a
  /// structured PipelineError.
  int respawn_budget = 3;
  /// Exponential respawn backoff: min(backoff_base * 2^k, backoff_cap)
  /// before the k-th respawn of a stage.
  std::chrono::milliseconds backoff_base{10};
  std::chrono::milliseconds backoff_cap{250};
  /// Fault plan mapped onto the real transport: stage_crash ->
  /// raise(SIGKILL), stage_hang -> parked process (heartbeats stop), delay
  /// -> receive-side straggler sleep, link extra_latency / socket_delay ->
  /// sender sleeps before the write (measurable socket latency),
  /// socket_drop -> dropped frame with bounded retry, socket_connect ->
  /// transient transport-setup failure.
  const fault::FaultPlan* faults = nullptr;
  /// Respawn + replay after failures (true) or fail the iteration on the
  /// first one (false — still a structured PipelineError).
  bool recover = true;
  /// Filled with observed fault events + replayed microbatches when set.
  fault::FaultReport* report = nullptr;
  /// Optional tracing sink. Workers inherit its epoch, stamp their spans,
  /// instants and flow points on the run clock, and ship them in the Done
  /// frame; the supervisor records them as is (track = stage).
  obs::Recorder* recorder = nullptr;
  /// Crash-torture hook (see KillSpec).
  KillSpec kill;
  /// Worker flight recorder (obs/flight_recorder.hpp): breadcrumb ring
  /// flushed over the control socket; the last 32 recovered events of a
  /// dead worker are appended to the postmortem. Off only for overhead
  /// measurement (bench_obs_overhead).
  bool flight = true;
  /// Live telemetry: when telemetry_json_path is set the supervisor writes
  /// an atomic obs::LiveSnapshot JSON there every telemetry_interval (and a
  /// Prometheus text exposition to telemetry_prom_path when that is set),
  /// plus a final snapshot with phase "done"/"failed". slimpipe_top renders
  /// the JSON file live.
  std::string telemetry_json_path;
  std::string telemetry_prom_path;
  std::chrono::milliseconds telemetry_interval{200};
};

/// Tied-embedding transformer split across `stages` worker processes.
/// Restricted to chunks_per_stage == 1 and the non-vocab-parallel head —
/// the schedule the process-per-stage transport maps onto directly.
class ProcessPipeline {
 public:
  ProcessPipeline(num::BlockDims dims, std::int64_t vocab, int layers_total,
                  int stages, Rng& rng);

  /// Same result shape as the threaded backend — the parity tests compare
  /// the two directly (max_abs_diff == 0).
  using Result = rt::ThreadedPipeline::Result;

  Result run_iteration(const std::vector<std::vector<std::int64_t>>& tokens,
                       const std::vector<std::vector<std::int64_t>>& targets,
                       int n_slices);

  Result run_iteration(const std::vector<std::vector<std::int64_t>>& tokens,
                       const std::vector<std::vector<std::int64_t>>& targets,
                       const ProcessOptions& options);

  /// Monolithic single-thread execution of the same parameters.
  Result run_reference(const std::vector<std::vector<std::int64_t>>& tokens,
                       const std::vector<std::vector<std::int64_t>>& targets);

  int stages() const { return model_.stages; }
  const rt::PipelineModel& model() const { return model_; }

 private:
  rt::PipelineModel model_;
};

}  // namespace slim::dist

#pragma once

// The iteration level of both training runtimes: one replay loop.
//
// A runtime supplies only one attempt over a list of microbatches — the
// threaded runtime starts a thread per stage over Channels and joins them
// (pipeline_runtime.cpp), the multi-process runtime forks a worker per
// stage, supervises and reaps them (src/dist/process_pipeline.cpp) — and
// reports how it ended: each stage's status (obs::StageStatus, the record a
// process worker's heartbeat carries) and fault events, and the culprit.
// run_replayed owns everything above that: the slice layouts and the plan's
// validation, the run clock, the CommitLedger, the attempt/replay policy,
// the Recovery event, the per-attempt fold of every stage's status and
// fault events, the FaultReport out-param and the one PipelineError form.
//
// The policy. Attempt 0 runs every microbatch with the plan's faults armed.
// While an attempt fails and `recover` is set, the loop merges what retired
// on every stage, backs off 10 ms * 2^k, where k counts the failed stage's
// earlier respawns, and replays exactly the uncommitted microbatches with
// the faults disarmed; 3 respawns per stage bound it (10, 20, 40 ms).
// Both runtimes commit a microbatch's gradients only when it retires on a
// stage, so a replay discards exactly the failed attempt's partial work and
// the recovered gradients are bit-identical to a fault-free run.

#include <functional>
#include <string>
#include <vector>

#include "src/fault/fault_plan.hpp"
#include "src/obs/clock.hpp"
#include "src/obs/telemetry.hpp"
#include "src/runtime/commit.hpp"
#include "src/runtime/pipeline_runtime.hpp"
#include "src/runtime/stage_machine.hpp"

namespace slim::rt {

/// What the loop hands a runtime for one attempt.
struct Attempt {
  int index;                          // 0 first; folded into flow ids
  const std::vector<int>& mbs;        // ascending; their slots are empty
  const fault::FaultPlan* faults;     // the plan on attempt 0, else null
  const StageInputs& inputs;          // model, batch and slice layouts
  obs::MonoClock::time_point epoch;   // the run clock's zero
  CommitLedger& ledger;               // where retired microbatches go
  const std::vector<int>& respawns;   // per stage, so far

  /// Seconds on the run clock.
  double now() const;
};

/// What one stage left behind in one attempt: its last status — a process
/// worker's Done frame or final heartbeat, a stage thread's run record —
/// and the fault events it logged.
struct StageEnd {
  obs::StageStatus status;
  std::vector<fault::FaultEvent> events;
};

/// How one attempt ended.
struct AttemptEnd {
  std::vector<StageEnd> stages;  // one per stage
  /// Events the runtime logged itself (a supervisor's verdicts, transport
  /// retries); the report lists them before the stages'.
  std::vector<fault::FaultEvent> events;
  int culprit = -1;    // the stage whose failure ended the attempt; -1: none
  std::string detail;  // what failed
  std::string table;   // the per-stage table (obs::stage_table), if failed
};

using RunAttempt = std::function<AttemptEnd(const Attempt&)>;

/// One training iteration under the replay policy above. `options` gives
/// the batch's slicing, the fault plan, `recover`, the report out-param
/// (appended to whether the iteration succeeds or throws) and the
/// recorder; its starvation_timeout is the attempt's business. `substrate`
/// and `scheme` label the run metrics. Throws PipelineError when an attempt
/// fails and recovery is off or its stage's respawn budget is spent.
PipelineResult run_replayed(const PipelineModel& model, const Batch& tokens,
                            const Batch& targets, const RunOptions& options,
                            const char* substrate, const char* scheme,
                            const RunAttempt& run_attempt);

}  // namespace slim::rt

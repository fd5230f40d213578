#pragma once

// Public façade: run any pipeline scheme on a spec and compare schemes.
// run_scheme is the one scheme-level way to simulate an iteration (traced,
// fault-injected or plain); plan_scheme is the one place a scheme's
// spec normalization lives, and run_scheme routes through it.

#include <optional>
#include <string>
#include <vector>

#include "src/fault/fault_plan.hpp"
#include "src/obs/trace.hpp"
#include "src/sched/schedule.hpp"

namespace slim::core {

enum class Scheme : int {
  GPipe,
  TeraPipe,
  OneF1B,
  Interleaved1F1B,
  ZBV,
  VHalf,
  VMin,
  SlimPipe,
};

const char* scheme_name(Scheme scheme);
std::vector<Scheme> all_schemes();
/// gpipe | terapipe | 1f1b | interleaved | zbv | vhalf | vmin | slimpipe.
std::optional<Scheme> scheme_by_name(const std::string& name);

/// Runs one simulated training iteration under the given scheme.
/// Scheme-specific knobs on the spec (layout, retain_kv, ...) are
/// normalized by plan_scheme; schedule-relevant ones (p, v, n, m, policy,
/// vocab_parallel, context_exchange) are honored where the scheme supports
/// them. Interleaved1F1B at v = 1 runs (and is labelled) as 1F1B; the
/// result's scheme is scheme_name of the scheme that ran.
///
/// `trace`, `faults` and `report` pass through to sched::run_pipeline: a
/// trace receives the executed timeline, a fault plan degrades op durations
/// before execution (stragglers, links) and adds checkpoint-restart
/// recovery cost afterwards (crashes) — iteration_time is then the degraded
/// total and the fault_* fields break out the overheads — and a report
/// collects the structured fault events.
sched::ScheduleResult run_scheme(Scheme scheme, sched::PipelineSpec spec,
                                 bool want_timeline = false,
                                 obs::Trace* trace = nullptr,
                                 const fault::FaultPlan* faults = nullptr,
                                 fault::FaultReport* report = nullptr);

/// A scheme's schedule without running the simulator: the normalized spec,
/// which declares the scheme's cap on simultaneously-live activation units
/// in spec.max_inflight_units (one unit = one (microbatch, slice, chunk)
/// forward; Table 2 bounds) so sched::compile enforces it, and the
/// generated per-device programs. Input to the static analysis passes.
struct SchedulePlan {
  sched::PipelineSpec spec;
  std::vector<sched::DeviceProgram> programs;
};

/// Normalizes the spec for the scheme (the only place that does) and
/// generates its programs. Throws (SLIM_CHECK) on specs the scheme cannot
/// schedule, and on p, v, m or n below 1.
SchedulePlan plan_scheme(Scheme scheme, sched::PipelineSpec spec);

}  // namespace slim::core

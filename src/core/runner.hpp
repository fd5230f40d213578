#pragma once

// Public façade: run any pipeline scheme on a spec and compare schemes.
// run_scheme is the one scheme-level way to simulate an iteration (traced,
// fault-injected or plain); normalize_scheme is the one place a scheme's
// spec normalization lives, which plan_scheme, run_scheme and the
// planner's estimates (parallel::estimate_*) all route through.

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
/// normalized by normalize_scheme; schedule-relevant ones (p, v, n, m,
/// policy, vocab_parallel, context_exchange) are honored where the scheme
/// supports them. The result's scheme is scheme_name of the scheme that ran
/// (Interleaved1F1B at v = 1 runs, and is labelled, as 1F1B).
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

/// The scheme that actually runs (Interleaved1F1B at v = 1 runs as
/// OneF1B) and the spec normalized for it. spec.max_inflight_units is the
/// scheme's cap on simultaneously-live activation units (one unit = one
/// (microbatch, slice, chunk) forward; Table 2 bounds, at most m * n * v),
/// which sched::compile enforces: a device holds at most max_inflight_units
/// / (p * n * v) of M_a.
struct SchemeSpec {
  Scheme scheme = Scheme::SlimPipe;
  sched::PipelineSpec spec;
};

/// Normalizes the spec for the scheme. Throws (SLIM_CHECK) on p, v, m or n
/// below 1.
SchemeSpec normalize_scheme(Scheme scheme, sched::PipelineSpec spec);

/// A scheme's schedule without running the simulator: normalize_scheme's
/// result plus the generated per-device programs. Input to the static
/// analysis passes.
struct SchedulePlan : SchemeSpec {
  std::vector<sched::DeviceProgram> programs;
};

/// Throws (SLIM_CHECK) on specs the scheme cannot schedule, and on p, v, m
/// or n below 1.
SchedulePlan plan_scheme(Scheme scheme, sched::PipelineSpec spec);

}  // namespace slim::core

#pragma once

// Schedule check: the verifier's entry point for per-device programs.
//
// Validates the spec, then lowers the programs to the tabular IR and runs
// the schedule verifier (verify.hpp) once, so every rule that judges a
// schedule lives in one place:
//
//   sched-spec     PipelineSpec::validate() failure (the verifier does not
//                  run on an invalid spec)
//   ir-structure   the program count differs from p; otherwise every rule
//                  of verify_ir, sched-inflight-bound included

#include <vector>

#include "src/analysis/findings.hpp"
#include "src/sched/schedule.hpp"

namespace slim::analysis {

struct ScheduleLintOptions {
  /// Declared per-device cap on simultaneously-live activation units (one
  /// unit = one (microbatch, slice, chunk) forward), checked by the
  /// sched-inflight-bound rule. <= 0 disables the rule, whatever cap the
  /// spec itself carries.
  double max_inflight_units = 0.0;
};

std::vector<Finding> check_schedule(
    const sched::PipelineSpec& spec,
    const std::vector<sched::DeviceProgram>& programs,
    const ScheduleLintOptions& options = {});

}  // namespace slim::analysis

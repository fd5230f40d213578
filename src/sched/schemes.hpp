#pragma once

// Baseline pipeline schemes (paper §2.2, Table 2):
//   GPipe            — microbatch-granular, all-forward-then-all-backward
//   TeraPipe         — slice-granular, GPipe-style accumulation
//   PipeDream-Flush  — the default 1F1B schedule
//   Interleaved 1F1B — Megatron-LM's multi-chunk variant
//   ZB-V / V-Half    — zero-bubble schedules with split backward
//
// Each scheme has a program generator here (pure ordering). The spec
// normalization lives in one place, core::normalize_scheme, and
// core::run_scheme is the one way to simulate a scheme.

#include <vector>

#include "src/sched/schedule.hpp"

namespace slim::sched {

std::vector<DeviceProgram> gpipe_programs(const PipelineSpec& spec);
std::vector<DeviceProgram> terapipe_programs(const PipelineSpec& spec);
std::vector<DeviceProgram> onef1b_programs(const PipelineSpec& spec);
std::vector<DeviceProgram> interleaved_programs(const PipelineSpec& spec);

/// ZB-V greedy constructive schedule; `memory_cap_units` bounds live
/// stage-activation units (2p for ZB-V, p/2 + 2 for V-Half).
std::vector<DeviceProgram> zbv_programs(const PipelineSpec& spec,
                                        double memory_cap_units);

}  // namespace slim::sched

#pragma once

// SlimPipe (paper §4): fine-grained pipeline parallelism with uniform
// sequence slicing, slice-level 1F1B scheduling, LIFO backward order, KV
// chunk reuse, attention context exchange and vocabulary parallelism.
//
// This file holds the schedule (pure ordering). The spec normalization
// (layout, KV retention, commutated CP, n >= p) lives in
// core::normalize_scheme; run it with core::run_scheme(Scheme::SlimPipe,
// spec).

#include <vector>

#include "src/sched/schedule.hpp"

namespace slim::core {

/// Per-device pass programs for SlimPipe (both the plain and interleaved
/// forms; v == 1 gives Figure 4's schedule, v > 1 Figure 5's) from p, v, n
/// and m, for any n: when p does not divide n, a microbatch's last slice
/// group holds n mod p slices. Both training runtimes run these rows too.
std::vector<sched::DeviceProgram> slimpipe_programs(
    const sched::PipelineSpec& spec);

}  // namespace slim::core

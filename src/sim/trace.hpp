#pragma once

// Timeline rendering: ASCII pipeline diagrams (like the paper's Figures 4, 5,
// 7 and 9).

#include <string>

#include "src/sim/executor.hpp"
#include "src/sim/graph.hpp"

namespace slim::sim {

struct AsciiTraceOptions {
  int width = 120;          // characters across the full makespan
  int num_devices = 0;      // rows; 0 = infer from ops
  bool show_legend = true;
};

/// Renders one row per device; each compute op paints a run of characters:
///   F forward, B backward, I input-grad, W weight-grad, R recompute,
///   V vocab fwd, v vocab bwd, O optimizer, '.' idle (bubble).
std::string ascii_timeline(const OpGraph& graph, const ExecResult& result,
                           const AsciiTraceOptions& options = {});

}  // namespace slim::sim

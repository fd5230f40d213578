#pragma once

// Graph check on a built sim::OpGraph. Every schedule rule lives in the
// verifier (verify.hpp), which runs on the table before any graph exists;
// this pass keeps the one rule about ops the table does not have:
//
//   graph-vocab-ops       explicit VocabForward/VocabBackward ops appear iff
//                         the spec does NOT use vocabulary parallelism (the
//                         parallel form folds them into every device's
//                         forward/backward), m * n of each, and only on the
//                         last stage's device

#include <vector>

#include "src/analysis/findings.hpp"
#include "src/sched/schedule.hpp"
#include "src/sim/graph.hpp"

namespace slim::analysis {

std::vector<Finding> check_graph(const sim::OpGraph& graph,
                                 const sched::PipelineSpec& spec);

}  // namespace slim::analysis

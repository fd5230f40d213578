#include "src/analysis/graph_check.hpp"

#include <cstdint>
#include <sstream>
#include <string>

namespace slim::analysis {

namespace {

using sim::Op;
using sim::OpClass;

std::string op_location(const Op& op) {
  std::ostringstream out;
  out << "op " << op.id << " (dev " << op.device;
  if (op.microbatch >= 0) out << " mb " << op.microbatch;
  if (op.slice >= 0) out << " slice " << op.slice;
  if (op.stage >= 0) out << " stage " << op.stage;
  out << ")";
  return out.str();
}

}  // namespace

std::vector<Finding> check_graph(const sim::OpGraph& graph,
                                 const sched::PipelineSpec& spec) {
  std::vector<Finding> findings;
  const sched::StageLayout layout = spec.stage_layout();
  const int last_device = layout.device_of(layout.num_stages() - 1);
  std::int64_t vocab_fwd = 0, vocab_bwd = 0;
  bool placement_reported = false;
  for (const Op& op : graph.ops()) {
    const bool vf = op.cls == OpClass::VocabForward;
    const bool vb = op.cls == OpClass::VocabBackward;
    if (!vf && !vb) continue;
    vocab_fwd += vf ? 1 : 0;
    vocab_bwd += vb ? 1 : 0;
    if (spec.vocab_parallel) {
      findings.push_back(
          {Severity::Error, "graph-vocab-ops", op_location(op),
           "explicit vocabulary op in a vocab-parallel schedule (the "
           "sharded output layer folds into every device's passes)"});
      return findings;
    }
    if (op.device != last_device && !placement_reported) {
      placement_reported = true;
      std::ostringstream msg;
      msg << "vocabulary op on device " << op.device
          << "; without vocabulary parallelism the output layer lives on "
          << "the last stage's device " << last_device;
      findings.push_back(
          {Severity::Error, "graph-vocab-ops", op_location(op), msg.str()});
    }
  }
  if (!spec.vocab_parallel) {
    const std::int64_t expected = static_cast<std::int64_t>(spec.m) * spec.n;
    if (vocab_fwd != expected || vocab_bwd != expected) {
      std::ostringstream msg;
      msg << "expected " << expected << " vocabulary forward and backward "
          << "ops (one per microbatch per slice), found " << vocab_fwd
          << " forward / " << vocab_bwd << " backward";
      findings.push_back(
          {Severity::Error, "graph-vocab-ops", "graph", msg.str()});
    }
  }
  return findings;
}

}  // namespace slim::analysis

#include "src/analysis/schedule_check.hpp"

#include <string>

#include "src/analysis/verify.hpp"
#include "src/ir/schedule_ir.hpp"

namespace slim::analysis {

std::vector<Finding> check_schedule(
    const sched::PipelineSpec& spec,
    const std::vector<sched::DeviceProgram>& programs,
    const ScheduleLintOptions& options) {
  const std::string err = spec.validate();
  if (!err.empty()) return {{Severity::Error, "sched-spec", "spec", err}};
  if (static_cast<int>(programs.size()) != spec.p) {
    return {{Severity::Error, "ir-structure", "programs",
             std::to_string(programs.size()) + " device programs for p = " +
                 std::to_string(spec.p)}};
  }
  sched::PipelineSpec capped = spec;
  capped.max_inflight_units = options.max_inflight_units;
  return verify_ir(ir::lower(capped, programs, "check_schedule"), capped)
      .findings;
}

}  // namespace slim::analysis

#include "src/sched/schemes.hpp"

#include "src/util/logging.hpp"

namespace slim::sched {

std::vector<DeviceProgram> gpipe_programs(const PipelineSpec& spec) {
  SLIM_CHECK(spec.n == 1 && spec.v == 1, "GPipe is microbatch-granular");
  std::vector<DeviceProgram> programs(static_cast<std::size_t>(spec.p));
  for (int dev = 0; dev < spec.p; ++dev) {
    DeviceProgram& program = programs[static_cast<std::size_t>(dev)];
    for (int mb = 0; mb < spec.m; ++mb) {
      program.push_back({PassType::Forward, mb, 0, 0});
    }
    // All activations accumulate until the flush; backwards drain LIFO.
    for (int mb = spec.m - 1; mb >= 0; --mb) {
      program.push_back({PassType::Backward, mb, 0, 0});
    }
  }
  return programs;
}

std::vector<DeviceProgram> terapipe_programs(const PipelineSpec& spec) {
  SLIM_CHECK(spec.v == 1, "TeraPipe uses a single stage per device");
  std::vector<DeviceProgram> programs(static_cast<std::size_t>(spec.p));
  for (int dev = 0; dev < spec.p; ++dev) {
    DeviceProgram& program = programs[static_cast<std::size_t>(dev)];
    for (int mb = 0; mb < spec.m; ++mb) {
      for (int s = 0; s < spec.n; ++s) {
        program.push_back({PassType::Forward, mb, s, 0});
      }
    }
    // Backwards in strict reverse: causal KV gradients force LIFO slice
    // order within each microbatch.
    for (int mb = spec.m - 1; mb >= 0; --mb) {
      for (int s = spec.n - 1; s >= 0; --s) {
        program.push_back({PassType::Backward, mb, s, 0});
      }
    }
  }
  return programs;
}

}  // namespace slim::sched

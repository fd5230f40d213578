#include "src/sched/schemes.hpp"

#include "src/sched/builder.hpp"
#include "src/util/logging.hpp"

namespace slim::sched {

std::vector<DeviceProgram> onef1b_programs(const PipelineSpec& spec) {
  SLIM_CHECK(spec.n == 1 && spec.v == 1, "1F1B is microbatch-granular");
  std::vector<DeviceProgram> programs(static_cast<std::size_t>(spec.p));
  for (int dev = 0; dev < spec.p; ++dev) {
    std::vector<Pass> fwd, bwd;
    for (int mb = 0; mb < spec.m; ++mb) {
      fwd.push_back({PassType::Forward, mb, 0, 0});
      bwd.push_back({PassType::Backward, mb, 0, 0});
    }
    // Device r holds at most p - r in-flight microbatches (B-first steady
    // convention: warmup includes the in-flight one).
    const int warmup = spec.p - dev;
    programs[static_cast<std::size_t>(dev)] =
        one_f_one_b_program(fwd, bwd, warmup);
  }
  return programs;
}

std::vector<DeviceProgram> interleaved_programs(const PipelineSpec& spec) {
  SLIM_CHECK(spec.n == 1, "interleaved 1F1B is microbatch-granular");
  SLIM_CHECK(spec.v >= 1, "v must be >= 1");
  SLIM_CHECK(spec.m % spec.p == 0,
             "interleaved 1F1B requires microbatches divisible by p "
             "(Megatron-LM constraint; see paper 6.4 scalability discussion)");
  std::vector<DeviceProgram> programs(static_cast<std::size_t>(spec.p));
  const int groups = spec.m / spec.p;
  for (int dev = 0; dev < spec.p; ++dev) {
    std::vector<Pass> fwd, bwd;
    // Megatron ordering: within each group of p microbatches, iterate
    // chunks; within a chunk, the group's microbatches in order.
    for (int g = 0; g < groups; ++g) {
      for (int chunk = 0; chunk < spec.v; ++chunk) {
        for (int i = 0; i < spec.p; ++i) {
          fwd.push_back({PassType::Forward, g * spec.p + i, 0, chunk});
        }
      }
      for (int chunk = spec.v - 1; chunk >= 0; --chunk) {
        for (int i = 0; i < spec.p; ++i) {
          bwd.push_back({PassType::Backward, g * spec.p + i, 0, chunk});
        }
      }
    }
    const int warmup = (spec.p - dev - 1) * 2 + (spec.v - 1) * spec.p + 1;
    programs[static_cast<std::size_t>(dev)] =
        one_f_one_b_program(fwd, bwd, warmup);
  }
  return programs;
}

}  // namespace slim::sched

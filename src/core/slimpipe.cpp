#include "src/core/slimpipe.hpp"

#include "src/core/slice.hpp"
#include "src/sched/builder.hpp"
#include "src/util/logging.hpp"

namespace slim::core {

std::vector<sched::DeviceProgram> slimpipe_programs(
    const sched::PipelineSpec& spec) {
  SLIM_CHECK(spec.n % spec.p == 0, "SlimPipe requires n to be a multiple of p");
  const int p = spec.p;
  const int n = spec.n;
  const int m = spec.m;
  const int v = spec.v;
  const int groups_per_mb = n / p;

  std::vector<sched::DeviceProgram> programs(static_cast<std::size_t>(p));
  for (int dev = 0; dev < p; ++dev) {
    std::vector<sched::Pass> fwd, bwd;
    fwd.reserve(static_cast<std::size_t>(m * n * v));
    bwd.reserve(fwd.capacity());

    // Forward: slice-stream positions in groups of p; within a group all v
    // chunks run before the stream advances (generalizes Megatron's
    // interleaving with slices in place of microbatches; n % p == 0 keeps
    // groups inside a single microbatch).
    for (int mb = 0; mb < m; ++mb) {
      for (int g = 0; g < groups_per_mb; ++g) {
        for (int chunk = 0; chunk < v; ++chunk) {
          for (int i = 0; i < p; ++i) {
            const int slice = g * p + i;
            fwd.push_back({sched::PassType::Forward, mb, slice, chunk});
          }
        }
      }
    }
    // Backward: microbatches in order; within a microbatch strictly LIFO in
    // slices (causal KV gradients) and stages (chunk descending).
    for (int mb = 0; mb < m; ++mb) {
      for (int g = groups_per_mb - 1; g >= 0; --g) {
        for (int chunk = v - 1; chunk >= 0; --chunk) {
          for (int i = p - 1; i >= 0; --i) {
            const int slice = g * p + i;
            bwd.push_back({sched::PassType::Backward, mb, slice, chunk});
          }
        }
      }
    }

    const int warmup = slimpipe_warmup_units(p, dev, n, v);
    programs[static_cast<std::size_t>(dev)] =
        sched::one_f_one_b_program(fwd, bwd, warmup);
  }
  return programs;
}

}  // namespace slim::core

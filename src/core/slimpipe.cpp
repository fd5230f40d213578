#include "src/core/slimpipe.hpp"

#include <algorithm>

#include "src/core/slice.hpp"
#include "src/sched/builder.hpp"

namespace slim::core {

std::vector<sched::DeviceProgram> slimpipe_programs(
    const sched::PipelineSpec& spec) {
  const int p = spec.p;
  const int n = spec.n;
  const int m = spec.m;
  const int v = spec.v;
  // Slice-stream groups of p slices; when p does not divide n, a
  // microbatch's last group holds the remaining n mod p slices.
  const int groups_per_mb = (n + p - 1) / p;
  auto group_size = [&](int g) { return std::min(p, n - g * p); };

  std::vector<sched::DeviceProgram> programs(static_cast<std::size_t>(p));
  for (int dev = 0; dev < p; ++dev) {
    std::vector<sched::Pass> fwd, bwd;
    fwd.reserve(static_cast<std::size_t>(m * n * v));
    bwd.reserve(fwd.capacity());

    // Forward: slice-stream positions in groups of p; within a group all v
    // chunks run before the stream advances (generalizes Megatron's
    // interleaving with slices in place of microbatches; groups never span
    // two microbatches).
    for (int mb = 0; mb < m; ++mb) {
      for (int g = 0; g < groups_per_mb; ++g) {
        for (int chunk = 0; chunk < v; ++chunk) {
          for (int i = 0; i < group_size(g); ++i) {
            fwd.push_back({sched::PassType::Forward, mb, g * p + i, chunk});
          }
        }
      }
    }
    // Backward: microbatches in order; within a microbatch strictly LIFO in
    // slices (causal KV gradients) and stages (chunk descending).
    for (int mb = 0; mb < m; ++mb) {
      for (int g = groups_per_mb - 1; g >= 0; --g) {
        for (int chunk = v - 1; chunk >= 0; --chunk) {
          for (int i = group_size(g) - 1; i >= 0; --i) {
            bwd.push_back({sched::PassType::Backward, mb, g * p + i, chunk});
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

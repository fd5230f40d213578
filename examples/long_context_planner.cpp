// Long-context planner: given a model and a GPU budget, grid-search the
// hybrid parallelism configuration (t, c, d, e, p, v, n, checkpointing,
// offload) that maximizes MFU at each context length — the workflow a
// practitioner runs before launching a long-context training job.
//
// Usage:
//   ./build/examples/long_context_planner [model] [gpus]
//   model: 7b | 13b | 70b | 149b | 8x7b | 8x22b   (default 70b)
//   gpus:  e.g. 128                                (default 128)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/parallel/pareto.hpp"
#include "src/parallel/search.hpp"
#include "src/util/table.hpp"
#include "src/util/units.hpp"

using namespace slim;

int main(int argc, char** argv) {
  const std::string model_name = argc > 1 ? argv[1] : "70b";
  const int gpus = argc > 2 ? std::atoi(argv[2]) : 128;
  const auto cfg = model::model_by_name(model_name);
  if (!cfg) {
    std::fprintf(stderr, "unknown model '%s'\n", model_name.c_str());
    return 1;
  }
  const auto gpu = model::hopper80();
  const std::int64_t tokens = 4 * 1024 * 1024;

  std::printf("Planning %s on %d Hopper GPUs, 4M tokens/iteration\n\n",
              cfg->name.c_str(), gpus);

  parallel::SearchOptions opts;
  opts.simulate_top_k = 5;
  opts.offload_ratios = {0.0, 0.5, 0.9};

  Table table({"context", "status", "MFU", "iteration", "peak mem",
               "best configuration"});
  for (std::int64_t seq = 64 * 1024; seq <= 2048 * 1024; seq *= 2) {
    const auto r = parallel::grid_search(*cfg, gpu, gpus, seq, tokens,
                                         core::Scheme::SlimPipe, opts);
    if (r.status == parallel::SearchStatus::Ok) {
      table.add_row({format_context(seq), "ok", format_percent(r.result.mfu),
                     format_time(r.result.iteration_time),
                     format_bytes(r.result.peak_memory),
                     r.best.describe()});
    } else {
      table.add_row({format_context(seq), parallel::to_string(r.status), "-",
                     "-", "-", r.note});
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  // Rematerialization Pareto frontier (Yuan et al. [48]) for the 256K
  // layout: how checkpointing and offloading trade memory for time.
  const auto probe = parallel::grid_search(*cfg, gpu, gpus, 256 * 1024, tokens,
                                           core::Scheme::SlimPipe, opts);
  if (probe.status == parallel::SearchStatus::Ok) {
    std::printf("Checkpoint/offload Pareto points at 256K for [%s]:\n",
                probe.best.describe().c_str());
    for (const auto& point : parallel::checkpoint_pareto(
             probe.best, *cfg, gpu, 256 * 1024, tokens)) {
      std::printf("  %s %s\n", point.on_frontier ? "*" : " ",
                  point.describe().c_str());
    }
    std::printf("  (* = Pareto-efficient)\n\n");
  }
  std::printf(
      "Tip: compare against the Megatron-LM baseline with "
      "bench_fig12_end_to_end, or probe a single configuration with the "
      "quickstart example.\n");
  return 0;
}

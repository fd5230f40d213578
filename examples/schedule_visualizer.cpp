// Schedule visualizer: renders the paper's timeline figures as ASCII art —
// the default 1F1B schedule vs SlimPipe (Figure 4), the interleaved form
// (Figure 5), and the imbalance bubbles healed by context exchange
// (Figure 7). Optionally dumps the Figure 5 run as a Chrome trace.
//
// Usage:
//   ./build/examples/schedule_visualizer [--trace out.json]

#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/core/runner.hpp"
#include "src/model/transformer.hpp"
#include "src/obs/trace.hpp"
#include "src/util/units.hpp"

using namespace slim;

namespace {

sched::PipelineSpec base() {
  sched::PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.policy = model::CheckpointPolicy::None;
  spec.p = 4;
  spec.m = 2;
  spec.seq = 128 * 1024;
  return spec;
}

void show(const char* title, const sched::ScheduleResult& result) {
  std::printf("--- %s ---\n", title);
  std::printf("iteration %s | bubbles %s | MFU %s | peak %s\n",
              format_time(result.iteration_time).c_str(),
              format_percent(result.bubble_fraction).c_str(),
              format_percent(result.mfu).c_str(),
              format_bytes(result.peak_memory).c_str());
  std::printf("%s\n", result.ascii_timeline.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) trace_path = argv[i + 1];
  }

  // Figure 4 (top): the default 1F1B schedule.
  auto f1b = base();
  f1b.m = 4;
  show("default 1F1B (Figure 4, top)",
       core::run_scheme(core::Scheme::OneF1B, f1b, true));

  // Figure 4 (bottom): SlimPipe with 8 slices per microbatch.
  auto slim4 = base();
  slim4.m = 4;
  slim4.n = 8;
  slim4.vocab_parallel = true;
  slim4.context_exchange = true;
  show("SlimPipe, n=8 (Figure 4, bottom)",
       core::run_scheme(core::Scheme::SlimPipe, slim4, true));

  // Figure 5: the interleaving form, 2 stages per device, 2 microbatches.
  // This run is also the one --trace exports.
  auto slim5 = base();
  slim5.n = 8;
  slim5.v = 2;
  slim5.vocab_parallel = true;
  slim5.context_exchange = true;
  obs::Trace trace;
  show("interleaved SlimPipe, v=2 (Figure 5)",
       core::run_scheme(core::Scheme::SlimPipe, slim5, true, &trace));

  // Figure 7: imbalance bubbles without context exchange.
  auto imbalanced = base();
  imbalanced.seq = 512 * 1024;
  imbalanced.n = 16;
  imbalanced.vocab_parallel = true;
  imbalanced.context_exchange = false;
  show("uniform slicing without exchange (Figure 7)",
       core::run_scheme(core::Scheme::SlimPipe, imbalanced, true));
  imbalanced.context_exchange = true;
  show("with attention context exchange (Figure 8 applied)",
       core::run_scheme(core::Scheme::SlimPipe, imbalanced, true));

  if (trace_path != nullptr) {
    std::ofstream out(trace_path);
    out << obs::chrome_trace_json(trace);
    std::printf("Chrome trace written to %s (open chrome://tracing)\n",
                trace_path);
  }
  return 0;
}

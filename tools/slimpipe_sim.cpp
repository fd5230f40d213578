// slimpipe_sim — command-line front-end to the simulator.
//
// Simulate one training iteration of any pipeline scheme on any zoo model:
//
//   slimpipe_sim --model 70b --scheme slimpipe
//                --t 4 --c 2 --p 8 --v 5 --n 16 --m 4 --seq 262144
//                --ckpt none --offload 0.5 --timeline
//
// Or let the grid search pick the configuration:
//
//   slimpipe_sim --model 8x7b --scheme slimpipe --search --gpus 128
//                --seq 524288 --tokens 4194304
//
// Prints time / MFU / bubbles / memory; --timeline adds the ASCII schedule,
// --trace FILE dumps a Chrome trace.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <climits>
#include <memory>
#include <string>

#include "src/analysis/verify.hpp"
#include "src/core/context_exchange.hpp"
#include "src/core/runner.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/ir/schedule_ir.hpp"
#include "src/obs/report.hpp"
#include "src/obs/trace.hpp"
#include "src/parallel/search.hpp"
#include "src/sched/builder.hpp"
#include "src/util/table.hpp"
#include "src/util/units.hpp"
#include "tools/cli_flags.hpp"

using namespace slim;

namespace {

void usage() {
  std::printf(R"(usage: slimpipe_sim [options]

model / workload
  --model NAME       7b | 13b | 70b | 149b | 8x7b | 8x22b   (default 13b)
  --seq TOKENS       context length                          (default 131072)
  --m N              microbatches per iteration              (default 4)
  --tokens N         tokens per iteration (with --search)

scheme
  --scheme NAME      gpipe | terapipe | 1f1b | interleaved | zbv | vhalf |
                     vmin | slimpipe                         (default slimpipe)
  --t/--c/--e/--p N  tensor / context / expert / pipeline parallel sizes
  --d N              data parallel size (optimizer sharding) (default 1)
  --v N              stage chunks per device                 (default 1)
  --n N              slices per sequence (slimpipe/terapipe) (default p)
  --ckpt POLICY      none | selective | full                 (default none)
  --offload RATIO    activation offload fraction [0,1)       (default 0)
  --no-exchange      disable attention context exchange
  --adaptive         adaptive context exchange
  --no-vocab-par     keep the output layer on the last stage

modes
  --search           grid-search the configuration (needs --gpus, --tokens)
  --gpus N           world size for --search
  --timeline         print the ASCII schedule
  --trace FILE       write a Chrome trace JSON (chrome://tracing / Perfetto);
                     flow arrows link sends to receives, fault events appear
                     as instant markers
  --json FILE        write a slimpipe-bench-report JSON (slimpipe_report)
  --faults FILE      apply a fault plan (stragglers, link degradation,
                     crashes with checkpoint-restart) and print the report.
                     The plan is read, parsed and validated against p
                     before the run (exit 3 when it cannot be read or
                     parsed, or is invalid)
  --schedule FILE    run an external tabular-IR schedule instead of a
                     built-in scheme (see slimpipe_lint --emit-ir). The IR
                     header supplies p/v/n/m/layout/...; the remaining
                     options shape the workload. The schedule only runs if
                     the static verifier certifies it clean (exit 3 when
                     the file cannot be read or parsed, or is rejected)
)");
}

Table result_table(const sched::ScheduleResult& r) {
  Table table({"metric", "value"});
  table.add_row({"scheme", r.scheme});
  table.add_row({"iteration time", format_time(r.iteration_time)});
  if (r.fault_injected_seconds > 0.0 || r.fault_recovery_seconds > 0.0) {
    table.add_row({"fault slowdown injected",
                   format_time(r.fault_injected_seconds)});
    table.add_row({"crash recovery cost",
                   format_time(r.fault_recovery_seconds)});
  }
  table.add_row({"MFU", format_percent(r.mfu)});
  table.add_row({"bubble fraction", format_percent(r.bubble_fraction)});
  table.add_row({"peak memory", format_bytes(r.peak_memory)});
  table.add_row({"first device", format_bytes(r.first_device_memory)});
  table.add_row({"last device", format_bytes(r.last_device_memory)});
  if (r.exchange_bytes_max_device > 0) {
    table.add_row({"exchange volume (max device)",
                   format_bytes(r.exchange_bytes_max_device)});
  }
  table.add_row({"fits in device memory", r.oom ? "NO (OOM)" : "yes"});
  return table;
}

void print_result(const sched::ScheduleResult& r) {
  std::printf("%s", result_table(r).to_string().c_str());
}

/// Writes the run as a slimpipe-bench-report so slimpipe_sim output can be
/// rendered and diffed by slimpipe_report exactly like the bench reports.
bool write_json_report(const std::string& path,
                       const sched::ScheduleResult& r,
                       const std::string& model_name,
                       const std::string& setup) {
  obs::BenchReport report;
  report.name = "slimpipe_sim";
  report.artifact = "slimpipe_sim " + r.scheme + " / " + model_name;
  report.setup = setup;
  report.expectation = "single simulated iteration";
  report.add_series("result", result_table(r));
  report.runs.push_back(sched::to_run_record(r, r.scheme));
  return obs::write_report(report, path);
}

}  // namespace

int main(int argc, char** argv) {
  cli::SpecFlags flags(/*usage_status=*/1);
  std::string scheme_name = "slimpipe";
  std::string trace_path, faults_path, json_path, schedule_path;
  std::int64_t tokens = 0;
  int gpus = 0;
  bool search = false, timeline = false, adaptive = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) flags.fail("missing value for " + arg);
      return argv[++i];
    };
    if (flags.parse(arg, next)) continue;
    if (arg == "--scheme") scheme_name = next();
    else if (arg == "--tokens") tokens = flags.integer(arg, next(), 0);
    else if (arg == "--gpus") gpus = flags.integer(arg, next(), 0, INT_MAX);
    else if (arg == "--search") search = true;
    else if (arg == "--timeline") timeline = true;
    else if (arg == "--trace") trace_path = next();
    else if (arg == "--json") json_path = next();
    else if (arg == "--faults") faults_path = next();
    else if (arg == "--schedule") schedule_path = next();
    else if (arg == "--adaptive") adaptive = true;
    else if (arg == "--help" || arg == "-h") { usage(); return 0; }
    else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage();
      return 1;
    }
  }

  sched::PipelineSpec spec = flags.resolve();
  const auto scheme =
      flags.known(core::scheme_by_name(scheme_name), "scheme", scheme_name);

  if (search) {
    if (gpus <= 0 || tokens <= 0) {
      std::fprintf(stderr, "--search requires --gpus and --tokens\n");
      return 1;
    }
    parallel::SearchOptions opts;
    opts.simulate_top_k = 6;
    if (spec.offload.ratio > 0.0) {
      opts.offload_ratios = {0.0, spec.offload.ratio};
    }
    const auto r = parallel::grid_search(spec.cfg, spec.gpu, gpus, spec.seq,
                                         tokens, scheme, opts);
    if (r.status != parallel::SearchStatus::Ok) {
      std::printf("search: %s (%s)\n", parallel::to_string(r.status),
                  r.note.c_str());
      return 2;
    }
    std::printf("best configuration: %s\n", r.best.describe().c_str());
    print_result(r.result);
    return 0;
  }

  if (spec.n == 0) spec.n = scheme == core::Scheme::SlimPipe ? spec.p : 1;
  spec.vocab_parallel &= scheme == core::Scheme::SlimPipe;
  spec.adaptive_exchange = adaptive;

  try {
    // Every input file is read, parsed and checked before anything runs:
    // the schedule table first, since its header may change p, then the
    // fault plan against that p.
    std::optional<ir::ScheduleIR> table;
    if (!schedule_path.empty()) {
      table = cli::load_schedule(schedule_path, &spec);
      if (!table) return 3;
      const analysis::VerifyResult verdict = analysis::verify_ir(*table, spec);
      if (!verdict.ok()) {
        std::fprintf(stderr,
                     "%s: schedule rejected by the static verifier:\n%s",
                     schedule_path.c_str(),
                     analysis::render(verdict.findings).c_str());
        return 3;
      }
    }
    std::optional<fault::FaultPlan> plan;
    if (!faults_path.empty()) {
      plan = cli::load_fault_plan(faults_path, spec.p);
      if (!plan) return 3;
    }
    sched::ScheduleResult r;
    fault::FaultReport report;
    obs::Trace trace;
    obs::Trace* trace_out = trace_path.empty() ? nullptr : &trace;
    const fault::FaultPlan* plan_in = plan ? &*plan : nullptr;
    if (table) {
      // External schedule, certified above: run the table's programs through
      // the same pipeline as the schemes.
      std::unique_ptr<core::ExchangePlanner> planner;
      if (spec.context_exchange && spec.p > 1) {
        planner = std::make_unique<core::ExchangePlanner>(spec);
      }
      r = sched::run_pipeline(
          spec, ir::to_programs(*table), planner.get(),
          table->scheme.empty() ? std::string("external") : table->scheme,
          timeline, trace_out, plan_in, &report);
    } else {
      r = core::run_scheme(scheme, spec, timeline, trace_out, plan_in,
                           &report);
    }
    print_result(r);
    if (plan) std::printf("\n%s", report.render().c_str());
    if (timeline) std::printf("\n%s", r.ascii_timeline.c_str());
    if (!trace_path.empty()) {
      if (!cli::write_file(trace_path, obs::chrome_trace_json(trace),
                           "trace")) {
        return 1;
      }
      std::printf("\nChrome trace written to %s\n", trace_path.c_str());
    }
    if (!json_path.empty()) {
      const std::string setup = flags.model_name +
                                " t=" + std::to_string(spec.shard.t) +
                                " p=" + std::to_string(spec.p) +
                                " v=" + std::to_string(spec.v) +
                                " n=" + std::to_string(spec.n) +
                                " m=" + std::to_string(spec.m) +
                                " seq=" + std::to_string(spec.seq);
      if (!write_json_report(json_path, r, flags.model_name, setup)) {
        std::fprintf(stderr, "cannot write report '%s'\n", json_path.c_str());
        return 1;
      }
      std::printf("Report written to %s\n", json_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simulation failed: %s\n", e.what());
    return 2;
  }
  return 0;
}

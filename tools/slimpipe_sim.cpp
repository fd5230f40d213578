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
#include <fstream>
#include <iterator>
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
                     crashes with checkpoint-restart) and print the report
  --schedule FILE    run an external tabular-IR schedule instead of a
                     built-in scheme (see slimpipe_lint --emit-ir). The IR
                     header supplies p/v/n/m/layout/...; the remaining
                     options shape the workload. The schedule only runs if
                     the static verifier certifies it clean (exit 3 when it
                     is rejected)
)");
}

model::TransformerConfig pick_model(const std::string& name) {
  if (name == "7b") return model::llama7b();
  if (name == "13b") return model::llama13b();
  if (name == "70b") return model::llama70b();
  if (name == "149b") return model::llama149b();
  if (name == "8x7b") return model::mixtral8x7b();
  if (name == "8x22b") return model::mixtral8x22b();
  std::fprintf(stderr, "unknown model '%s'\n", name.c_str());
  std::exit(1);
}

core::Scheme pick_scheme(const std::string& name) {
  if (name == "gpipe") return core::Scheme::GPipe;
  if (name == "terapipe") return core::Scheme::TeraPipe;
  if (name == "1f1b") return core::Scheme::OneF1B;
  if (name == "interleaved") return core::Scheme::Interleaved1F1B;
  if (name == "zbv") return core::Scheme::ZBV;
  if (name == "vhalf") return core::Scheme::VHalf;
  if (name == "vmin") return core::Scheme::VMin;
  if (name == "slimpipe") return core::Scheme::SlimPipe;
  std::fprintf(stderr, "unknown scheme '%s'\n", name.c_str());
  std::exit(1);
}

model::CheckpointPolicy pick_policy(const std::string& name) {
  if (name == "none") return model::CheckpointPolicy::None;
  if (name == "selective") return model::CheckpointPolicy::Selective;
  if (name == "full") return model::CheckpointPolicy::Full;
  std::fprintf(stderr, "unknown checkpoint policy '%s'\n", name.c_str());
  std::exit(1);
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
  std::string model_name = "13b", scheme_name = "slimpipe", ckpt = "none";
  std::string trace_path, faults_path, json_path, schedule_path;
  std::int64_t seq = 131072, tokens = 0, t = 8, c = 1, e = 1, d = 1;
  int p = 4, v = 1, n = 0, m = 4, gpus = 0;
  double offload = 0.0;
  bool search = false, timeline = false, exchange = true, adaptive = false,
       vocab_parallel = true;

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(1);
      }
      return argv[++i];
    };
    const std::string arg = argv[i];
    if (arg == "--model") model_name = next();
    else if (arg == "--scheme") scheme_name = next();
    else if (arg == "--seq") seq = std::atoll(next());
    else if (arg == "--tokens") tokens = std::atoll(next());
    else if (arg == "--t") t = std::atoll(next());
    else if (arg == "--c") c = std::atoll(next());
    else if (arg == "--e") e = std::atoll(next());
    else if (arg == "--d") d = std::atoll(next());
    else if (arg == "--p") p = std::atoi(next());
    else if (arg == "--v") v = std::atoi(next());
    else if (arg == "--n") n = std::atoi(next());
    else if (arg == "--m") m = std::atoi(next());
    else if (arg == "--gpus") gpus = std::atoi(next());
    else if (arg == "--ckpt") ckpt = next();
    else if (arg == "--offload") offload = std::atof(next());
    else if (arg == "--search") search = true;
    else if (arg == "--timeline") timeline = true;
    else if (arg == "--trace") trace_path = next();
    else if (arg == "--json") json_path = next();
    else if (arg == "--faults") faults_path = next();
    else if (arg == "--schedule") schedule_path = next();
    else if (arg == "--no-exchange") exchange = false;
    else if (arg == "--adaptive") adaptive = true;
    else if (arg == "--no-vocab-par") vocab_parallel = false;
    else if (arg == "--help" || arg == "-h") { usage(); return 0; }
    else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage();
      return 1;
    }
  }

  const auto cfg = pick_model(model_name);
  const auto scheme = pick_scheme(scheme_name);
  const auto gpu = model::hopper80();

  if (search) {
    if (gpus <= 0 || tokens <= 0) {
      std::fprintf(stderr, "--search requires --gpus and --tokens\n");
      return 1;
    }
    parallel::SearchOptions opts;
    opts.simulate_top_k = 6;
    if (offload > 0.0) opts.offload_ratios = {0.0, offload};
    const auto r =
        parallel::grid_search(cfg, gpu, gpus, seq, tokens, scheme, opts);
    if (r.status != parallel::SearchStatus::Ok) {
      std::printf("search: %s (%s)\n", parallel::to_string(r.status),
                  r.note.c_str());
      return 2;
    }
    std::printf("best configuration: %s\n", r.best.describe().c_str());
    print_result(r.result);
    return 0;
  }

  sched::PipelineSpec spec;
  spec.cfg = cfg;
  spec.gpu = gpu;
  spec.shard = {t, c, e, 8};
  spec.policy = pick_policy(ckpt);
  spec.p = p;
  spec.v = v;
  spec.n = n > 0 ? n : (scheme == core::Scheme::SlimPipe ? p : 1);
  spec.m = m;
  spec.d = d;
  spec.seq = seq;
  spec.offload.ratio = offload;
  spec.offload.pcie_bandwidth = gpu.pcie_bandwidth;
  spec.vocab_parallel = vocab_parallel && scheme == core::Scheme::SlimPipe;
  spec.context_exchange = exchange;
  spec.adaptive_exchange = adaptive;

  try {
    sched::ScheduleResult r;
    fault::FaultReport report;
    fault::FaultPlan plan;
    if (!faults_path.empty()) {
      std::ifstream in(faults_path);
      if (!in) {
        std::fprintf(stderr, "cannot read fault plan '%s'\n",
                     faults_path.c_str());
        return 1;
      }
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      plan = fault::parse_plan(text);
    }
    obs::Trace trace;
    obs::Trace* trace_out = trace_path.empty() ? nullptr : &trace;
    const fault::FaultPlan* plan_in = faults_path.empty() ? nullptr : &plan;
    if (!schedule_path.empty()) {
      // External schedule: import, certify with the static verifier, then
      // run the table's programs through the same pipeline as the schemes.
      std::ifstream in(schedule_path);
      if (!in) {
        std::fprintf(stderr, "cannot read schedule '%s'\n",
                     schedule_path.c_str());
        return 1;
      }
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      const ir::ScheduleIR table = ir::import_text(text);
      spec = ir::apply_header(table, spec);
      const std::string err = spec.validate();
      if (!err.empty()) {
        std::fprintf(stderr, "%s: header yields an invalid spec: %s\n",
                     schedule_path.c_str(), err.c_str());
        return 3;
      }
      const analysis::VerifyResult verdict = analysis::verify_ir(table, spec);
      if (!verdict.ok()) {
        std::fprintf(stderr,
                     "%s: schedule rejected by the static verifier:\n%s",
                     schedule_path.c_str(),
                     analysis::render(verdict.findings).c_str());
        return 3;
      }
      std::unique_ptr<core::ExchangePlanner> planner;
      if (spec.context_exchange && spec.p > 1) {
        planner = std::make_unique<core::ExchangePlanner>(spec);
      }
      r = sched::run_pipeline(
          spec, ir::to_programs(table), planner.get(),
          table.scheme.empty() ? std::string("external") : table.scheme,
          timeline, trace_out, plan_in, &report);
    } else {
      r = core::run_scheme(scheme, spec, timeline, trace_out, plan_in,
                           &report);
    }
    print_result(r);
    if (!faults_path.empty()) std::printf("\n%s", report.render().c_str());
    if (timeline) std::printf("\n%s", r.ascii_timeline.c_str());
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      out << obs::chrome_trace_json(trace);
      std::printf("\nChrome trace written to %s\n", trace_path.c_str());
    }
    if (!json_path.empty()) {
      const std::string setup = model_name + " t=" + std::to_string(t) +
                                " p=" + std::to_string(p) +
                                " v=" + std::to_string(v) +
                                " n=" + std::to_string(spec.n) +
                                " m=" + std::to_string(m) +
                                " seq=" + std::to_string(seq);
      if (!write_json_report(json_path, r, model_name, setup)) {
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

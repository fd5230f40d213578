// plan_grid: grid_search answers for a list of Figure 12 cells.
// sim_large: one core::run_scheme of the ROADMAP reference iteration.
// Both report the simulator's phases, run one by one on the same specs.

#include <memory>
#include <optional>

#include "perfbench.hpp"
#include "src/analysis/findings.hpp"
#include "src/analysis/graph_check.hpp"
#include "src/analysis/schedule_check.hpp"
#include "src/analysis/verify.hpp"
#include "src/core/context_exchange.hpp"
#include "src/core/runner.hpp"
#include "src/ir/schedule_ir.hpp"
#include "src/memory/tracker.hpp"
#include "src/obs/metrics.hpp"
#include "src/parallel/search.hpp"
#include "src/sched/builder.hpp"
#include "src/sim/executor.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 3;
constexpr std::int64_t kPlanTokens = 4 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Simulator phases

/// The stages of one run_scheme, called one by one: plan, graph build (lint
/// off), the three analysis passes, execute, memory replay, metrics.
Metrics sim_phases(const sched::PipelineSpec& spec, obs::Recorder* rec,
                   Checks& checks) {
  Metrics out;
  core::SchedulePlan plan;
  std::unique_ptr<core::ExchangePlanner> planner;
  put(out, "core.plan_ms", 1e3 * timed(rec, "plan_scheme", [&] {
        plan = core::plan_scheme(core::Scheme::SlimPipe, spec);
        if (plan.spec.context_exchange && plan.spec.p > 1) {
          planner = std::make_unique<core::ExchangePlanner>(plan.spec);
        }
      }), "ms");

  const bool lint = sched::compile_lint_enabled();
  sched::set_compile_lint(false);
  sched::BuildOutput built;
  put(out, "sched.build_s", timed(rec, "compile", [&] {
        built = sched::compile(plan.spec, plan.programs, planner.get());
      }), "s");
  sched::set_compile_lint(lint);
  const sim::OpGraph& graph = *built.graph;
  double deps = 0.0;
  for (const sim::Op& op : graph.ops()) deps += static_cast<double>(op.deps.size());
  const double ops = static_cast<double>(graph.ops().size());
  put(out, "sched.ops", ops, "count");
  put(out, "sched.deps", deps, "count");

  std::vector<analysis::Finding> findings;
  analysis::ScheduleLintOptions lint_options;
  lint_options.max_inflight_units = plan.spec.max_inflight_units;
  put(out, "analysis.lint_s", timed(rec, "check_schedule", [&] {
        findings = analysis::check_schedule(plan.spec, plan.programs, lint_options);
      }), "s");
  checks.expect(!analysis::has_errors(findings), "schedule lint reported errors");
  ir::ScheduleIR table;
  put(out, "ir.lower_s", timed(rec, "ir::lower", [&] {
        table = ir::lower(plan.spec, plan.programs, "perfbench");
      }), "s");
  analysis::VerifyResult verdict;
  put(out, "analysis.verify_s", timed(rec, "verify_ir", [&] {
        verdict = analysis::verify_ir(table, plan.spec);
      }), "s");
  checks.expect(verdict.ok(), "IR verifier reported errors");
  put(out, "analysis.graph_check_s", timed(rec, "check_graph", [&] {
        findings = analysis::check_graph(graph, plan.spec);
      }), "s");
  checks.expect(!analysis::has_errors(findings), "graph lint reported errors");

  sim::ExecResult exec;
  const double execute_s =
      timed(rec, "sim::execute", [&] { exec = sim::execute(graph); });
  put(out, "sim.execute_s", execute_s, "s");
  put(out, "sim.ns_per_op", 1e9 * execute_s / std::max(1.0, ops), "ns");
  mem::MemoryReport memory;
  put(out, "memory.replay_s", timed(rec, "replay_memory", [&] {
        memory = mem::replay_memory(graph, exec, plan.spec.p, built.baseline);
      }), "s");
  put(out, "obs.metrics_s", timed(rec, "metrics_from_sim", [&] {
        obs::metrics_from_sim(graph, exec, plan.spec.p, &memory);
      }), "s");
  return out;
}

/// Sums the phase metrics of several specs.
void add_phases(Metrics& total, const Metrics& phases) {
  for (const Metric& m : phases) {
    bool found = false;
    for (Metric& t : total) {
      if (t.name == m.name) {
        t.value += m.value;
        found = true;
      }
    }
    if (!found) total.push_back(m);
  }
}

// ---------------------------------------------------------------------------
// plan_grid

struct Cell {
  model::TransformerConfig model;
  int gpus = 0;
  std::int64_t seq = 0;
};

/// Figure 12 cells: search plus many medium-sized graph compilations. The
/// planner is deterministic and the cells are fixed, so the seed has nothing
/// to vary here.
std::vector<Cell> plan_cells(const Run& run) {
  if (run.tiny) return {{model::llama13b(), 16, 32 * 1024}};
  return {{model::llama70b(), 128, 128 * 1024},
          {model::llama70b(), 256, 256 * 1024},
          {model::mixtral8x7b(), 128, 256 * 1024},
          {model::llama149b(), 512, 512 * 1024}};
}

struct Answer {
  parallel::SearchStatus status = parallel::SearchStatus::NoViableConfig;
  std::string config;
  double mfu = 0.0;
  bool operator==(const Answer&) const = default;
};

struct Pass {
  std::vector<Answer> answers;  // per cell: Interleaved 1F1B, SlimPipe
  std::vector<sched::PipelineSpec> winners;  // SlimPipe's best, per Ok cell
  double interleaved_s = 0.0;
  double slimpipe_s = 0.0;
  double valid = 0.0;
  double fit = 0.0;
};

Pass plan_pass(const std::vector<Cell>& cells, obs::Recorder* rec) {
  sched::set_compile_lint(false);  // as bench_fig12_end_to_end runs it
  parallel::SearchOptions options;
  options.simulate_top_k = 8;
  const model::GpuSpec gpu = model::hopper80();
  Pass pass;
  for (const Cell& cell : cells) {
    for (const core::Scheme scheme :
         {core::Scheme::Interleaved1F1B, core::Scheme::SlimPipe}) {
      parallel::SearchResult r;
      const double s = timed(rec, "grid_search", [&] {
        r = parallel::grid_search(cell.model, gpu, cell.gpus, cell.seq,
                                  kPlanTokens, scheme, options);
      });
      const bool ok = r.status == parallel::SearchStatus::Ok;
      pass.answers.push_back({r.status, ok ? r.best.describe() : "",
                              ok ? r.result.mfu : 0.0});
      pass.valid += r.candidates_valid;
      pass.fit += r.candidates_fit;
      if (scheme == core::Scheme::SlimPipe) {
        pass.slimpipe_s += s;
        if (ok) {
          pass.winners.push_back(parallel::make_spec(r.best, cell.model, gpu,
                                                     cell.seq, kPlanTokens));
        }
      } else {
        pass.interleaved_s += s;
      }
    }
  }
  return pass;
}

void check_pass(Checks& checks, const Pass& pass, const Pass& first) {
  checks.expect(pass.answers == first.answers,
                "planner answered differently from its first pass");
}

// ---------------------------------------------------------------------------
// sim_large

/// The ROADMAP reference iteration: Llama-70B, 128K, t=8, p=16, n=128,
/// m=64, with context exchange and vocabulary parallelism. Deterministic:
/// the seed has nothing to vary here.
sched::PipelineSpec sim_spec(const Run& run) {
  sched::PipelineSpec spec;
  spec.cfg = model::llama70b();
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.p = run.tiny ? 4 : 16;
  spec.n = run.tiny ? 8 : 128;
  spec.m = run.tiny ? 8 : 64;
  spec.seq = (run.tiny ? 32 : 128) * 1024;
  spec.vocab_parallel = true;
  spec.context_exchange = true;
  return spec;
}

sched::ScheduleResult sim_op(const sched::PipelineSpec& spec) {
  sched::set_compile_lint(true);  // the library default
  return core::run_scheme(core::Scheme::SlimPipe, spec);
}

/// Eq. 1 on every device, and the same result as the first call.
void check_sim(Checks& checks, const sched::PipelineSpec& spec,
               const sched::ScheduleResult& r,
               const sched::ScheduleResult& first) {
  const auto& stages = r.metrics.stages;
  checks.expect(static_cast<int>(stages.size()) == spec.p,
                "one metrics row per device");
  for (std::size_t d = 0; d < stages.size(); ++d) {
    const int want = std::min(spec.n + 2 * (spec.p - 1 - static_cast<int>(d)),
                              spec.m * spec.n);
    checks.expect(stages[d].peak_live_slices == want,
                  "device " + std::to_string(d) + " peak live slices " +
                      std::to_string(stages[d].peak_live_slices) +
                      " != Eq. 1 " + std::to_string(want));
  }
  checks.expect(r.iteration_time == first.iteration_time &&
                    r.mfu == first.mfu && r.peak_memory == first.peak_memory,
                "simulated iteration differs from the first call");
}

}  // namespace

Samples plan_e2e(const Run& run, Tally& tally) {
  Samples out;
  std::optional<Pass> first;
  std::vector<Cell> cells;
  for (int i = 0; i < kSetups; ++i) {
    tally.attempt("plan set-up", [&](Checks& checks) {
      const auto start = Clock::now();
      cells = plan_cells(run);
      const Pass warm = plan_pass(cells, nullptr);
      out.setup_s.push_back(since(start));
      if (!first) first = warm;
      check_pass(checks, warm, *first);
    });
  }
  out.peak_rss_mib = peak_rss_mib();
  if (first) {
    for_seconds(run.seconds, [&] {
      tally.attempt("plan pass", [&](Checks& checks) {
        const auto start = Clock::now();
        const Pass pass = plan_pass(cells, nullptr);
        out.op_s.push_back(since(start));
        check_pass(checks, pass, *first);
      });
    });
  }
  return out;
}

Metrics plan_layers(const Run& run, Tally& tally, obs::Recorder* rec) {
  const std::vector<Cell> cells = plan_cells(run);
  std::optional<Pass> first;
  tally.attempt("plan warm-up", [&](Checks&) { first = plan_pass(cells, nullptr); });
  std::vector<Metrics> samples;
  std::vector<double> untraced_s, traced_s;
  if (first) {
    for_seconds(run.seconds, [&] {
      tally.attempt("plan pass", [&](Checks& checks) {
        const auto start = Clock::now();
        const Pass pass = plan_pass(cells, nullptr);
        untraced_s.push_back(since(start));
        check_pass(checks, pass, *first);
        Metrics sample;
        put(sample, "parallel.search_slimpipe_s", pass.slimpipe_s, "s");
        put(sample, "parallel.search_interleaved_s", pass.interleaved_s, "s");
        put(sample, "parallel.candidates_valid", pass.valid, "count");
        put(sample, "parallel.candidates_fit", pass.fit, "count");
        for (const sched::PipelineSpec& spec : pass.winners) {
          add_phases(sample, sim_phases(spec, rec, checks));
        }
        samples.push_back(std::move(sample));
      });
      if (rec == nullptr) return;
      tally.attempt("traced plan pass", [&](Checks& checks) {
        const auto start = Clock::now();
        const Pass pass = plan_pass(cells, rec);
        traced_s.push_back(since(start));
        check_pass(checks, pass, *first);
      });
    });
  }
  Metrics out = median_of(samples);
  if (rec != nullptr) {
    put(out, "obs.trace_overhead_s", median(traced_s) - median(untraced_s), "s");
  }
  return out;
}

Samples sim_e2e(const Run& run, Tally& tally) {
  Samples out;
  std::optional<sched::ScheduleResult> first;
  sched::PipelineSpec spec;
  for (int i = 0; i < kSetups; ++i) {
    tally.attempt("sim set-up", [&](Checks& checks) {
      const auto start = Clock::now();
      spec = sim_spec(run);
      const sched::ScheduleResult warm = sim_op(spec);
      out.setup_s.push_back(since(start));
      if (!first) first = warm;
      check_sim(checks, spec, warm, *first);
    });
  }
  out.peak_rss_mib = peak_rss_mib();
  if (first) {
    for_seconds(run.seconds, [&] {
      tally.attempt("run_scheme", [&](Checks& checks) {
        sched::ScheduleResult r;
        out.op_s.push_back(timed(nullptr, "", [&] { r = sim_op(spec); }));
        check_sim(checks, spec, r, *first);
      });
    });
  }
  return out;
}

Metrics sim_layers(const Run& run, Tally& tally, obs::Recorder* rec) {
  const sched::PipelineSpec spec = sim_spec(run);
  std::optional<sched::ScheduleResult> first;
  tally.attempt("sim warm-up", [&](Checks& checks) {
    first = sim_op(spec);
    check_sim(checks, spec, *first, *first);
  });
  std::vector<Metrics> samples;
  std::vector<double> untraced_s, traced_s;
  if (first) {
    for_seconds(run.seconds, [&] {
      tally.attempt("run_scheme", [&](Checks& checks) {
        sched::ScheduleResult r;
        untraced_s.push_back(timed(nullptr, "", [&] { r = sim_op(spec); }));
        check_sim(checks, spec, r, *first);
        samples.push_back(sim_phases(spec, rec, checks));
      });
      if (rec == nullptr) return;
      tally.attempt("traced run_scheme", [&](Checks& checks) {
        sched::ScheduleResult r;
        traced_s.push_back(timed(rec, "run_scheme", [&] { r = sim_op(spec); }));
        check_sim(checks, spec, r, *first);
      });
    });
  }
  Metrics out = median_of(samples);
  if (rec != nullptr) {
    put(out, "obs.trace_overhead_s", median(traced_s) - median(untraced_s), "s");
  }
  return out;
}

}  // namespace perfbench

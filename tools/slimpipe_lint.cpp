// slimpipe_lint — static analysis front-end.
//
// Lints a scheme/spec combination without running the simulator: generates
// the scheme's per-device programs and runs the schedule verifier once
// (spec validity, then the lowered table's structure, causality, deadlock,
// progress, the scheme's declared in-flight activation bound and the memory
// certificate). A certified schedule is then built into an op graph, which
// must succeed and pass the vocabulary-op check. Any Error finding fails
// the run.
//
//   slimpipe_lint --scheme slimpipe --model 13b --p 4 --n 8 --m 8
//   slimpipe_lint --scheme all --p 8
//   slimpipe_lint --sweep                      # acceptance grid, all schemes
//   slimpipe_lint --scheme 1f1b --emit-ir s.ir # export the lowered schedule
//   slimpipe_lint --ir s.ir                    # certify an external schedule
//
// Exit status: 0 = clean, 1 = lint findings, 2 = usage error,
// 3 = verifier errors (ir-structure / verify-* rules, or unreadable IR).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/graph_check.hpp"
#include "src/analysis/schedule_check.hpp"
#include "src/analysis/verify.hpp"
#include "src/core/context_exchange.hpp"
#include "src/core/runner.hpp"
#include "src/ir/schedule_ir.hpp"
#include "src/sched/builder.hpp"
#include "src/util/table.hpp"
#include "src/util/units.hpp"
#include "tools/cli_flags.hpp"

using namespace slim;

namespace {

void usage() {
  std::printf(R"(usage: slimpipe_lint [options]

model / workload
  --model NAME       7b | 13b | 70b | 149b | 8x7b | 8x22b   (default 13b)
  --seq TOKENS       context length                          (default 131072)
  --m N              microbatches per iteration              (default 4)

scheme / schedule
  --scheme NAME      gpipe | terapipe | 1f1b | interleaved | zbv | vhalf |
                     vmin | slimpipe | all                   (default all)
  --t/--c/--e/--p N  tensor / context / expert / pipeline parallel sizes
  --d N              data parallel size (optimizer sharding) (default 1)
  --v N              stage chunks per device                 (default 1)
  --n N              slices per sequence (slimpipe/terapipe) (default p)
  --ckpt POLICY      none | selective | full                 (default none)
  --offload RATIO    activation offload fraction [0,1)       (default 0)
  --no-exchange      disable attention context exchange
  --no-vocab-par     keep the output layer on the last stage

modes
  --sweep            lint every scheme over p in {2,4,8}, n in {1,4},
                     m in {p, 2p} (other options fix the rest of the spec);
                     identical findings are reported once across points
  --emit-ir FILE     write the scheme's lowered tabular IR to FILE
                     ("-" = stdout); requires a single --scheme
  --ir FILE          certify an external IR schedule file instead of a
                     scheme (workload options still shape the spec; the
                     IR header supplies p/v/n/m/layout/...)
  --verbose          print a line for clean combinations too

exit status
  0 = clean, 1 = lint findings, 2 = usage error (or an --emit-ir FILE
  that cannot be written), 3 = verifier errors (ir-structure / verify-*
  rules, or unreadable IR)
)");
}

/// Runs the verifier and the graph check over one scheme/spec combination
/// and returns the combined findings. Exceptions from plan generation or
/// graph building (SLIM_CHECK failures) surface as a synthetic
/// `internal-error` finding.
std::vector<analysis::Finding> lint_combo(core::Scheme scheme,
                                          sched::PipelineSpec spec) {
  std::vector<analysis::Finding> findings;
  try {
    const core::SchedulePlan plan = core::plan_scheme(scheme, std::move(spec));

    analysis::ScheduleLintOptions sched_opts;
    sched_opts.max_inflight_units = plan.spec.max_inflight_units;
    findings = analysis::check_schedule(plan.spec, plan.programs, sched_opts);
    // A schedule the verifier rejects cannot be compiled meaningfully.
    if (analysis::has_errors(findings)) return findings;

    // Build the graph ourselves (the in-compile verifier off, it just ran)
    // so the graph check's findings come back as findings.
    const bool lint_was_on = sched::compile_lint_enabled();
    sched::set_compile_lint(false);
    std::unique_ptr<core::ExchangePlanner> planner;
    if (plan.spec.context_exchange && plan.spec.p > 1) {
      planner = std::make_unique<core::ExchangePlanner>(plan.spec);
    }
    sched::BuildOutput built;
    try {
      built = sched::compile(plan.spec, plan.programs, planner.get());
    } catch (...) {
      sched::set_compile_lint(lint_was_on);
      throw;
    }
    sched::set_compile_lint(lint_was_on);

    const std::vector<analysis::Finding> graph_findings =
        analysis::check_graph(*built.graph, plan.spec);
    findings.insert(findings.end(), graph_findings.begin(),
                    graph_findings.end());
  } catch (const std::exception& e) {
    findings.push_back({analysis::Severity::Error, "internal-error",
                        std::string(core::scheme_name(scheme)), e.what()});
  }
  return findings;
}

std::string combo_label(core::Scheme scheme, const sched::PipelineSpec& spec) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s p=%d v=%d n=%d m=%d",
                core::scheme_name(scheme), spec.p, spec.v, spec.n, spec.m);
  return buf;
}

/// The ir-structure and verify-* rules (a schedule that cannot run as
/// written) get their own exit code, so drivers can tell a rejected
/// schedule from a lint nit such as sched-inflight-bound or sched-spec.
bool is_verifier_finding(const analysis::Finding& finding) {
  return finding.rule_id == "ir-structure" ||
         finding.rule_id.rfind("verify-", 0) == 0;
}

/// Certifies an external IR schedule file: import, overlay the header onto
/// the workload spec, run the verifier. Returns the exit status (0/1/3).
int lint_ir_file(const std::string& path, sched::PipelineSpec spec,
                 bool verbose) {
  const std::optional<ir::ScheduleIR> table = cli::load_schedule(path, &spec);
  if (!table) return 3;
  std::vector<analysis::Finding> findings;
  try {
    const analysis::VerifyResult verdict = analysis::verify_ir(*table, spec);
    findings = verdict.findings;
    if (findings.empty()) {
      std::printf("%s: %s certified clean (%zu rows)\n", path.c_str(),
                  table->scheme.c_str(), table->rows.size());
      if (verbose) {
        for (const analysis::StageCertificate& sc :
             verdict.certificate.stages) {
          std::printf("  stage %d (dev %d): certified peak %.3f GiB\n",
                      sc.stage, sc.device, sc.peak_bytes / kGiB);
        }
      }
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 3;
  }

  std::printf("%s: %s\n%s", path.c_str(),
              analysis::summary(findings).c_str(),
              analysis::render(findings).c_str());
  for (const analysis::Finding& finding : findings) {
    if (is_verifier_finding(finding)) return 3;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  cli::SpecFlags flags(/*usage_status=*/2);
  std::string scheme_name = "all", ir_path, emit_ir_path;
  bool sweep = false, verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) flags.fail("missing value for " + arg);
      return argv[++i];
    };
    if (flags.parse(arg, next)) continue;
    if (arg == "--scheme") scheme_name = next();
    else if (arg == "--sweep") sweep = true;
    else if (arg == "--ir") ir_path = next();
    else if (arg == "--emit-ir") emit_ir_path = next();
    else if (arg == "--verbose") verbose = true;
    else if (arg == "--help" || arg == "-h") { usage(); return 0; }
    else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage();
      return 2;
    }
  }

  sched::PipelineSpec base = flags.resolve();
  const std::vector<core::Scheme> schemes =
      scheme_name == "all"
          ? core::all_schemes()
          : std::vector<core::Scheme>{
                flags.known(core::scheme_by_name(scheme_name), "scheme",
                            scheme_name)};

  if (!ir_path.empty()) {
    if (sweep || !emit_ir_path.empty()) {
      std::fprintf(stderr, "--ir cannot be combined with --sweep/--emit-ir\n");
      return 2;
    }
    if (base.n == 0) base.n = 1;
    return lint_ir_file(ir_path, base, verbose);
  }

  struct Combo {
    core::Scheme scheme;
    sched::PipelineSpec spec;
  };
  std::vector<Combo> combos;
  if (sweep) {
    for (const core::Scheme scheme : schemes) {
      for (const int sp : {2, 4, 8}) {
        for (const int sn : {1, 4}) {
          for (const int sm : {sp, 2 * sp}) {
            sched::PipelineSpec spec = base;
            spec.p = sp;
            spec.n = sn;
            spec.m = sm;
            if (scheme == core::Scheme::TeraPipe && sn > 1 && sn % sp != 0) {
              // Uniform slicing requires n to be a multiple of p; TeraPipe
              // (unlike SlimPipe) does not normalize n, so round it up.
              spec.n = ((sn + sp - 1) / sp) * sp;
            }
            spec.vocab_parallel &= scheme == core::Scheme::SlimPipe;
            combos.push_back({scheme, std::move(spec)});
          }
        }
      }
    }
  } else {
    for (const core::Scheme scheme : schemes) {
      sched::PipelineSpec spec = base;
      if (spec.n == 0) spec.n = scheme == core::Scheme::SlimPipe ? spec.p : 1;
      spec.vocab_parallel &= scheme == core::Scheme::SlimPipe;
      combos.push_back({scheme, std::move(spec)});
    }
  }

  if (!emit_ir_path.empty()) {
    if (combos.size() != 1) {
      std::fprintf(stderr,
                   "--emit-ir needs exactly one combination (give a single "
                   "--scheme, no --sweep)\n");
      return 2;
    }
    const core::SchedulePlan plan =
        core::plan_scheme(combos[0].scheme, combos[0].spec);
    const ir::ScheduleIR table =
        ir::lower(plan.spec, plan.programs, core::scheme_name(plan.scheme));
    const std::string text = ir::export_text(table);
    if (emit_ir_path == "-") {
      std::fputs(text.c_str(), stdout);
    } else {
      if (!cli::write_file(emit_ir_path, text)) return 2;
      std::printf("wrote %s (%zu rows)\n", emit_ir_path.c_str(),
                  table.rows.size());
    }
    return 0;
  }

  int dirty = 0;
  bool verifier_errors = false;
  std::size_t total_findings = 0, duplicates = 0;
  // Sweep points often repeat one root cause (same rule, location, message)
  // at every grid size; report each distinct finding once.
  std::set<std::string> seen;
  for (const Combo& combo : combos) {
    auto findings = lint_combo(combo.scheme, combo.spec);
    const std::string label = combo_label(combo.scheme, combo.spec);
    for (const analysis::Finding& finding : findings) {
      verifier_errors = verifier_errors || is_verifier_finding(finding);
    }
    if (sweep) {
      std::vector<analysis::Finding> fresh;
      for (analysis::Finding& finding : findings) {
        const std::string key =
            finding.rule_id + '\x1f' + finding.location + '\x1f' +
            finding.message;
        if (seen.insert(key).second) fresh.push_back(std::move(finding));
        else ++duplicates;
      }
      findings = std::move(fresh);
      if (findings.empty() && duplicates > 0) {
        // Dirty point, but everything on it was already reported.
        continue;
      }
    }
    if (findings.empty()) {
      if (verbose) std::printf("%-40s clean\n", label.c_str());
      continue;
    }
    ++dirty;
    total_findings += findings.size();
    std::printf("%s: %s\n%s", label.c_str(),
                analysis::summary(findings).c_str(),
                analysis::render(findings).c_str());
  }

  if (dirty == 0 && total_findings == 0 && duplicates == 0) {
    std::printf("%zu combination%s linted, no findings\n", combos.size(),
                combos.size() == 1 ? "" : "s");
    return 0;
  }
  std::printf("%d of %zu combinations with findings (%zu distinct", dirty,
              combos.size(), total_findings);
  if (duplicates > 0) {
    std::printf(", %zu duplicate%s suppressed", duplicates,
                duplicates == 1 ? "" : "s");
  }
  std::printf(")\n");
  return verifier_errors ? 3 : 1;
}

// Static analysis (src/analysis): check_schedule, the per-device-program
// entry point of the schedule verifier, the graph check, and their wiring
// into sched::compile. The verifier's table-level fixtures live in
// test_ir.cpp.
//
// Strategy: every corrupted program fixture asserts the exact rule_id that
// catches it, plus a clean sweep over all seed schemes proving the rules
// have no false positives on correct schedules.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/analysis/findings.hpp"
#include "src/analysis/graph_check.hpp"
#include "src/analysis/schedule_check.hpp"
#include "src/core/context_exchange.hpp"
#include "src/core/runner.hpp"
#include "src/sched/builder.hpp"
#include "src/sched/schedule.hpp"

namespace {

using namespace slim;
using analysis::Finding;
using analysis::has_rule;
using analysis::Severity;
using sched::Pass;
using sched::PassType;

sched::PipelineSpec base_spec(int p, int n, int m) {
  sched::PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.p = p;
  spec.v = 1;
  spec.n = n;
  spec.m = m;
  spec.seq = 131072;
  spec.offload.pcie_bandwidth = spec.gpu.pcie_bandwidth;
  return spec;
}

/// Restores the process-global compile lint toggle on scope exit, so a
/// failing assertion cannot leak a disabled lint into other tests.
struct LintGuard {
  bool saved = sched::compile_lint_enabled();
  ~LintGuard() { sched::set_compile_lint(saved); }
};

/// Compiles a plan with the in-compile verifier disabled, so a graph the
/// check rejects comes back as findings instead of aborting compile().
sched::BuildOutput compile_unlinted(const core::SchedulePlan& plan) {
  LintGuard guard;
  sched::set_compile_lint(false);
  std::unique_ptr<core::ExchangePlanner> planner;
  if (plan.spec.context_exchange && plan.spec.p > 1) {
    planner = std::make_unique<core::ExchangePlanner>(plan.spec);
  }
  return sched::compile(plan.spec, plan.programs, planner.get());
}

std::vector<Finding> lint_schedule(const core::SchedulePlan& plan) {
  analysis::ScheduleLintOptions options;
  options.max_inflight_units = plan.max_inflight_units;
  return analysis::check_schedule(plan.spec, plan.programs, options);
}

// ---------------------------------------------------------------------------
// Clean sweep: all schemes over the acceptance grid produce zero findings
// from the verifier and the graph check (and the scheme's declared
// in-flight bound holds).

TEST(AnalysisSweep, AllSchemesCleanAcrossGrid) {
  for (const core::Scheme scheme : core::all_schemes()) {
    for (const int p : {2, 4, 8}) {
      for (int n : {1, 4}) {
        for (const int m : {p, 2 * p}) {
          if (scheme == core::Scheme::TeraPipe && n > 1 && n % p != 0) {
            n = ((n + p - 1) / p) * p;  // uniform slicing: n multiple of p
          }
          sched::PipelineSpec spec = base_spec(p, n, m);
          spec.context_exchange = true;
          spec.vocab_parallel = scheme == core::Scheme::SlimPipe;
          SCOPED_TRACE(std::string(core::scheme_name(scheme)) + " p=" +
                       std::to_string(p) + " n=" + std::to_string(n) +
                       " m=" + std::to_string(m));
          const core::SchedulePlan plan = core::plan_scheme(scheme, spec);
          const auto sched_findings = lint_schedule(plan);
          EXPECT_TRUE(sched_findings.empty())
              << analysis::render(sched_findings);
          const auto built = compile_unlinted(plan);
          const auto graph_findings =
              analysis::check_graph(*built.graph, plan.spec);
          EXPECT_TRUE(graph_findings.empty())
              << analysis::render(graph_findings);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Corrupted programs: each fixture asserts the verifier rule that catches
// it.

TEST(ScheduleCheck, DroppedBackwardFiresBackwardMultiplicity) {
  // The unit keeps its forward but is never retired: verify-progress.
  core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::OneF1B, base_spec(2, 1, 4));
  auto& program = plan.programs[0];
  const auto it = std::find_if(
      program.begin(), program.end(),
      [](const Pass& pass) { return pass.type == PassType::Backward; });
  ASSERT_NE(it, program.end());
  program.erase(it);
  const auto findings = lint_schedule(plan);
  EXPECT_TRUE(has_rule(findings, "verify-progress"))
      << analysis::render(findings);
  EXPECT_TRUE(analysis::has_errors(findings));
}

TEST(ScheduleCheck, DuplicatedForwardFiresForwardMultiplicity) {
  // F=2 for one unit: verify-progress.
  core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::OneF1B, base_spec(2, 1, 4));
  auto& program = plan.programs[1];
  ASSERT_EQ(program.front().type, PassType::Forward);
  program.push_back(program.front());
  const auto findings = lint_schedule(plan);
  EXPECT_TRUE(has_rule(findings, "verify-progress"))
      << analysis::render(findings);
}

TEST(ScheduleCheck, ZbvWeightBeforeInputFiresBackwardOrder) {
  core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::ZBV, base_spec(4, 1, 8));
  // Swap the first BackwardInput with its unit's BackwardWeight: the W half
  // then runs before the I half it waits on, a BI -> BW edge against
  // program order: verify-deadlock.
  auto& program = plan.programs[0];
  const auto input = std::find_if(
      program.begin(), program.end(),
      [](const Pass& pass) { return pass.type == PassType::BackwardInput; });
  ASSERT_NE(input, program.end());
  const auto weight = std::find_if(
      program.begin(), program.end(), [&](const Pass& pass) {
        return pass.type == PassType::BackwardWeight &&
               pass.microbatch == input->microbatch &&
               pass.slice == input->slice && pass.chunk == input->chunk;
      });
  ASSERT_NE(weight, program.end());
  std::iter_swap(input, weight);
  const auto findings = lint_schedule(plan);
  EXPECT_TRUE(has_rule(findings, "verify-deadlock"))
      << analysis::render(findings);
}

TEST(ScheduleCheck, BackwardBeforeForwardFiresBackwardOrder) {
  core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::OneF1B, base_spec(2, 1, 4));
  // The last stage runs strict 1F1B: F0 B0 F1 B1 ... — swapping the first
  // two passes schedules B0 before the forward it waits on (an F -> B edge
  // against program order): verify-deadlock.
  auto& program = plan.programs[1];
  ASSERT_GE(program.size(), 2u);
  ASSERT_EQ(program[0].type, PassType::Forward);
  ASSERT_EQ(program[1].type, PassType::Backward);
  std::swap(program[0], program[1]);
  const auto findings = lint_schedule(plan);
  EXPECT_TRUE(has_rule(findings, "verify-deadlock"))
      << analysis::render(findings);
}

TEST(ScheduleCheck, GpipeAccumulationExceedsOneF1bBound) {
  // GPipe holds all m = 8 microbatches; against 1F1B's declared cap of
  // p = 2 the ledger must flag the third warm-up forward.
  const core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::GPipe, base_spec(2, 1, 8));
  analysis::ScheduleLintOptions options;
  options.max_inflight_units = 2.0;
  const auto findings =
      analysis::check_schedule(plan.spec, plan.programs, options);
  EXPECT_TRUE(has_rule(findings, "sched-inflight-bound"))
      << analysis::render(findings);
  // One report per device, not one per excess pass.
  EXPECT_EQ(analysis::count(findings, Severity::Error),
            static_cast<std::size_t>(plan.spec.p));
}

TEST(ScheduleCheck, DeclaredBoundIsTightForOneF1b) {
  // The scheme's own cap passes; cap - 1 fails. Proves the ledger tracks
  // the warm-up depth exactly rather than being merely loose.
  const core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::OneF1B, base_spec(4, 1, 8));
  analysis::ScheduleLintOptions options;
  options.max_inflight_units = plan.max_inflight_units;
  EXPECT_TRUE(
      analysis::check_schedule(plan.spec, plan.programs, options).empty());
  options.max_inflight_units = plan.max_inflight_units - 1.0;
  EXPECT_TRUE(has_rule(
      analysis::check_schedule(plan.spec, plan.programs, options),
      "sched-inflight-bound"));
}

TEST(ScheduleCheck, OutOfRangeChunkFiresPassRange) {
  core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::OneF1B, base_spec(2, 1, 4));
  plan.programs[0][0].chunk = 5;  // v == 1: only chunk 0 exists
  const auto findings = lint_schedule(plan);
  EXPECT_TRUE(has_rule(findings, "ir-structure"))
      << analysis::render(findings);
}

TEST(ScheduleCheck, InvalidSpecFiresSpecRule) {
  sched::PipelineSpec spec = base_spec(2, 1, 4);
  spec.seq = 0;
  const auto findings = analysis::check_schedule(spec, {{}, {}});
  EXPECT_TRUE(has_rule(findings, "sched-spec")) << analysis::render(findings);
}

TEST(ScheduleCheck, BrokenLayoutFiresRoundtrip) {
  // Sequential layout with v = 2 would map stages >= p outside the device
  // range; sched-spec rejects the input before any layout lookup.
  // StageLayoutTest (test_sched) checks the round trip of every layout.
  sched::PipelineSpec spec = base_spec(2, 1, 4);
  spec.v = 2;
  spec.layout = sched::StageLayoutKind::Sequential;
  const auto findings = analysis::check_schedule(spec, {{}, {}});
  EXPECT_TRUE(has_rule(findings, "sched-spec")) << analysis::render(findings);
}

TEST(ScheduleCheck, WrongProgramCountReported) {
  const core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::OneF1B, base_spec(4, 1, 4));
  std::vector<sched::DeviceProgram> short_programs(plan.programs.begin(),
                                                   plan.programs.end() - 1);
  const auto findings = analysis::check_schedule(plan.spec, short_programs);
  EXPECT_TRUE(has_rule(findings, "ir-structure"))
      << analysis::render(findings);
}

// ---------------------------------------------------------------------------
// Graph check: the one rule about ops the table does not have.

TEST(GraphCheck, VocabFlagMismatchReported) {
  // Build a SlimPipe graph WITHOUT vocabulary parallelism (explicit vocab
  // ops exist), then lint it against a spec claiming vocab parallelism.
  sched::PipelineSpec spec = base_spec(2, 2, 2);
  spec.vocab_parallel = false;
  const core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::SlimPipe, spec);
  const auto built = compile_unlinted(plan);
  EXPECT_TRUE(analysis::check_graph(*built.graph, plan.spec).empty());

  sched::PipelineSpec claimed = plan.spec;
  claimed.vocab_parallel = true;
  const auto findings = analysis::check_graph(*built.graph, claimed);
  EXPECT_TRUE(has_rule(findings, "graph-vocab-ops"))
      << analysis::render(findings);

  // And the converse: a vocab-parallel graph has no explicit vocab ops, so
  // a spec claiming otherwise misses its m * n expected ops.
  sched::PipelineSpec par = plan.spec;
  par.vocab_parallel = true;
  const core::SchedulePlan par_plan =
      core::plan_scheme(core::Scheme::SlimPipe, par);
  const auto par_built = compile_unlinted(par_plan);
  EXPECT_TRUE(analysis::check_graph(*par_built.graph, par_plan.spec).empty());
  sched::PipelineSpec unclaimed = par_plan.spec;
  unclaimed.vocab_parallel = false;
  EXPECT_TRUE(has_rule(analysis::check_graph(*par_built.graph, unclaimed),
                       "graph-vocab-ops"));
}

// ---------------------------------------------------------------------------
// Wiring: compile() aborts on corrupted programs when the verifier is on and
// accepts them when it is off.

TEST(CompileLint, RejectsCorruptedProgram) {
  LintGuard guard;
  sched::set_compile_lint(true);
  core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::OneF1B, base_spec(2, 1, 4));
  auto& program = plan.programs[0];
  const auto it = std::find_if(
      program.begin(), program.end(),
      [](const Pass& pass) { return pass.type == PassType::Backward; });
  ASSERT_NE(it, program.end());
  program.erase(it);
  EXPECT_THROW(sched::compile(plan.spec, plan.programs, nullptr),
               std::logic_error);
}

TEST(CompileLint, ToggleDisablesTheLint) {
  LintGuard guard;
  core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::OneF1B, base_spec(2, 1, 4));
  plan.programs[0].push_back(plan.programs[0].front());  // duplicate forward
  sched::set_compile_lint(false);
  EXPECT_FALSE(sched::compile_lint_enabled());
  const auto built = sched::compile(plan.spec, plan.programs, nullptr);
  EXPECT_NE(built.graph, nullptr);
  sched::set_compile_lint(true);
  EXPECT_TRUE(sched::compile_lint_enabled());
  EXPECT_THROW(sched::compile(plan.spec, plan.programs, nullptr),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// The scheme's declared in-flight cap travels through the spec: plan_scheme
// stamps it, and compile() enforces it on the main simulation path.

TEST(CompileInflightBound, PlanThreadsDeclaredCapThroughSpec) {
  const core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::GPipe, base_spec(2, 1, 4));
  EXPECT_GT(plan.max_inflight_units, 0.0);
  EXPECT_EQ(plan.spec.max_inflight_units, plan.max_inflight_units);
}

TEST(CompileInflightBound, CompileRejectsScheduleOverDeclaredCap) {
  LintGuard guard;
  sched::set_compile_lint(true);
  core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::GPipe, base_spec(2, 1, 4));
  // The honest cap compiles clean...
  EXPECT_NO_THROW(sched::compile(plan.spec, plan.programs, nullptr));
  // ...an understated one is rejected before any graph is built.
  plan.spec.max_inflight_units = 1.0;  // GPipe holds all m = 4 units
  try {
    sched::compile(plan.spec, plan.programs, nullptr);
    FAIL() << "compile accepted a schedule over its declared in-flight cap";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("sched-inflight-bound"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Finding plumbing.

TEST(Findings, RenderSummaryAndQueries) {
  std::vector<Finding> findings;
  EXPECT_EQ(analysis::summary(findings), "clean");
  EXPECT_FALSE(analysis::has_errors(findings));
  findings.push_back({Severity::Warning, "verify-causality", "op 3",
                      "posting order inverted"});
  findings.push_back({Severity::Error, "verify-deadlock", "dev 0 row 2",
                      "backward before forward"});
  EXPECT_TRUE(analysis::has_errors(findings));
  EXPECT_EQ(analysis::count(findings, Severity::Error), 1u);
  EXPECT_EQ(analysis::count(findings, Severity::Warning), 1u);
  EXPECT_TRUE(has_rule(findings, "verify-deadlock"));
  EXPECT_FALSE(has_rule(findings, "sched-inflight-bound"));
  const std::string table = analysis::render(findings);
  EXPECT_NE(table.find("verify-deadlock"), std::string::npos);
  EXPECT_NE(table.find("dev 0 row 2"), std::string::npos);
  EXPECT_EQ(analysis::summary(findings), "2 findings (1 errors, 1 warnings)");
}

}  // namespace

// Tabular schedule IR (src/ir) and the whole-schedule verification engine
// (src/analysis/verify).
//
// Strategy mirrors test_analysis: a clean differential sweep over every
// scheme proving lowering -> export -> import -> verify -> simulate is
// finding-free and identical to the direct path, deliberately corrupted
// fixtures per verify rule asserting the exact rule_id, a seeded mutation
// sweep proving verify-deadlock agrees with the simulator, a builder
// conformance sweep, a golden text file pinning the on-disk format, and a
// reconciliation of the static memory certificate against the simulator's
// replayed footprint.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/analysis/findings.hpp"
#include "src/analysis/verify.hpp"
#include "src/core/context_exchange.hpp"
#include "src/core/runner.hpp"
#include "src/core/slimpipe.hpp"
#include "src/ir/schedule_ir.hpp"
#include "src/memory/reconcile.hpp"
#include "src/sched/builder.hpp"
#include "src/sched/schedule.hpp"
#include "src/sim/executor.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace slim;
using analysis::has_rule;
using ir::kNoEndpoint;
using ir::Row;
using ir::ScheduleIR;
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

/// The acceptance grid: every scheme over p/n/m/v sweep points (TeraPipe's
/// n rounded up to a multiple of p, matching slimpipe_lint --sweep).
struct GridPoint {
  core::Scheme scheme;
  sched::PipelineSpec spec;
  std::string label;
};

std::vector<GridPoint> sweep_grid() {
  std::vector<GridPoint> points;
  for (const core::Scheme scheme : core::all_schemes()) {
    for (const int p : {2, 4}) {
      for (int n : {1, 4}) {
        for (const int m : {p, 2 * p}) {
          for (const int v : {1, 2}) {
            if (scheme == core::Scheme::TeraPipe && n > 1 && n % p != 0) {
              n = ((n + p - 1) / p) * p;
            }
            sched::PipelineSpec spec = base_spec(p, n, m);
            spec.v = v;
            spec.vocab_parallel = scheme == core::Scheme::SlimPipe;
            std::ostringstream label;
            label << core::scheme_name(scheme) << " p=" << p << " n=" << n
                  << " m=" << m << " v=" << v;
            points.push_back({scheme, std::move(spec), label.str()});
          }
        }
      }
    }
  }
  return points;
}

ScheduleIR lower_plan(const core::SchedulePlan& plan, core::Scheme scheme) {
  return ir::lower(plan.spec, plan.programs, core::scheme_name(scheme));
}

core::SchedulePlan onef1b_plan(int p, int m) {
  return core::plan_scheme(core::Scheme::OneF1B, base_spec(p, 1, m));
}

/// True when compile (with its verifier off) or sim::execute throws, as the
/// executor does on a dependency cycle.
bool simulator_rejects(const sched::PipelineSpec& spec,
                       const std::vector<sched::DeviceProgram>& programs,
                       const sched::ExchangeOracle* exchange) {
  const bool lint = sched::compile_lint_enabled();
  sched::set_compile_lint(false);
  bool rejected = false;
  try {
    const sched::BuildOutput built = sched::compile(spec, programs, exchange);
    sim::execute(*built.graph);
  } catch (const std::exception&) {
    rejected = true;
  }
  sched::set_compile_lint(lint);
  return rejected;
}

/// Renumbers each device's rows to contiguous order after a surgical edit,
/// keeping the structural rule out of fixtures that target another rule.
void renumber(ScheduleIR& table) {
  table.canonicalize();
  int device = -1, order = 0;
  for (Row& row : table.rows) {
    if (row.device != device) {
      device = row.device;
      order = 0;
    }
    row.order = order++;
  }
}

// ---------------------------------------------------------------------------
// Round trip: lowering every scheme exports to text that re-imports
// byte-identically and verifies clean.

TEST(IrRoundTrip, ExportImportByteIdenticalAcrossSweep) {
  for (const GridPoint& point : sweep_grid()) {
    SCOPED_TRACE(point.label);
    const core::SchedulePlan plan =
        core::plan_scheme(point.scheme, point.spec);
    const ScheduleIR table = lower_plan(plan, point.scheme);

    const std::string text = ir::export_text(table);
    const ScheduleIR imported = ir::import_text(text);
    EXPECT_EQ(imported, table);
    EXPECT_EQ(ir::export_text(imported), text);  // byte-identical

    // The header reproduces the normalized spec; re-lowering the
    // reconstructed programs under it reproduces the table exactly.
    const sched::PipelineSpec applied =
        ir::apply_header(imported, point.spec);
    EXPECT_EQ(applied.validate(), "");
    EXPECT_EQ(applied.max_inflight_units, plan.spec.max_inflight_units);
    const ScheduleIR relowered =
        ir::lower(applied, ir::to_programs(imported), table.scheme);
    EXPECT_EQ(relowered, table);

    const analysis::VerifyResult verdict =
        analysis::verify_ir(imported, applied);
    EXPECT_TRUE(verdict.ok()) << analysis::render(verdict.findings);
  }
}

// ---------------------------------------------------------------------------
// Differential: simulating the imported table is identical to the direct
// scheme path — same times, same memory, device by device.

TEST(IrDifferential, ImportedScheduleSimulatesIdentically) {
  for (const GridPoint& point : sweep_grid()) {
    SCOPED_TRACE(point.label);
    const core::SchedulePlan plan =
        core::plan_scheme(point.scheme, point.spec);

    std::unique_ptr<core::ExchangePlanner> direct_planner;
    if (plan.spec.context_exchange && plan.spec.p > 1) {
      direct_planner = std::make_unique<core::ExchangePlanner>(plan.spec);
    }
    const sched::ScheduleResult direct = sched::run_pipeline(
        plan.spec, plan.programs, direct_planner.get(), "diff");

    // The external path a user of slimpipe_sim --schedule takes.
    const ScheduleIR table =
        ir::import_text(ir::export_text(lower_plan(plan, point.scheme)));
    const sched::PipelineSpec applied = ir::apply_header(table, point.spec);
    const analysis::VerifyResult verdict =
        analysis::verify_ir(table, applied);
    ASSERT_TRUE(verdict.ok()) << analysis::render(verdict.findings);
    std::unique_ptr<core::ExchangePlanner> planner;
    if (applied.context_exchange && applied.p > 1) {
      planner = std::make_unique<core::ExchangePlanner>(applied);
    }
    const sched::ScheduleResult imported = sched::run_pipeline(
        applied, ir::to_programs(table), planner.get(), "diff");

    EXPECT_EQ(imported.iteration_time, direct.iteration_time);
    EXPECT_EQ(imported.bubble_fraction, direct.bubble_fraction);
    EXPECT_EQ(imported.mfu, direct.mfu);
    EXPECT_EQ(imported.peak_memory, direct.peak_memory);
    EXPECT_EQ(imported.first_device_memory, direct.first_device_memory);
    EXPECT_EQ(imported.last_device_memory, direct.last_device_memory);
    EXPECT_EQ(imported.device_peaks, direct.device_peaks);
    EXPECT_EQ(imported.exchange_bytes_max_device,
              direct.exchange_bytes_max_device);
    EXPECT_EQ(imported.oom, direct.oom);
  }
}

// ---------------------------------------------------------------------------
// Golden file: the text format is stable across changes — the checked-in
// export re-imports byte-identically and matches a fresh lowering.

TEST(IrGolden, GoldenFileRoundTripsAndMatchesLowering) {
  const std::string path =
      std::string(SLIM_TEST_DATA_DIR) + "/golden_1f1b_p2_m4.ir";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string golden = buffer.str();

  const ScheduleIR imported = ir::import_text(golden);
  EXPECT_EQ(ir::export_text(imported), golden);

  const core::SchedulePlan plan = onef1b_plan(2, 4);
  EXPECT_EQ(ir::lower(plan.spec, plan.programs, "1F1B"), imported);

  const sched::PipelineSpec applied =
      ir::apply_header(imported, base_spec(2, 1, 4));
  const analysis::VerifyResult verdict =
      analysis::verify_ir(imported, applied);
  EXPECT_TRUE(verdict.ok()) << analysis::render(verdict.findings);
}

// ---------------------------------------------------------------------------
// Corrupted fixtures: one per verify rule.

TEST(VerifyDeadlock, ReorderedBackwardYieldsWitnessCycle) {
  core::SchedulePlan plan = onef1b_plan(2, 2);
  // Device 0 demands B0 before it has forwarded anything. B0 waits on its
  // own F0 (the F -> B edge), stuck behind it: the minimal witness is that
  // 2-row cycle on device 0. A longer one also runs through device 1.
  sched::DeviceProgram& program = plan.programs[0];
  ASSERT_EQ(program.size(), 4u);
  ASSERT_EQ(program[2].type, PassType::Backward);
  const Pass backward = program[2];
  program.erase(program.begin() + 2);
  program.insert(program.begin(), backward);

  const analysis::VerifyResult verdict = analysis::verify_ir(
      lower_plan(plan, core::Scheme::OneF1B), plan.spec);
  ASSERT_TRUE(has_rule(verdict.findings, "verify-deadlock"))
      << analysis::render(verdict.findings);
  for (const analysis::Finding& finding : verdict.findings) {
    if (finding.rule_id != "verify-deadlock") continue;
    EXPECT_NE(finding.message.find("witness cycle"), std::string::npos)
        << finding.message;
    EXPECT_NE(finding.message.find("length 2"), std::string::npos)
        << finding.message;
  }
}

TEST(VerifyDeadlock, CrossDeviceCycleYieldsWitness) {
  // Device 0 runs F0 B0 F1 B1, device 1 runs F0 F1 B0 B1. Device 0's B0
  // waits for device 1's B0, queued behind device 1's F1, which waits for
  // device 0's F1, queued behind B0. Every edge inside one device follows
  // program order, so the only cycle needs both send/recv pairs.
  core::SchedulePlan plan = onef1b_plan(2, 2);
  const Pass f0{PassType::Forward, 0, 0, 0}, f1{PassType::Forward, 1, 0, 0};
  const Pass b0{PassType::Backward, 0, 0, 0}, b1{PassType::Backward, 1, 0, 0};
  plan.programs = {{f0, b0, f1, b1}, {f0, f1, b0, b1}};

  const analysis::VerifyResult verdict = analysis::verify_ir(
      lower_plan(plan, core::Scheme::OneF1B), plan.spec);
  ASSERT_TRUE(has_rule(verdict.findings, "verify-deadlock"))
      << analysis::render(verdict.findings);
  for (const analysis::Finding& finding : verdict.findings) {
    if (finding.rule_id != "verify-deadlock") continue;
    EXPECT_NE(finding.message.find("length 4"), std::string::npos)
        << finding.message;
    EXPECT_NE(finding.message.find("dev 0"), std::string::npos);
    EXPECT_NE(finding.message.find("dev 1"), std::string::npos);
  }
  EXPECT_TRUE(simulator_rejects(plan.spec, plan.programs, nullptr));
}

TEST(VerifyDeadlock, VShapeStageOrderYieldsWitnessCycle) {
  // ZB-V at p = 2 keeps stages 1 and 2 on device 1, so F(mb 0, stage 2)
  // consumes F(mb 0, stage 1)'s output without any transfer. Running it
  // first closes a cycle inside one device that no send/recv pair shows.
  core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::ZBV, base_spec(2, 1, 4));
  const sched::StageLayout layout = plan.spec.stage_layout();
  sched::DeviceProgram& program = plan.programs[1];
  auto forward_at = [&](int stage) {
    return std::find_if(program.begin(), program.end(), [&](const Pass& pass) {
      return pass.type == PassType::Forward && pass.microbatch == 0 &&
             layout.stage_of(1, pass.chunk) == stage;
    });
  };
  const auto stage1 = forward_at(1);
  const auto stage2 = forward_at(2);
  ASSERT_NE(stage1, program.end());
  ASSERT_NE(stage2, program.end());
  ASSERT_LT(stage1, stage2);
  std::iter_swap(stage1, stage2);

  const analysis::VerifyResult verdict = analysis::verify_ir(
      lower_plan(plan, core::Scheme::ZBV), plan.spec);
  ASSERT_TRUE(has_rule(verdict.findings, "verify-deadlock"))
      << analysis::render(verdict.findings);
  EXPECT_FALSE(has_rule(verdict.findings, "verify-causality"))
      << analysis::render(verdict.findings);
  EXPECT_TRUE(simulator_rejects(plan.spec, plan.programs, nullptr));
}

// Seeded mutation sweep: random single swaps inside one device program
// either keep a schedule live or deadlock it, and verify-deadlock must fire
// exactly when the built graph cannot execute. This equivalence is what
// lets the verifier stand in for a cycle check on the built graph.
TEST(VerifyDeadlock, SingleSwapVerdictMatchesSimulator) {
  Rng rng(14);
  int cases = 0, deadlocks = 0;
  for (const core::Scheme scheme : core::all_schemes()) {
    for (const int p : {2, 4}) {
      for (const int v : {1, 2}) {
        for (int n : {1, 4}) {
          if (scheme == core::Scheme::TeraPipe && n > 1 && n % p != 0) {
            n = ((n + p - 1) / p) * p;
          }
          sched::PipelineSpec spec = base_spec(p, n, p);
          spec.v = v;
          spec.context_exchange = true;
          spec.vocab_parallel = scheme == core::Scheme::SlimPipe;
          const core::SchedulePlan plan = core::plan_scheme(scheme, spec);
          std::unique_ptr<core::ExchangePlanner> planner;
          if (plan.spec.context_exchange && plan.spec.p > 1) {
            planner = std::make_unique<core::ExchangePlanner>(plan.spec);
          }
          for (int k = 0; k < 20; ++k) {
            std::vector<sched::DeviceProgram> programs = plan.programs;
            const std::size_t dev =
                rng.next_below(static_cast<std::uint64_t>(p));
            sched::DeviceProgram& program = programs[dev];
            const std::size_t i = rng.next_below(program.size());
            std::size_t j = rng.next_below(program.size() - 1);
            if (j >= i) ++j;
            std::swap(program[i], program[j]);

            const bool flagged = has_rule(
                analysis::verify_ir(ir::lower(plan.spec, programs, "swap"),
                                    plan.spec)
                    .findings,
                "verify-deadlock");
            const bool rejected =
                simulator_rejects(plan.spec, programs, planner.get());
            ++cases;
            deadlocks += rejected ? 1 : 0;
            EXPECT_EQ(flagged, rejected)
                << core::scheme_name(scheme) << " p=" << p << " v=" << v
                << " n=" << n << ": swap of passes " << i << " and " << j
                << " on device " << dev;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 1280);
  RecordProperty("deadlocks", deadlocks);
  // The swaps exercise both verdicts.
  EXPECT_GT(deadlocks, 0);
  EXPECT_LT(deadlocks, cases);
}

TEST(VerifyCausality, DroppedSendLeavesDanglingRecv) {
  const core::SchedulePlan plan = onef1b_plan(2, 2);
  ScheduleIR table = lower_plan(plan, core::Scheme::OneF1B);
  const auto it = std::find_if(
      table.rows.begin(), table.rows.end(), [](const Row& row) {
        return row.device == 0 && row.kind == PassType::Forward &&
               row.microbatch == 0;
      });
  ASSERT_NE(it, table.rows.end());
  it->send_to = kNoEndpoint;  // device 1 still expects the activation

  const analysis::VerifyResult verdict = analysis::verify_ir(table, plan.spec);
  ASSERT_TRUE(has_rule(verdict.findings, "verify-causality"))
      << analysis::render(verdict.findings);
  bool dangling = false;
  for (const analysis::Finding& finding : verdict.findings) {
    dangling = dangling ||
               finding.message.find("dangling recv") != std::string::npos;
  }
  EXPECT_TRUE(dangling) << analysis::render(verdict.findings);
  EXPECT_FALSE(has_rule(verdict.findings, "verify-progress"));
  EXPECT_FALSE(has_rule(verdict.findings, "verify-deadlock"));
}

TEST(VerifyCausality, UnreceivedSendFlagged) {
  const core::SchedulePlan plan = onef1b_plan(2, 2);
  ScheduleIR table = lower_plan(plan, core::Scheme::OneF1B);
  const auto it = std::find_if(
      table.rows.begin(), table.rows.end(), [](const Row& row) {
        return row.device == 1 && row.kind == PassType::Forward &&
               row.microbatch == 0;
      });
  ASSERT_NE(it, table.rows.end());
  it->recv_from = kNoEndpoint;  // device 0 still ships the activation

  const analysis::VerifyResult verdict = analysis::verify_ir(table, plan.spec);
  ASSERT_TRUE(has_rule(verdict.findings, "verify-causality"))
      << analysis::render(verdict.findings);
  bool unreceived = false;
  for (const analysis::Finding& finding : verdict.findings) {
    unreceived = unreceived ||
                 finding.message.find("never received") != std::string::npos;
  }
  EXPECT_TRUE(unreceived) << analysis::render(verdict.findings);
  EXPECT_FALSE(has_rule(verdict.findings, "verify-progress"));
  EXPECT_FALSE(has_rule(verdict.findings, "verify-deadlock"));
}

TEST(VerifyCausality, FifoReceiveIsClean) {
  // GPipe at p = 2: device 0 posts the activations of microbatches 0 and 1
  // in that order, and device 1 takes them in the same order.
  const core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::GPipe, base_spec(2, 1, 2));
  const sched::DeviceProgram& program = plan.programs[1];
  ASSERT_EQ(program[0].type, PassType::Forward);
  ASSERT_EQ(program[1].type, PassType::Forward);
  EXPECT_EQ(program[0].microbatch, 0);
  EXPECT_EQ(program[1].microbatch, 1);

  const analysis::VerifyResult verdict = analysis::verify_ir(
      lower_plan(plan, core::Scheme::GPipe), plan.spec);
  EXPECT_TRUE(verdict.ok()) << analysis::render(verdict.findings);
  EXPECT_TRUE(verdict.findings.empty()) << analysis::render(verdict.findings);
}

TEST(VerifyCausality, OutOfFifoReceiveFlagged) {
  // The FifoReceiveIsClean table with device 1's two forwards swapped: it
  // takes microbatch 1 first, so an ordered transport would hand it the
  // wrong payload. The simulator's channels follow the receiver, so this is
  // a causality error, not a deadlock.
  core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::GPipe, base_spec(2, 1, 2));
  sched::DeviceProgram& program = plan.programs[1];
  ASSERT_EQ(program[0].type, PassType::Forward);
  ASSERT_EQ(program[1].type, PassType::Forward);
  std::swap(program[0], program[1]);

  const analysis::VerifyResult verdict = analysis::verify_ir(
      lower_plan(plan, core::Scheme::GPipe), plan.spec);
  ASSERT_TRUE(has_rule(verdict.findings, "verify-causality"))
      << analysis::render(verdict.findings);
  bool out_of_fifo = false;
  for (const analysis::Finding& finding : verdict.findings) {
    out_of_fifo = out_of_fifo ||
                  finding.message.find("out-of-FIFO") != std::string::npos;
  }
  EXPECT_TRUE(out_of_fifo) << analysis::render(verdict.findings);
  EXPECT_FALSE(has_rule(verdict.findings, "verify-deadlock"));
}

TEST(VerifyProgress, RemovedForwardOrphansBackward) {
  const core::SchedulePlan plan = onef1b_plan(2, 2);
  ScheduleIR table = lower_plan(plan, core::Scheme::OneF1B);
  const auto it = std::find_if(
      table.rows.begin(), table.rows.end(), [](const Row& row) {
        return row.device == 0 && row.kind == PassType::Forward &&
               row.microbatch == 0;
      });
  ASSERT_NE(it, table.rows.end());
  table.rows.erase(it);
  renumber(table);  // keep ir-structure out of this fixture

  const analysis::VerifyResult verdict = analysis::verify_ir(table, plan.spec);
  ASSERT_TRUE(has_rule(verdict.findings, "verify-progress"))
      << analysis::render(verdict.findings);
  bool orphaned = false;
  for (const analysis::Finding& finding : verdict.findings) {
    if (finding.rule_id != "verify-progress") continue;
    EXPECT_NE(finding.location.find("stage 0"), std::string::npos)
        << finding.location;
    orphaned = orphaned ||
               finding.message.find("orphaned backward") != std::string::npos;
  }
  EXPECT_TRUE(orphaned) << analysis::render(verdict.findings);
}

TEST(VerifyMemoryCert, OverBudgetLedgerFlagged) {
  const core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::GPipe, base_spec(2, 1, 4));
  const ScheduleIR table = lower_plan(plan, core::Scheme::GPipe);

  const analysis::VerifyResult clean = analysis::verify_ir(table, plan.spec);
  ASSERT_TRUE(clean.ok()) << analysis::render(clean.findings);
  const double peak = clean.certificate.device_peak[0];
  ASSERT_GT(peak, 0.0);

  analysis::VerifyOptions options;
  options.activation_budget_bytes = peak * 0.5;
  const analysis::VerifyResult tight =
      analysis::verify_ir(table, plan.spec, options);
  ASSERT_TRUE(has_rule(tight.findings, "verify-memory-cert"))
      << analysis::render(tight.findings);
  bool budget = false;
  for (const analysis::Finding& finding : tight.findings) {
    budget = budget ||
             finding.message.find("exceeds the budget") != std::string::npos;
  }
  EXPECT_TRUE(budget) << analysis::render(tight.findings);
}

TEST(VerifyMemoryCert, NegativeLedgerDipFlagged) {
  // A lone backward frees activation that was never allocated.
  const core::SchedulePlan plan = onef1b_plan(2, 2);
  ScheduleIR table = lower_plan(plan, core::Scheme::OneF1B);
  const auto it = std::find_if(
      table.rows.begin(), table.rows.end(), [](const Row& row) {
        return row.device == 0 && row.kind == PassType::Forward &&
               row.microbatch == 0;
      });
  ASSERT_NE(it, table.rows.end());
  table.rows.erase(it);
  renumber(table);
  const analysis::VerifyResult verdict = analysis::verify_ir(table, plan.spec);
  EXPECT_TRUE(has_rule(verdict.findings, "verify-memory-cert"))
      << analysis::render(verdict.findings);
}

TEST(IrStructure, DuplicateOrderFlagged) {
  const core::SchedulePlan plan = onef1b_plan(2, 2);
  ScheduleIR table = lower_plan(plan, core::Scheme::OneF1B);
  table.rows[1].order = table.rows[0].order;
  const analysis::VerifyResult verdict = analysis::verify_ir(table, plan.spec);
  EXPECT_TRUE(has_rule(verdict.findings, "ir-structure"))
      << analysis::render(verdict.findings);
}

// ---------------------------------------------------------------------------
// Builder conformance: each device's compute stream in the built graph runs
// exactly the table's rows, in order, so the verifier judges what the
// simulator executes.

/// The table kind of a compute op; nullopt for ops the table does not have
/// (vocabulary, optimizer, transfers).
std::optional<PassType> table_kind(sim::OpClass cls) {
  switch (cls) {
    case sim::OpClass::Forward: return PassType::Forward;
    case sim::OpClass::Backward: return PassType::Backward;
    case sim::OpClass::BackwardInput: return PassType::BackwardInput;
    case sim::OpClass::BackwardWeight: return PassType::BackwardWeight;
    default: return std::nullopt;
  }
}

TEST(BuilderConformance, ComputeStreamsFollowTheTable) {
  using Entry = std::tuple<PassType, std::int32_t, std::int32_t, std::int32_t>;
  for (const GridPoint& point : sweep_grid()) {
    SCOPED_TRACE(point.label);
    const core::SchedulePlan plan =
        core::plan_scheme(point.scheme, point.spec);
    const ScheduleIR table = lower_plan(plan, point.scheme);
    std::vector<std::vector<Entry>> expected(
        static_cast<std::size_t>(plan.spec.p));
    for (const Row& row : table.rows) {
      expected[static_cast<std::size_t>(row.device)].emplace_back(
          row.kind, row.microbatch, row.slice, row.stage);
    }

    const sched::BuildOutput built =
        sched::compile(plan.spec, plan.programs, nullptr);
    std::vector<std::vector<Entry>> streams(
        static_cast<std::size_t>(plan.spec.p));
    for (const auto& resource : built.graph->programs()) {
      for (const sim::OpId id : resource) {
        const sim::Op& op = built.graph->op(id);
        const std::optional<PassType> kind = table_kind(op.cls);
        if (!kind) continue;
        streams[static_cast<std::size_t>(op.device)].emplace_back(
            *kind, op.microbatch, op.slice, op.stage);
      }
    }
    EXPECT_EQ(streams, expected);
  }
}

// A table the verifier certifies must compile: a unit may be retired by a
// full B at one stage and by a BI + BW pair at the next.
TEST(CertifiedTable, MixedRetirementCompiles) {
  core::SchedulePlan plan = onef1b_plan(2, 4);
  // Stage 0 splits every backward into BI + BW; stage 1 keeps full Bs.
  sched::DeviceProgram split;
  for (const Pass& pass : plan.programs[0]) {
    if (pass.type != PassType::Backward) {
      split.push_back(pass);
      continue;
    }
    Pass input = pass, weight = pass;
    input.type = PassType::BackwardInput;
    weight.type = PassType::BackwardWeight;
    split.push_back(input);
    split.push_back(weight);
  }
  plan.programs[0] = split;

  const analysis::VerifyResult verdict = analysis::verify_ir(
      lower_plan(plan, core::Scheme::OneF1B), plan.spec);
  EXPECT_TRUE(verdict.ok()) << analysis::render(verdict.findings);
  EXPECT_NO_THROW(
      sched::run_pipeline(plan.spec, plan.programs, nullptr, "mixed"));
}

// The training runtimes (rt::StageMachine) run core::slimpipe_programs for
// each attempt, with p not always dividing n and n sometimes below p. Every
// (p, v, n, m) a runtime test, demo, bench or perfbench workload runs —
// replay attempts' smaller m included — is a table the verifier certifies
// clean (its FIFO-receive rule is the runtime's arrival-order contract),
// and each device's live-slice peak is Eq. 1's min(n*v + 2(p-1-r), m*n*v).
TEST(RuntimeTables, EveryRuntimeShapeVerifiesClean) {
  struct Shape {
    int p, v, n, m;
  };
  const std::vector<Shape> shapes = {
      {1, 1, 2, 1},  {1, 1, 4, 1},  {1, 1, 8, 2},  {2, 1, 1, 2},
      {2, 1, 2, 1},  {2, 1, 2, 2},  {2, 1, 2, 3},  {2, 1, 2, 4},
      {2, 1, 3, 2},  {2, 1, 3, 3},  {2, 1, 4, 1},  {2, 1, 4, 2},
      {2, 1, 6, 1},  {2, 1, 6, 2},  {2, 1, 8, 2},  {2, 2, 3, 3},
      {2, 2, 4, 1},  {2, 2, 4, 2},  {2, 3, 6, 2},  {2, 4, 8, 1},
      {3, 1, 2, 2},  {3, 1, 2, 3},  {3, 1, 2, 4},  {3, 1, 3, 1},
      {3, 1, 3, 3},  {3, 1, 4, 2},  {3, 1, 4, 3},  {3, 1, 6, 2},
      {3, 1, 8, 2},  {3, 1, 64, 8}, {3, 2, 6, 1},  {4, 1, 2, 3},
      {4, 1, 4, 2},  {4, 1, 4, 3},  {4, 1, 8, 2},  {4, 1, 8, 3},
      {4, 1, 12, 1}, {4, 2, 4, 2},  {4, 2, 8, 2},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE("p=" + std::to_string(shape.p) + " v=" +
                 std::to_string(shape.v) + " n=" + std::to_string(shape.n) +
                 " m=" + std::to_string(shape.m));
    sched::PipelineSpec spec = base_spec(shape.p, shape.n, shape.m);
    spec.v = shape.v;
    spec.layout = shape.v == 1 ? sched::StageLayoutKind::Sequential
                               : sched::StageLayoutKind::Interleaved;
    spec.retain_kv = true;
    const std::vector<sched::DeviceProgram> programs =
        core::slimpipe_programs(spec);
    const analysis::VerifyResult verdict = analysis::verify_ir(
        ir::lower(spec, programs, "SlimPipe"), spec);
    EXPECT_TRUE(verdict.ok()) << analysis::render(verdict.findings);
    for (int dev = 0; dev < shape.p; ++dev) {
      int live = 0, peak = 0;
      for (const Pass& pass : programs[static_cast<std::size_t>(dev)]) {
        live += pass.type == PassType::Forward ? 1 : -1;
        peak = std::max(peak, live);
      }
      EXPECT_EQ(peak, std::min(shape.n * shape.v + 2 * (shape.p - 1 - dev),
                               shape.m * shape.n * shape.v))
          << "device " << dev;
    }
  }
}

// ---------------------------------------------------------------------------
// Memory certificate: the statically certified per-device peaks reconcile
// with the simulator's replayed footprint within the standard tolerance.

TEST(MemoryCert, ReconcilesWithReplayedFootprint) {
  for (const core::Scheme scheme :
       {core::Scheme::GPipe, core::Scheme::OneF1B, core::Scheme::TeraPipe,
        core::Scheme::ZBV, core::Scheme::VHalf,
        core::Scheme::Interleaved1F1B, core::Scheme::SlimPipe}) {
    SCOPED_TRACE(core::scheme_name(scheme));
    sched::PipelineSpec spec = base_spec(4, 4, 4);
    spec.v = 2;
    spec.context_exchange = false;  // exchange traffic is outside the cert
    const core::SchedulePlan plan = core::plan_scheme(scheme, spec);
    const analysis::VerifyResult verdict =
        analysis::verify_ir(lower_plan(plan, scheme), plan.spec);
    ASSERT_TRUE(verdict.ok()) << analysis::render(verdict.findings);

    const sched::ScheduleResult result =
        sched::run_pipeline(plan.spec, plan.programs, nullptr, "cert");
    const mem::ReconcileReport report = mem::reconcile_peaks(
        result.memory, verdict.certificate.measured_peaks(), 0.5);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

// ---------------------------------------------------------------------------
// Import rejects malformed text with line-numbered errors.

TEST(IrImport, RejectsMalformedText) {
  EXPECT_THROW(ir::import_text(""), std::runtime_error);
  EXPECT_THROW(ir::import_text("not-an-ir 1\nend\n"), std::runtime_error);
  const std::string no_end =
      "slimpipe-ir 1\nscheme x\np 1\nv 1\nn 1\nm 1\n"
      "columns device order kind mb slice chunk stage recv send\n";
  EXPECT_THROW(ir::import_text(no_end), std::runtime_error);
  const std::string bad_row =
      no_end + "row 0 0 Q 0 0 0 0 . .\nend\n";
  EXPECT_THROW(ir::import_text(bad_row), std::runtime_error);

  // Every header key appears exactly once, and each value is one whole
  // token of its member's type: 0 or 1, a base-10 integer, a finite number.
  const core::SchedulePlan plan = onef1b_plan(2, 4);
  const std::string good =
      ir::export_text(ir::lower(plan.spec, plan.programs, "1F1B"));
  ASSERT_NO_THROW(ir::import_text(good));
  auto edited = [&](const std::string& from, const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? text : text.replace(at, from.size(), to);
  };
  for (const std::string& text :
       {edited("\nretain-kv 0\n", "\nretain-kv 7\n"),
        edited("\np 2\n", "\np +2\n"),
        edited("\np 2\n", "\np 2\np 2\n"),
        edited("\nv 1\n", "\n"),
        edited("\nmax-inflight 2\n", "\nmax-inflight nan\n")}) {
    EXPECT_THROW(ir::import_text(text), std::runtime_error) << text;
  }
}

}  // namespace

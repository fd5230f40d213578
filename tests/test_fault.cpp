// Tests for the fault-injection subsystem (src/fault) on both execution
// substrates: plan text round-trip and validation (one corrupted fixture
// per rule id, test_analysis style), deterministic replay of a (seed, plan)
// pair on the simulator, checkpoint-restart accounting, and the threaded
// runtime's shutdown protocol — channel poisoning, the starvation watchdog
// with its per-stage blocked-on table, and crash recovery whose replayed
// gradients must still match monolithic execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/runner.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/fault/fault_sim.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/channel.hpp"
#include "src/runtime/pipeline_runtime.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/graph.hpp"
#include "src/util/rng.hpp"

namespace slim::fault {
namespace {

FaultPlan full_plan() {
  FaultPlan plan;
  plan.seed = 42;
  plan.stragglers.push_back({1, OpFilter::Forward, 1.5, 0.1, 2, 9});
  plan.links.push_back({0, 2.0, 1e-5});
  plan.crashes.push_back({2, 37, 2.5});
  plan.stage_crashes.push_back({1, 9});
  plan.stage_hangs.push_back({2, 4});
  plan.delays.push_back({0, 3, 0.002});
  plan.socket_drops.push_back({1, 3, 2, 5});
  plan.socket_connect_fails.push_back({1, 2});
  plan.socket_delays.push_back({0, 2, 0.001});
  return plan;
}

TEST(FaultPlanTextTest, RoundTrip) {
  const FaultPlan plan = full_plan();
  const FaultPlan reparsed = parse_plan(to_text(plan));
  EXPECT_EQ(to_text(reparsed), to_text(plan));
  ASSERT_EQ(reparsed.stragglers.size(), 1u);
  EXPECT_EQ(reparsed.seed, 42u);
  EXPECT_EQ(reparsed.stragglers[0].device, 1);
  EXPECT_EQ(reparsed.stragglers[0].ops, OpFilter::Forward);
  EXPECT_DOUBLE_EQ(reparsed.stragglers[0].factor, 1.5);
  EXPECT_EQ(reparsed.stragglers[0].from_op, 2);
  EXPECT_EQ(reparsed.stragglers[0].to_op, 9);
  ASSERT_EQ(reparsed.crashes.size(), 1u);
  EXPECT_EQ(reparsed.crashes[0].at_op, 37);
  ASSERT_EQ(reparsed.delays.size(), 1u);
  EXPECT_DOUBLE_EQ(reparsed.delays[0].seconds, 0.002);
  ASSERT_EQ(reparsed.socket_drops.size(), 1u);
  EXPECT_EQ(reparsed.socket_drops[0].stage, 1);
  EXPECT_EQ(reparsed.socket_drops[0].every, 3);
  EXPECT_EQ(reparsed.socket_drops[0].count, 2);
  EXPECT_EQ(reparsed.socket_drops[0].max_retries, 5);
  ASSERT_EQ(reparsed.socket_connect_fails.size(), 1u);
  EXPECT_EQ(reparsed.socket_connect_fails[0].stage, 1);
  EXPECT_EQ(reparsed.socket_connect_fails[0].failures, 2);
  ASSERT_EQ(reparsed.socket_delays.size(), 1u);
  EXPECT_EQ(reparsed.socket_delays[0].every, 2);
  EXPECT_DOUBLE_EQ(reparsed.socket_delays[0].seconds, 0.001);
}

// ---- exact round trip over random plans ----

double any_double(Rng& rng) {
  constexpr double kShort[] = {1.23456789, 3.3e-7, 0.0012345678, 1e6, 2.5,
                               0.0001,     1e-5,   123456.5};
  switch (rng.next_below(3)) {
    case 0: return kShort[rng.next_below(std::size(kShort))];
    case 1: return rng.next_double() * 10.0;  // 16-17 significant digits
    default: {
      const double bits = std::bit_cast<double>(rng.next_u64());
      return std::isfinite(bits) ? bits : -0.5;
    }
  }
}

std::int64_t any_int64(Rng& rng) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto k = static_cast<std::int64_t>(rng.next_below(4));
  switch (rng.next_below(3)) {
    case 0: return kMax - k;
    case 1: return -kMax - 1 + k;
    default: return static_cast<std::int64_t>(rng.next_u64());
  }
}

int any_int(Rng& rng) { return static_cast<int>(rng.next_u64()); }

/// A plan with one to three directives of every kind, every member drawn.
FaultPlan random_plan(Rng& rng) {
  FaultPlan plan;
  plan.seed = rng.next_below(4) == 0 ? std::numeric_limits<std::uint64_t>::max()
                                     : rng.next_u64();
  auto times = [&] { return 1 + static_cast<int>(rng.next_below(3)); };
  for (int i = times(); i > 0; --i) {
    plan.stragglers.push_back({any_int(rng),
                               static_cast<OpFilter>(rng.next_below(4)),
                               any_double(rng), any_double(rng),
                               any_int64(rng), any_int64(rng)});
  }
  for (int i = times(); i > 0; --i) {
    plan.links.push_back({any_int(rng), any_double(rng), any_double(rng)});
  }
  for (int i = times(); i > 0; --i) {
    plan.crashes.push_back({any_int(rng), any_int64(rng), any_double(rng)});
  }
  for (int i = times(); i > 0; --i) {
    plan.stage_crashes.push_back({any_int(rng), any_int64(rng)});
  }
  for (int i = times(); i > 0; --i) {
    plan.stage_hangs.push_back({any_int(rng), any_int64(rng)});
  }
  for (int i = times(); i > 0; --i) {
    plan.delays.push_back({any_int(rng), any_int64(rng), any_double(rng)});
  }
  for (int i = times(); i > 0; --i) {
    plan.socket_drops.push_back(
        {any_int(rng), any_int64(rng), any_int(rng), any_int(rng)});
  }
  for (int i = times(); i > 0; --i) {
    plan.socket_connect_fails.push_back({any_int(rng), any_int(rng)});
  }
  for (int i = times(); i > 0; --i) {
    plan.socket_delays.push_back(
        {any_int(rng), any_int64(rng), any_double(rng)});
  }
  return plan;
}

void expect_same_plan(const FaultPlan& a, const FaultPlan& b) {
  EXPECT_EQ(a.seed, b.seed);
  ASSERT_EQ(a.stragglers.size(), b.stragglers.size());
  for (std::size_t i = 0; i < a.stragglers.size(); ++i) {
    const Straggler &x = a.stragglers[i], &y = b.stragglers[i];
    EXPECT_EQ(x.device, y.device);
    EXPECT_EQ(x.ops, y.ops);
    EXPECT_EQ(x.factor, y.factor);
    EXPECT_EQ(x.jitter, y.jitter);
    EXPECT_EQ(x.from_op, y.from_op);
    EXPECT_EQ(x.to_op, y.to_op);
  }
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links[i].src, b.links[i].src);
    EXPECT_EQ(a.links[i].slowdown, b.links[i].slowdown);
    EXPECT_EQ(a.links[i].extra_latency, b.links[i].extra_latency);
  }
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].device, b.crashes[i].device);
    EXPECT_EQ(a.crashes[i].at_op, b.crashes[i].at_op);
    EXPECT_EQ(a.crashes[i].restart_cost, b.crashes[i].restart_cost);
  }
  ASSERT_EQ(a.stage_crashes.size(), b.stage_crashes.size());
  for (std::size_t i = 0; i < a.stage_crashes.size(); ++i) {
    EXPECT_EQ(a.stage_crashes[i].stage, b.stage_crashes[i].stage);
    EXPECT_EQ(a.stage_crashes[i].after_messages,
              b.stage_crashes[i].after_messages);
  }
  ASSERT_EQ(a.stage_hangs.size(), b.stage_hangs.size());
  for (std::size_t i = 0; i < a.stage_hangs.size(); ++i) {
    EXPECT_EQ(a.stage_hangs[i].stage, b.stage_hangs[i].stage);
    EXPECT_EQ(a.stage_hangs[i].after_messages,
              b.stage_hangs[i].after_messages);
  }
  ASSERT_EQ(a.delays.size(), b.delays.size());
  for (std::size_t i = 0; i < a.delays.size(); ++i) {
    EXPECT_EQ(a.delays[i].stage, b.delays[i].stage);
    EXPECT_EQ(a.delays[i].every, b.delays[i].every);
    EXPECT_EQ(a.delays[i].seconds, b.delays[i].seconds);
  }
  ASSERT_EQ(a.socket_drops.size(), b.socket_drops.size());
  for (std::size_t i = 0; i < a.socket_drops.size(); ++i) {
    const SocketDrop &x = a.socket_drops[i], &y = b.socket_drops[i];
    EXPECT_EQ(x.stage, y.stage);
    EXPECT_EQ(x.every, y.every);
    EXPECT_EQ(x.count, y.count);
    EXPECT_EQ(x.max_retries, y.max_retries);
  }
  ASSERT_EQ(a.socket_connect_fails.size(), b.socket_connect_fails.size());
  for (std::size_t i = 0; i < a.socket_connect_fails.size(); ++i) {
    EXPECT_EQ(a.socket_connect_fails[i].stage,
              b.socket_connect_fails[i].stage);
    EXPECT_EQ(a.socket_connect_fails[i].failures,
              b.socket_connect_fails[i].failures);
  }
  ASSERT_EQ(a.socket_delays.size(), b.socket_delays.size());
  for (std::size_t i = 0; i < a.socket_delays.size(); ++i) {
    EXPECT_EQ(a.socket_delays[i].stage, b.socket_delays[i].stage);
    EXPECT_EQ(a.socket_delays[i].every, b.socket_delays[i].every);
    EXPECT_EQ(a.socket_delays[i].seconds, b.socket_delays[i].seconds);
  }
}

TEST(FaultPlanTextTest, RoundTripsEveryValueExactly) {
  Rng rng(2718);
  for (int i = 0; i < 200; ++i) {
    const FaultPlan plan = random_plan(rng);
    const std::string text = to_text(plan);
    SCOPED_TRACE(text);
    const FaultPlan back = parse_plan(text);
    expect_same_plan(back, plan);
    EXPECT_EQ(to_text(back), text);
    EXPECT_FALSE(back.empty());
    if (HasFailure()) return;  // one plan's report is enough
  }
  EXPECT_TRUE(FaultPlan{}.empty());
}

TEST(FaultPlanTextTest, CommentsAndBlankLinesIgnored) {
  const FaultPlan plan = parse_plan(
      "# a comment\n\n  seed 7  # trailing\n\nlink src=1 slowdown=3\n");
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.links.size(), 1u);
  EXPECT_EQ(plan.links[0].src, 1);
}

TEST(FaultPlanTextTest, RejectsMalformedInput) {
  EXPECT_THROW(parse_plan("explode now"), std::logic_error);
  EXPECT_THROW(parse_plan("straggler device"), std::logic_error);
  EXPECT_THROW(parse_plan("straggler speed=2"), std::logic_error);
  EXPECT_THROW(parse_plan("link src=0 src=1"), std::logic_error);
  EXPECT_THROW(parse_plan("straggler ops=sideways"), std::logic_error);
  EXPECT_THROW(parse_plan("seed"), std::logic_error);
  // A value is one whole token, in its field's range.
  EXPECT_THROW(parse_plan("straggler device=1abc"), std::logic_error);
  EXPECT_THROW(parse_plan("straggler factor=1.5x"), std::logic_error);
  EXPECT_THROW(parse_plan("delay stage=0 every=3junk"), std::logic_error);
  EXPECT_THROW(parse_plan("stage_crash stage=4294967297"), std::logic_error);
  // The seed is one whole base-10 integer in the uint64 range, alone.
  EXPECT_THROW(parse_plan("seed 5junk"), std::logic_error);
  EXPECT_THROW(parse_plan("seed -1"), std::logic_error);
  EXPECT_THROW(parse_plan("seed 1 2"), std::logic_error);
  EXPECT_THROW(parse_plan("seed 0x10"), std::logic_error);
}

// ---- validation: one corrupted fixture per rule id ----

TEST(FaultPlanValidateTest, CleanPlanHasNoIssues) {
  EXPECT_TRUE(validate(full_plan(), 4).empty());
}

TEST(FaultPlanValidateTest, StragglerFactorRule) {
  FaultPlan plan;
  plan.stragglers.push_back({0, OpFilter::Any, 0.5, 0.0, 0, -1});
  EXPECT_TRUE(has_rule(validate(plan), "fault-straggler-factor"));
}

TEST(FaultPlanValidateTest, StragglerJitterRule) {
  FaultPlan plan;
  plan.stragglers.push_back({0, OpFilter::Any, 2.0, 1.5, 0, -1});
  EXPECT_TRUE(has_rule(validate(plan), "fault-straggler-jitter"));
}

TEST(FaultPlanValidateTest, StragglerWindowRule) {
  FaultPlan plan;
  plan.stragglers.push_back({0, OpFilter::Any, 2.0, 0.0, 5, 2});
  EXPECT_TRUE(has_rule(validate(plan), "fault-straggler-window"));
}

TEST(FaultPlanValidateTest, DeviceRangeRule) {
  FaultPlan plan;
  plan.stragglers.push_back({9, OpFilter::Any, 2.0, 0.0, 0, -1});
  EXPECT_TRUE(has_rule(validate(plan, 4), "fault-device-range"));
  // Without a world size the range check is skipped (plan unbound).
  EXPECT_FALSE(has_rule(validate(plan), "fault-device-range"));
  // Crashes may not use the -1 wildcard: a whole-cluster crash is not a
  // recoverable fault.
  FaultPlan crash_all;
  crash_all.crashes.push_back({-1, 0, 1.0});
  EXPECT_TRUE(has_rule(validate(crash_all, 4), "fault-device-range"));
}

TEST(FaultPlanValidateTest, LinkDegradationRule) {
  FaultPlan plan;
  plan.links.push_back({0, 0.5, 0.0});
  EXPECT_TRUE(has_rule(validate(plan), "fault-link-degradation"));
}

TEST(FaultPlanValidateTest, CrashPointRule) {
  FaultPlan plan;
  plan.crashes.push_back({0, -1, 1.0});
  EXPECT_TRUE(has_rule(validate(plan), "fault-crash-point"));
}

TEST(FaultPlanValidateTest, StageCrashPointRule) {
  FaultPlan plan;
  plan.stage_crashes.push_back({0, 0});
  EXPECT_TRUE(has_rule(validate(plan), "fault-stage-crash-point"));
}

TEST(FaultPlanValidateTest, StageHangPointRule) {
  FaultPlan plan;
  plan.stage_hangs.push_back({0, 0});
  EXPECT_TRUE(has_rule(validate(plan), "fault-stage-hang-point"));
}

TEST(FaultPlanValidateTest, DelayParamsRule) {
  FaultPlan plan;
  plan.delays.push_back({-1, 0, 0.001});
  EXPECT_TRUE(has_rule(validate(plan), "fault-delay-params"));
}

TEST(FaultPlanValidateTest, SocketDropParamsRule) {
  FaultPlan plan;
  plan.socket_drops.push_back({-1, 0, 1, 3});  // every < 1
  EXPECT_TRUE(has_rule(validate(plan), "fault-socket-drop-params"));
  FaultPlan negative_retries;
  negative_retries.socket_drops.push_back({-1, 1, 1, -1});
  EXPECT_TRUE(
      has_rule(validate(negative_retries), "fault-socket-drop-params"));
}

TEST(FaultPlanValidateTest, SocketConnectParamsRule) {
  FaultPlan plan;
  plan.socket_connect_fails.push_back({0, 0});  // failures < 1
  EXPECT_TRUE(has_rule(validate(plan), "fault-socket-connect-params"));
  // Connect faults bind to a concrete boundary: no -1 wildcard, and the
  // stage must lie inside the pipeline.
  FaultPlan out_of_range;
  out_of_range.socket_connect_fails.push_back({7, 1});
  EXPECT_TRUE(has_rule(validate(out_of_range, 4), "fault-device-range"));
}

TEST(FaultPlanValidateTest, SocketDelayParamsRule) {
  FaultPlan plan;
  plan.socket_delays.push_back({-1, 1, -0.5});  // negative delay
  EXPECT_TRUE(has_rule(validate(plan), "fault-socket-delay-params"));
}

TEST(FaultPlanValidateTest, RenderNamesTheRule) {
  FaultPlan plan;
  plan.links.push_back({0, 0.5, 0.0});
  const auto issues = validate(plan);
  EXPECT_NE(render(issues).find("fault-link-degradation"), std::string::npos);
}

// ---- simulator substrate ----

sim::OpGraph small_graph() {
  sim::OpGraph g(sim::make_cluster(2));
  const sim::OpId f0 = g.add_compute(0, 1.0, sim::OpClass::Forward, {});
  const sim::OpId t0 = g.add_transfer(0, 1, 400e9, sim::OpClass::Send, {f0});
  const sim::OpId f1 = g.add_compute(1, 1.0, sim::OpClass::Forward, {t0});
  const sim::OpId b1 = g.add_compute(1, 2.0, sim::OpClass::Backward, {f1});
  const sim::OpId t1 = g.add_transfer(1, 0, 400e9, sim::OpClass::Send, {b1});
  g.add_compute(0, 2.0, sim::OpClass::Backward, {t1});
  return g;
}

TEST(FaultSimTest, DeterministicReplaySameSeed) {
  FaultPlan plan;
  plan.seed = 5;
  plan.stragglers.push_back({-1, OpFilter::Any, 1.7, 0.5, 0, -1});
  plan.links.push_back({-1, 1.5, 1e-4});

  sim::OpGraph a = small_graph();
  sim::OpGraph b = small_graph();
  const double injected_a = apply_to_graph(a, plan, nullptr);
  const double injected_b = apply_to_graph(b, plan, nullptr);
  EXPECT_DOUBLE_EQ(injected_a, injected_b);
  ASSERT_EQ(a.ops().size(), b.ops().size());
  for (std::size_t i = 0; i < a.ops().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.ops()[i].duration, b.ops()[i].duration) << "op " << i;
  }
  const sim::ExecResult ea = sim::execute(a);
  const sim::ExecResult eb = sim::execute(b);
  EXPECT_DOUBLE_EQ(ea.makespan, eb.makespan);
  for (std::size_t i = 0; i < ea.timings.size(); ++i) {
    EXPECT_DOUBLE_EQ(ea.timings[i].start, eb.timings[i].start);
    EXPECT_DOUBLE_EQ(ea.timings[i].end, eb.timings[i].end);
  }
}

TEST(FaultSimTest, SeedChangesJitterDraws) {
  FaultPlan plan;
  plan.seed = 5;
  plan.stragglers.push_back({-1, OpFilter::Any, 2.0, 0.9, 0, -1});
  FaultPlan other = plan;
  other.seed = 6;

  sim::OpGraph a = small_graph();
  sim::OpGraph b = small_graph();
  apply_to_graph(a, plan, nullptr);
  apply_to_graph(b, other, nullptr);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.ops().size(); ++i) {
    any_diff = any_diff || a.ops()[i].duration != b.ops()[i].duration;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultSimTest, WindowSelectsDeviceOpIndices) {
  // Device 0's op sequence: Forward(#0), Send(#1), Backward(#2). A window
  // of [1, 1] on Any must scale only the transfer.
  FaultPlan plan;
  plan.stragglers.push_back({0, OpFilter::Any, 3.0, 0.0, 1, 1});
  sim::OpGraph g = small_graph();
  const double base_fwd = g.ops()[0].duration;
  const double base_send = g.ops()[1].duration;
  const double base_bwd = g.ops()[5].duration;
  apply_to_graph(g, plan, nullptr);
  EXPECT_DOUBLE_EQ(g.ops()[0].duration, base_fwd);
  EXPECT_DOUBLE_EQ(g.ops()[1].duration, 3.0 * base_send);
  EXPECT_DOUBLE_EQ(g.ops()[5].duration, base_bwd);
}

TEST(FaultSimTest, LinkFaultHitsOnlySenderTransfers) {
  FaultPlan plan;
  plan.links.push_back({0, 2.0, 0.0});
  sim::OpGraph g = small_graph();
  const double t0 = g.ops()[1].duration;  // sent by device 0
  const double t1 = g.ops()[4].duration;  // sent by device 1
  apply_to_graph(g, plan, nullptr);
  EXPECT_DOUBLE_EQ(g.ops()[1].duration, 2.0 * t0);
  EXPECT_DOUBLE_EQ(g.ops()[4].duration, t1);
}

TEST(FaultSimTest, RecoveryOverheadIsCrashTimePlusRestart) {
  sim::OpGraph g = small_graph();
  const sim::ExecResult exec = sim::execute(g);
  FaultPlan plan;
  plan.crashes.push_back({1, 1, 2.5});  // device 1's 2nd compute op (b1)
  FaultReport report;
  const double overhead = recovery_overhead(g, exec, plan, &report);
  // b1 ends at f0 + send + f1 + b1.
  const double b1_end = exec.timings[3].end;
  EXPECT_DOUBLE_EQ(overhead, b1_end + 2.5);
  EXPECT_TRUE(report.has_kind(FaultEvent::Kind::Crash));
  EXPECT_DOUBLE_EQ(report.recovery_overhead, overhead);
}

TEST(FaultSimTest, ReportRendersEventsAndTotals) {
  FaultPlan plan;
  plan.stragglers.push_back({0, OpFilter::Any, 2.0, 0.0, 0, -1});
  sim::OpGraph g = small_graph();
  FaultReport report;
  apply_to_graph(g, plan, &report);
  EXPECT_TRUE(report.has_kind(FaultEvent::Kind::Straggler));
  EXPECT_GT(report.injected_seconds, 0.0);
  EXPECT_NE(report.render().find("straggler"), std::string::npos);
}

// ---- scheme-level degradation (core::run_scheme with a fault plan) ----

sched::PipelineSpec tiny_spec() {
  sched::PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.p = 4;
  spec.m = 4;
  spec.n = 8;
  spec.seq = 32768;
  return spec;
}

TEST(SchemeFaultTest, StragglerDegradesIterationTime) {
  const auto baseline = core::run_scheme(core::Scheme::SlimPipe, tiny_spec());
  FaultPlan plan;
  plan.stragglers.push_back({2, OpFilter::Any, 1.5, 0.0, 0, -1});
  FaultReport report;
  const auto degraded = core::run_scheme(core::Scheme::SlimPipe, tiny_spec(),
                                         false, nullptr, &plan, &report);
  EXPECT_GT(degraded.iteration_time, baseline.iteration_time);
  EXPECT_GT(degraded.fault_injected_seconds, 0.0);
  EXPECT_DOUBLE_EQ(degraded.fault_recovery_seconds, 0.0);
  EXPECT_LT(degraded.mfu, baseline.mfu);
  EXPECT_TRUE(report.has_kind(FaultEvent::Kind::Straggler));
}

TEST(SchemeFaultTest, CrashAddsRecoveryCost) {
  const auto baseline = core::run_scheme(core::Scheme::OneF1B, tiny_spec());
  FaultPlan plan;
  plan.crashes.push_back({1, 3, 4.0});
  const auto degraded = core::run_scheme(core::Scheme::OneF1B, tiny_spec(),
                                         false, nullptr, &plan);
  EXPECT_NEAR(degraded.iteration_time,
              baseline.iteration_time + degraded.fault_recovery_seconds,
              1e-9);
  EXPECT_GT(degraded.fault_recovery_seconds, 4.0);
}

// One scheme, one run, one label: the plain run, the run with an empty
// fault plan and the traced run agree on every scheme, each is labelled
// with scheme_name of the scheme that ran (Interleaved 1F1B at v = 1 runs
// as 1F1B), and the trace ends where the printed iteration does.
TEST(SchemeFaultTest, EmptyPlanChangesNothing) {
  std::vector<std::pair<core::Scheme, sched::PipelineSpec>> cases;
  for (const core::Scheme scheme : core::all_schemes()) {
    sched::PipelineSpec spec = tiny_spec();
    if (scheme == core::Scheme::Interleaved1F1B) spec.v = 2;
    cases.emplace_back(scheme, spec);
  }
  cases.emplace_back(core::Scheme::Interleaved1F1B, tiny_spec());  // v = 1
  for (const auto& [scheme, spec] : cases) {
    SCOPED_TRACE(std::string(core::scheme_name(scheme)) +
                 " v=" + std::to_string(spec.v));
    const core::Scheme resolved =
        scheme == core::Scheme::Interleaved1F1B && spec.v == 1
            ? core::Scheme::OneF1B
            : scheme;
    const FaultPlan empty;
    obs::Trace trace;
    const auto plain = core::run_scheme(scheme, spec);
    const auto faulted =
        core::run_scheme(scheme, spec, false, nullptr, &empty);
    const auto traced = core::run_scheme(scheme, spec, false, &trace);
    EXPECT_EQ(plain.scheme, core::scheme_name(resolved));
    for (const sched::ScheduleResult* r : {&faulted, &traced}) {
      EXPECT_DOUBLE_EQ(r->iteration_time, plain.iteration_time);
      EXPECT_DOUBLE_EQ(r->peak_memory, plain.peak_memory);
      EXPECT_EQ(r->scheme, plain.scheme);
    }
    EXPECT_DOUBLE_EQ(faulted.fault_injected_seconds, 0.0);
    ASSERT_FALSE(trace.spans.empty());
    double last_end = 0.0;
    for (const obs::TraceSpan& span : trace.spans) {
      last_end = std::max(last_end, span.end);
    }
    EXPECT_DOUBLE_EQ(last_end, traced.iteration_time);
  }
}

TEST(SchemeFaultTest, InvalidPlanRejected) {
  FaultPlan plan;
  plan.crashes.push_back({99, 0, 1.0});  // outside p=4
  EXPECT_THROW(core::run_scheme(core::Scheme::SlimPipe, tiny_spec(), false,
                                nullptr, &plan),
               std::logic_error);
}

}  // namespace
}  // namespace slim::fault

// ---- threaded-runtime substrate ----

namespace slim::rt {
namespace {

TEST(ChannelCloseTest, CloseUnblocksReceiver) {
  Channel<int> ch;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.close();
  });
  int out = 0;
  EXPECT_EQ(ch.receive_status_for(std::chrono::seconds(10), out),
            RecvStatus::Closed);
  closer.join();
}

TEST(ChannelCloseTest, DrainsQueuedMessagesBeforeClosed) {
  Channel<int> ch;
  ch.send(1);
  ch.send(2);
  ch.close();
  int out = 0;
  EXPECT_EQ(ch.receive_status_for(std::chrono::milliseconds(1), out),
            RecvStatus::Ok);
  EXPECT_EQ(out, 1);
  EXPECT_EQ(ch.receive_status_for(std::chrono::milliseconds(1), out),
            RecvStatus::Ok);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(ch.receive_status_for(std::chrono::milliseconds(1), out),
            RecvStatus::Closed);
}

TEST(ChannelCloseTest, SendsAfterCloseAreDropped) {
  Channel<int> ch;
  ch.close();
  ch.send(1);
  EXPECT_FALSE(ch.try_receive().has_value());
  int out = 0;
  EXPECT_EQ(ch.receive_status_for(std::chrono::milliseconds(1), out),
            RecvStatus::Closed);
}

TEST(ChannelCloseTest, TimeoutStillReportedWhenOpen) {
  Channel<int> ch;
  int out = 0;
  EXPECT_EQ(ch.receive_status_for(std::chrono::milliseconds(5), out),
            RecvStatus::Timeout);
}

std::vector<std::vector<std::int64_t>> random_batch(Rng& rng, int m, int seq,
                                                    std::int64_t vocab) {
  std::vector<std::vector<std::int64_t>> out(static_cast<std::size_t>(m));
  for (auto& sequence : out) {
    for (int i = 0; i < seq; ++i) {
      sequence.push_back(static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(vocab))));
    }
  }
  return out;
}

struct Fixture {
  ThreadedPipeline pipe;
  std::vector<std::vector<std::int64_t>> tokens;
  std::vector<std::vector<std::int64_t>> targets;
};

Fixture make_fixture(int stages, int layers, int m, int chunks = 1,
                     unsigned seed = 900) {
  Rng rng(seed);
  const num::BlockDims dims{16, 2, 2, 24};
  const std::int64_t vocab = 16;
  Fixture f{ThreadedPipeline(dims, vocab, layers, stages, rng, chunks),
            {},
            {}};
  Rng data_rng(seed + 1);
  f.tokens = random_batch(data_rng, m, 24, vocab);
  f.targets = random_batch(data_rng, m, 24, vocab);
  return f;
}

TEST(RuntimeFaultTest, DelayPlanIsDeterministicAndHarmless) {
  Fixture f = make_fixture(3, 3, 2);
  const auto ref = f.pipe.run_reference(f.tokens, f.targets);

  fault::FaultPlan plan;
  plan.delays.push_back({-1, 4, 0.001});
  RunOptions options;
  options.n_slices = 4;
  options.faults = &plan;

  const auto a = f.pipe.run_iteration(f.tokens, f.targets, options);
  const auto b = f.pipe.run_iteration(f.tokens, f.targets, options);
  // Delays shift wall-clock, never the message pattern or the numerics.
  ASSERT_EQ(a.stats.messages.size(), b.stats.messages.size());
  for (std::size_t s = 0; s < a.stats.messages.size(); ++s) {
    EXPECT_EQ(a.stats.messages[s], b.stats.messages[s]) << "stage " << s;
  }
  EXPECT_EQ(a.stats.messages[0], 2 * 2 * 4);  // 2m n: seeded fwd + grads
  EXPECT_DOUBLE_EQ(a.loss, b.loss);
  EXPECT_NEAR(a.loss, ref.loss, 1e-5);
  EXPECT_LT(a.grads.max_abs_diff(ref.grads), 5e-5f);
}

TEST(RuntimeFaultTest, CrashWithoutRecoveryThrowsStructuredError) {
  Fixture f = make_fixture(3, 3, 2);
  fault::FaultPlan plan;
  plan.stage_crashes.push_back({1, 5});
  fault::FaultReport report;
  RunOptions options;
  options.n_slices = 4;
  options.faults = &plan;
  options.report = &report;

  try {
    f.pipe.run_iteration(f.tokens, f.targets, options);
    FAIL() << "expected PipelineError";
  } catch (const PipelineError& e) {
    EXPECT_TRUE(e.report().has_kind(fault::FaultEvent::Kind::Crash));
    EXPECT_FALSE(e.report().blocked_table.empty());
    EXPECT_NE(std::string(e.what()).find("injected crash at stage 1"),
              std::string::npos);
    // The message carries the blocked-on table, not just the report.
    EXPECT_NE(std::string(e.what()).find("last mb"), std::string::npos);
    // One error form on both runtimes: the failed stage, then the table.
    EXPECT_EQ(std::string(e.what()).rfind("pipeline stage 1 failed: ", 0), 0u)
        << e.what();
  }
  // The out-param report holds the failure too, not only the exception.
  EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::Crash));
  EXPECT_NE(report.blocked_table.find("last mb"), std::string::npos)
      << report.blocked_table;
}

TEST(RuntimeFaultTest, HangTriggersWatchdogWithBlockedTable) {
  Fixture f = make_fixture(3, 3, 2);
  fault::FaultPlan plan;
  plan.stage_hangs.push_back({1, 3});
  RunOptions options;
  options.n_slices = 4;
  options.faults = &plan;
  options.starvation_timeout = std::chrono::milliseconds(200);

  try {
    f.pipe.run_iteration(f.tokens, f.targets, options);
    FAIL() << "expected PipelineError";
  } catch (const PipelineError& e) {
    EXPECT_TRUE(e.report().has_kind(fault::FaultEvent::Kind::Watchdog));
    EXPECT_TRUE(e.report().has_kind(fault::FaultEvent::Kind::Hang));
    // The deadlock report names the hung stage and carries the per-channel
    // queue depth and last-received microbatch columns.
    EXPECT_NE(e.report().blocked_table.find("hung"), std::string::npos);
    // The starving stage's row says so.
    EXPECT_NE(e.report().blocked_table.find("starved"), std::string::npos)
        << e.report().blocked_table;
    EXPECT_NE(e.report().blocked_table.find("queue"), std::string::npos);
    EXPECT_NE(e.report().blocked_table.find("last mb"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("starved"), std::string::npos);
  }
}

TEST(RuntimeFaultTest, HangWithRecoveryReplays) {
  // The watchdog's verdict on a hang is a failed attempt like a crash: with
  // recover = true the pipeline respawns and replays the unretired
  // microbatches with the plan disarmed, and the gradients match.
  Fixture f = make_fixture(3, 3, 2);
  const auto ref = f.pipe.run_reference(f.tokens, f.targets);
  fault::FaultPlan plan;
  plan.stage_hangs.push_back({1, 3});
  fault::FaultReport report;
  RunOptions options;
  options.n_slices = 4;
  options.faults = &plan;
  options.recover = true;
  options.report = &report;
  options.starvation_timeout = std::chrono::milliseconds(200);

  const auto recovered = f.pipe.run_iteration(f.tokens, f.targets, options);
  EXPECT_NEAR(recovered.loss, ref.loss, 1e-5);
  EXPECT_LT(recovered.grads.max_abs_diff(ref.grads), 5e-5f);
  EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::Watchdog));
  EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::Hang));
  EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::Recovery));
  ASSERT_FALSE(report.replayed_microbatches.empty());
  EXPECT_EQ(report.replayed_microbatches,
            recovered.stats.replayed_microbatches);
  // The respawn is charged to the hung stage, not to whichever starved
  // peer's watchdog fired first.
  const auto recovery = std::find_if(
      report.events.begin(), report.events.end(), [](const auto& event) {
        return event.kind == fault::FaultEvent::Kind::Recovery;
      });
  ASSERT_NE(recovery, report.events.end());
  EXPECT_EQ(recovery->device, 1) << recovery->detail;
}

TEST(RuntimeFaultTest, FaultEventsCarryRunClockTimesWithoutRecorder) {
  // Fault events are stamped on the run clock whether or not a recorder
  // traces the run: every delay, crash and recovery event of an untraced
  // run lies inside the run's wall time.
  Fixture f = make_fixture(3, 3, 2);
  fault::FaultPlan plan;
  plan.delays.push_back({-1, 3, 0.001});
  plan.stage_crashes.push_back({1, 6});
  fault::FaultReport report;
  RunOptions options;
  options.n_slices = 4;
  options.faults = &plan;
  options.recover = true;
  options.report = &report;

  const auto start = std::chrono::steady_clock::now();
  f.pipe.run_iteration(f.tokens, f.targets, options);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_TRUE(report.has_kind(fault::FaultEvent::Kind::Delay));
  ASSERT_TRUE(report.has_kind(fault::FaultEvent::Kind::Crash));
  ASSERT_TRUE(report.has_kind(fault::FaultEvent::Kind::Recovery));
  for (const fault::FaultEvent& event : report.events) {
    EXPECT_GT(event.time, 0.0) << fault::event_kind_name(event.kind);
    EXPECT_LE(event.time, wall) << fault::event_kind_name(event.kind);
  }
}

TEST(RuntimeFaultTest, InvalidPlanRejectedUpFront) {
  Fixture f = make_fixture(3, 3, 1);
  fault::FaultPlan plan;
  plan.stage_crashes.push_back({7, 5});  // outside p=3
  RunOptions options;
  options.n_slices = 4;
  options.faults = &plan;
  EXPECT_THROW(f.pipe.run_iteration(f.tokens, f.targets, options),
               std::logic_error);
}

TEST(RuntimeFaultTest, OutOfVocabularyIdsRejectedBeforeAttemptZero) {
  // A token or target id outside [0, vocab) throws once, naming its
  // microbatch and position, before any stage thread starts: no fault
  // event and no replay, on the dense and the vocabulary-parallel head.
  struct Case {
    bool target;
    std::int64_t id;
    const char* what;
  };
  for (const bool vocab_parallel : {false, true}) {
    for (const Case c : {Case{false, 16, "token id 16"},
                         Case{false, -1, "token id -1"},
                         Case{true, 16, "target id 16"}}) {
      SCOPED_TRACE(std::string(c.what) +
                   (vocab_parallel ? ", vocab parallel" : ", dense"));
      Fixture f = make_fixture(2, 2, 2);  // vocabulary 16
      (c.target ? f.targets : f.tokens)[1][5] = c.id;
      fault::FaultReport report;
      RunOptions options;
      options.n_slices = 4;
      options.vocab_parallel = vocab_parallel;
      options.recover = true;
      options.report = &report;
      try {
        f.pipe.run_iteration(f.tokens, f.targets, options);
        ADD_FAILURE() << "trained on an id outside the vocabulary";
      } catch (const std::logic_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("microbatch 1 position 5: "), std::string::npos)
            << what;
        EXPECT_NE(what.find(c.what), std::string::npos) << what;
      }
      EXPECT_TRUE(report.events.empty());
    }
  }
}

struct RecoveryCase {
  int stages;
  int chunks;
  int layers;
  int n_slices;
  int microbatches;
  bool vocab_parallel;
  int crash_stage;
  std::int64_t after_messages;
};

class CrashRecoveryTest : public ::testing::TestWithParam<RecoveryCase> {};

// The tentpole guarantee: an injected stage crash, respawn from the
// parameter snapshot and replay of unretired microbatches must reproduce
// the monolithic gradients to the same tolerance as the fault-free
// equivalence tests.
TEST_P(CrashRecoveryTest, RecoveredGradientsMatchReference) {
  const RecoveryCase c = GetParam();
  Fixture f = make_fixture(c.stages, c.layers, c.microbatches, c.chunks,
                           950 + static_cast<unsigned>(c.crash_stage));
  const auto ref = f.pipe.run_reference(f.tokens, f.targets);

  fault::FaultPlan plan;
  plan.stage_crashes.push_back({c.crash_stage, c.after_messages});
  fault::FaultReport report;
  RunOptions options;
  options.n_slices = c.n_slices;
  options.vocab_parallel = c.vocab_parallel;
  options.faults = &plan;
  options.recover = true;
  options.report = &report;

  const auto recovered = f.pipe.run_iteration(f.tokens, f.targets, options);

  EXPECT_NEAR(recovered.loss, ref.loss, 1e-5);
  EXPECT_LT(recovered.grads.max_abs_diff(ref.grads), 5e-5f)
      << "p=" << c.stages << " v=" << c.chunks << " crash@" << c.crash_stage;
  // The crash really happened and microbatches were replayed.
  EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::Crash));
  EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::Recovery));
  ASSERT_FALSE(report.replayed_microbatches.empty());
  EXPECT_EQ(report.replayed_microbatches,
            recovered.stats.replayed_microbatches);
  for (const int mb : report.replayed_microbatches) {
    EXPECT_GE(mb, 0);
    EXPECT_LT(mb, c.microbatches);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashRecoveryTest,
    ::testing::Values(
        // Early crash on a middle stage: nothing retired, full replay.
        RecoveryCase{3, 1, 3, 4, 2, false, 1, 2},
        // Late crash on the head stage: some microbatches already retired.
        RecoveryCase{3, 1, 3, 4, 3, false, 2, 20},
        // Crash on stage 0 (owns the embedding gradients).
        RecoveryCase{3, 1, 4, 4, 2, false, 0, 7},
        // Vocabulary-parallel head: the two-phase scalar sync must survive
        // the respawn.
        RecoveryCase{2, 1, 3, 4, 2, true, 1, 10},
        // Interleaved stages (v = 2): thread 0 owns chunks 0 and 2.
        RecoveryCase{2, 2, 4, 4, 2, false, 0, 9}));

TEST(RuntimeFaultTest, NoInjectedFaultReachesTerminate) {
  // Crash or hang every stage in turn: every run must either recover or
  // surface a structured PipelineError — never std::terminate.
  for (int stage = 0; stage < 3; ++stage) {
    for (const bool hang : {false, true}) {
      Fixture f = make_fixture(3, 3, 2);
      fault::FaultPlan plan;
      if (hang) {
        plan.stage_hangs.push_back({stage, 4});
      } else {
        plan.stage_crashes.push_back({stage, 4});
      }
      RunOptions options;
      options.n_slices = 4;
      options.faults = &plan;
      options.recover = !hang;
      options.starvation_timeout = std::chrono::milliseconds(200);
      try {
        const auto r = f.pipe.run_iteration(f.tokens, f.targets, options);
        EXPECT_FALSE(hang) << "a hang cannot recover";
        EXPECT_FALSE(r.stats.replayed_microbatches.empty());
      } catch (const PipelineError& e) {
        EXPECT_FALSE(e.report().blocked_table.empty())
            << "stage " << stage << " hang=" << hang;
      }
    }
  }
}

TEST(RuntimeFaultTest, LegacyOverloadUnchanged) {
  // The 4-argument run_iteration keeps its exact fault-free behavior.
  Fixture f = make_fixture(2, 2, 2);
  const auto ref = f.pipe.run_reference(f.tokens, f.targets);
  const auto par = f.pipe.run_iteration(f.tokens, f.targets, 4);
  EXPECT_NEAR(par.loss, ref.loss, 1e-5);
  EXPECT_LT(par.grads.max_abs_diff(ref.grads), 5e-5f);
  EXPECT_TRUE(par.stats.replayed_microbatches.empty());
}

}  // namespace
}  // namespace slim::rt

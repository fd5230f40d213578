// Tests for the SlimPipe schedule: program structure (slice streams, LIFO
// backward), Eq. 1's accumulated-activation law, warm-up bubble bounds and
// the interleaved form — all measured on the simulator.

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "src/analysis/verify.hpp"
#include "src/core/runner.hpp"
#include "src/core/slice.hpp"
#include "src/core/slimpipe.hpp"
#include "src/ir/schedule_ir.hpp"
#include "src/model/transformer.hpp"
#include "src/sched/builder.hpp"
#include "src/sched/schemes.hpp"

namespace slim::core {
namespace {

using sched::DeviceProgram;
using sched::Pass;
using sched::PassType;
using sched::PipelineSpec;

PipelineSpec slim_spec(int p, int m, int n, int v = 1,
                       std::int64_t seq = 0) {
  if (seq == 0) seq = static_cast<std::int64_t>(n) * 8192;  // uniform slices
  PipelineSpec spec;
  spec.cfg = model::llama13b();  // 40 layers
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.policy = model::CheckpointPolicy::None;
  spec.p = p;
  spec.v = v;
  spec.m = m;
  spec.n = n;
  spec.seq = seq;
  spec.retain_kv = true;
  spec.layout = v == 1 ? sched::StageLayoutKind::Sequential
                       : sched::StageLayoutKind::Interleaved;
  return spec;
}

TEST(SliceFormulaTest, WarmupUnits) {
  // Figure 4: n = 8, p = 4 -> device 0 warms up with n + 2(p-1) = 14 units.
  EXPECT_EQ(slimpipe_warmup_units(4, 0, 8, 1), 14);
  EXPECT_EQ(slimpipe_warmup_units(4, 3, 8, 1), 8);
  EXPECT_EQ(slimpipe_warmup_units(4, 0, 8, 2), 22);
}

TEST(SliceFormulaTest, Eq1Delta) {
  EXPECT_DOUBLE_EQ(slimpipe_delta(4, 8), 0.75);
  // (1 + delta) / p of M_a.
  EXPECT_DOUBLE_EQ(slimpipe_activation_fraction(4, 8, 1), 1.75 / 4.0);
  // Approaches M_a / p as n grows.
  EXPECT_NEAR(slimpipe_activation_fraction(4, 1024, 1), 0.25, 0.002);
  // Interleaving divides the overshoot by v (Table 2).
  EXPECT_DOUBLE_EQ(slimpipe_activation_fraction(4, 8, 2),
                   0.25 + 6.0 / (8.0 * 2.0 * 4.0));
}

TEST(SliceFormulaTest, BubbleBounds) {
  EXPECT_DOUBLE_EQ(slimpipe_bubble_bound(4, 8, 1, 4), 3.0 / 32.0);
  EXPECT_LT(slimpipe_bubble_asymptotic(4, 8, 4),
            slimpipe_bubble_bound(4, 8, 1, 4));
  EXPECT_DOUBLE_EQ(onef1b_bubble_fraction(4, 4), 0.75);
  EXPECT_DOUBLE_EQ(interleaved_bubble_fraction(4, 5, 4), 0.15);
}

TEST(SlimPipeProgramTest, SliceStreamOrderAndLifo) {
  const PipelineSpec spec = slim_spec(4, 2, 8);
  const auto programs = slimpipe_programs(spec);
  ASSERT_EQ(programs.size(), 4u);
  for (const DeviceProgram& program : programs) {
    // Forwards in ascending slice-stream order; backwards per microbatch in
    // strictly descending slice order (LIFO).
    std::int64_t last_f = -1;
    std::map<int, int> last_b_slice;
    for (const Pass& pass : program) {
      if (pass.type == PassType::Forward) {
        const std::int64_t stream = pass.microbatch * 8 + pass.slice;
        EXPECT_GT(stream, last_f);
        last_f = stream;
      } else {
        auto it = last_b_slice.find(pass.microbatch);
        if (it != last_b_slice.end()) {
          EXPECT_LT(pass.slice, it->second) << "backward must be LIFO";
        }
        last_b_slice[pass.microbatch] = pass.slice;
      }
    }
    EXPECT_EQ(static_cast<int>(program.size()), 2 * 2 * 8);
  }
}

TEST(SlimPipeProgramTest, WarmupCountsPerDevice) {
  const PipelineSpec spec = slim_spec(4, 3, 8);
  const auto programs = slimpipe_programs(spec);
  for (int dev = 0; dev < 4; ++dev) {
    int lead = 0;
    for (const Pass& pass : programs[static_cast<std::size_t>(dev)]) {
      if (pass.type != PassType::Forward) break;
      ++lead;
    }
    EXPECT_EQ(lead, slimpipe_warmup_units(4, dev, 8, 1));
  }
}

TEST(SlimPipeProgramTest, PartialLastGroupVerifiesClean) {
  // p = 4 does not divide n = 6: each microbatch's slices form a group of
  // 4 and a last group of 2, every chunk running a group before the stream
  // advances. The table still verifies clean, though PipelineSpec::validate
  // keeps rejecting the spec for the simulator (the exchange planner needs
  // n % p == 0).
  for (const int v : {1, 2}) {
    const PipelineSpec spec = slim_spec(4, 2, 6, v);
    EXPECT_FALSE(spec.validate().empty());
    const auto programs = slimpipe_programs(spec);
    std::vector<std::pair<int, int>> fwd, bwd;  // mb 0's (slice, chunk)
    for (const Pass& pass : programs[0]) {
      if (pass.microbatch != 0) continue;
      (pass.type == PassType::Forward ? fwd : bwd)
          .push_back({pass.slice, pass.chunk});
    }
    std::vector<std::pair<int, int>> want_fwd, want_bwd;
    for (const auto& [lo, hi] : {std::pair{0, 4}, std::pair{4, 6}}) {
      for (int chunk = 0; chunk < v; ++chunk) {
        for (int s = lo; s < hi; ++s) want_fwd.push_back({s, chunk});
      }
    }
    for (const auto& [lo, hi] : {std::pair{4, 6}, std::pair{0, 4}}) {
      for (int chunk = v - 1; chunk >= 0; --chunk) {
        for (int s = hi - 1; s >= lo; --s) want_bwd.push_back({s, chunk});
      }
    }
    EXPECT_EQ(fwd, want_fwd) << "v=" << v;
    EXPECT_EQ(bwd, want_bwd) << "v=" << v;
    const analysis::VerifyResult verdict =
        analysis::verify_ir(ir::lower(spec, programs, "SlimPipe"), spec);
    EXPECT_TRUE(verdict.ok()) << "v=" << v << "\n"
                              << analysis::render(verdict.findings);
  }
}

struct SlimCase {
  int p;
  int m;
  int n;
  int v;
};

class SlimPipeSimTest : public ::testing::TestWithParam<SlimCase> {};

TEST_P(SlimPipeSimTest, ExecutesWithoutDeadlock) {
  const SlimCase c = GetParam();
  PipelineSpec spec = slim_spec(c.p, c.m, c.n, c.v);
  spec.context_exchange = true;
  spec.vocab_parallel = true;
  EXPECT_NO_THROW(run_scheme(Scheme::SlimPipe, spec));
}

// Eq. 1: accumulated activation (+KV) on the first device matches
// (1/p + 2(p-1)/(n v p)) * M_a within one slice unit.
TEST_P(SlimPipeSimTest, Eq1AccumulationLaw) {
  const SlimCase c = GetParam();
  if (c.m < 2) GTEST_SKIP() << "steady state needs m >= 2";
  PipelineSpec spec = slim_spec(c.p, c.m, c.n, c.v);
  spec.vocab_parallel = false;  // keep logits off the measured device
  spec.context_exchange = false;
  const auto programs = slimpipe_programs(spec);
  const auto built = sched::compile(spec, programs, nullptr);
  const auto exec = sim::execute(*built.graph);
  // Replay with no baseline: activation categories only.
  const auto report = mem::replay_memory(*built.graph, exec, spec.p);
  const double measured = report.devices[0].category_peak[mem::kActivation] +
                          report.devices[0].category_peak[mem::kKvCache];

  const double act_per_token = model::act_bytes_per_token_layer(
      spec.cfg, spec.shard, spec.policy, true);
  const double ma = act_per_token * static_cast<double>(spec.seq) *
                    static_cast<double>(spec.cfg.layers);
  const double expected =
      slimpipe_activation_fraction(c.p, c.n, c.v) * ma;
  const double slice_unit = ma / (static_cast<double>(c.n) * c.v * c.p);
  EXPECT_NEAR(measured, expected, slice_unit + 1e-6)
      << "p=" << c.p << " n=" << c.n << " v=" << c.v;
}

// Bubble shrinks as n grows (Figure 6b).
TEST_P(SlimPipeSimTest, MoreSlicesFewerBubbles) {
  const SlimCase c = GetParam();
  if (c.n < 2 * c.p) GTEST_SKIP();
  const std::int64_t seq = static_cast<std::int64_t>(c.n) * 8192;
  PipelineSpec coarse = slim_spec(c.p, c.m, c.p, c.v, seq);
  PipelineSpec fine = slim_spec(c.p, c.m, c.n, c.v, seq);
  coarse.context_exchange = fine.context_exchange = true;
  const auto rc = run_scheme(Scheme::SlimPipe, coarse);
  const auto rf = run_scheme(Scheme::SlimPipe, fine);
  EXPECT_LT(rf.bubble_fraction, rc.bubble_fraction + 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SlimPipeSimTest,
    ::testing::Values(SlimCase{2, 2, 4, 1}, SlimCase{2, 4, 8, 1},
                      SlimCase{4, 2, 8, 1}, SlimCase{4, 3, 16, 1},
                      SlimCase{4, 2, 8, 2}, SlimCase{4, 2, 4, 5},
                      SlimCase{8, 2, 16, 1}, SlimCase{8, 3, 8, 1},
                      SlimCase{5, 2, 10, 1}, SlimCase{8, 2, 8, 5}));

TEST(SlimPipeMemoryTest, BeatsOneF1BAndScalesWithP) {
  // Figure 1 / Figure 10: SlimPipe's activation memory falls with p while
  // classic 1F1B's stays flat.
  double prev_slim = 1e30;
  for (int p : {2, 4, 8}) {
    PipelineSpec spec = slim_spec(p, 4, 4 * p, 1, 128 * 1024);
    spec.vocab_parallel = true;
    spec.context_exchange = true;
    const auto slim = run_scheme(Scheme::SlimPipe, spec);
    PipelineSpec flat;
    flat = spec;
    flat.v = 1;
    flat.n = 1;
    const auto f1b = run_scheme(Scheme::OneF1B, flat);
    EXPECT_LT(slim.first_device_memory, f1b.first_device_memory);
    EXPECT_LT(slim.first_device_memory, prev_slim);
    prev_slim = slim.first_device_memory;
  }
}

TEST(SlimPipeMemoryTest, FirstDeviceHoldsSlightlyMoreThanLast) {
  // §6.2: the first/last device gap is 2(p-1) M_a / (n v p).
  PipelineSpec spec = slim_spec(4, 4, 16, 1, 128 * 1024);
  spec.vocab_parallel = true;
  const auto r = run_scheme(Scheme::SlimPipe, spec);
  EXPECT_GE(r.first_device_memory, r.last_device_memory);
}

TEST(SlimPipeBubbleTest, TwoMicrobatchesStillEfficient) {
  // §6.4 scalability: SlimPipe keeps high efficiency with as few as 2
  // microbatches, where interleaved 1F1B cannot even run (m < p).
  PipelineSpec spec = slim_spec(8, 2, 32, 1, 128 * 1024);
  spec.context_exchange = true;
  spec.vocab_parallel = true;
  const auto slim = run_scheme(Scheme::SlimPipe, spec);
  PipelineSpec flat = spec;
  flat.n = 1;
  const auto f1b = run_scheme(Scheme::OneF1B, flat);
  EXPECT_LT(slim.bubble_fraction, 0.5 * f1b.bubble_fraction);
  // Interleaved 1F1B would need m % p == 0 with m >= p: 2 < 8 fails.
  PipelineSpec inter = flat;
  inter.v = 2;
  inter.layout = sched::StageLayoutKind::Interleaved;
  EXPECT_THROW(sched::interleaved_programs(inter), std::logic_error);
}

TEST(SlimPipeCommTest, TotalCommunicationUnchanged) {
  // §4.1.3: slicing does not change the total P2P activation volume — it
  // sends n smaller boundaries instead of one big one.
  PipelineSpec spec = slim_spec(4, 2, 8);
  spec.context_exchange = false;
  spec.vocab_parallel = false;
  const auto built = sched::compile(spec, slimpipe_programs(spec), nullptr);
  double sliced_bytes = 0.0;
  for (const auto& op : built.graph->ops()) {
    if (op.cls == sim::OpClass::Send) {
      sliced_bytes += op.duration;  // duration ∝ bytes on identical links
    }
  }
  PipelineSpec flat = spec;
  flat.n = 1;
  const auto built_flat =
      sched::compile(flat, sched::onef1b_programs(flat), nullptr);
  double flat_bytes = 0.0;
  for (const auto& op : built_flat.graph->ops()) {
    if (op.cls == sim::OpClass::Send) flat_bytes += op.duration;
  }
  // Slicing adds per-message latency only.
  EXPECT_NEAR(sliced_bytes, flat_bytes, 0.05 * flat_bytes + 1e-3);
}

}  // namespace
}  // namespace slim::core

// Tests for the ZB-V / V-Half constructive schedules: program validity,
// memory caps and the split-backward behaviour.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/core/runner.hpp"
#include "src/model/transformer.hpp"
#include "src/sched/builder.hpp"
#include "src/sched/schemes.hpp"

namespace slim::sched {
namespace {

PipelineSpec zb_spec(int p, int m, std::int64_t seq = 32 * 1024) {
  PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.policy = model::CheckpointPolicy::None;
  spec.p = p;
  spec.v = 2;
  spec.m = m;
  spec.n = 1;
  spec.seq = seq;
  spec.layout = StageLayoutKind::VShape;
  return spec;
}

struct ZbCase {
  int p;
  int m;
};

class ZbvProgramTest : public ::testing::TestWithParam<ZbCase> {};

TEST_P(ZbvProgramTest, EveryUnitScheduledExactlyOnce) {
  const ZbCase c = GetParam();
  if (40 % (c.p * 2) != 0) GTEST_SKIP() << "layers not divisible";
  const PipelineSpec spec = zb_spec(c.p, c.m);
  const auto programs = zbv_programs(spec, 2.0 * c.p);
  ASSERT_EQ(static_cast<int>(programs.size()), c.p);
  for (const DeviceProgram& program : programs) {
    std::map<std::pair<int, int>, int> f_count, bi_count, bw_count;
    for (const Pass& pass : program) {
      const auto key = std::make_pair(pass.microbatch, static_cast<int>(pass.chunk));
      switch (pass.type) {
        case PassType::Forward: ++f_count[key]; break;
        case PassType::BackwardInput: ++bi_count[key]; break;
        case PassType::BackwardWeight: ++bw_count[key]; break;
        default: FAIL() << "unexpected pass type";
      }
    }
    EXPECT_EQ(static_cast<int>(f_count.size()), 2 * c.m);
    EXPECT_EQ(static_cast<int>(bi_count.size()), 2 * c.m);
    EXPECT_EQ(static_cast<int>(bw_count.size()), 2 * c.m);
    for (const auto& [key, count] : f_count) EXPECT_EQ(count, 1);
    for (const auto& [key, count] : bi_count) EXPECT_EQ(count, 1);
    for (const auto& [key, count] : bw_count) EXPECT_EQ(count, 1);
  }
}

TEST_P(ZbvProgramTest, OrderConstraintsWithinDevice) {
  const ZbCase c = GetParam();
  if (40 % (c.p * 2) != 0) GTEST_SKIP() << "layers not divisible";
  const PipelineSpec spec = zb_spec(c.p, c.m);
  const auto programs = zbv_programs(spec, 2.0 * c.p);
  for (const DeviceProgram& program : programs) {
    std::set<std::pair<int, int>> forwarded, input_graded;
    for (const Pass& pass : program) {
      const auto key = std::make_pair(pass.microbatch, static_cast<int>(pass.chunk));
      switch (pass.type) {
        case PassType::Forward:
          forwarded.insert(key);
          break;
        case PassType::BackwardInput:
          EXPECT_TRUE(forwarded.count(key)) << "BI before F";
          input_graded.insert(key);
          break;
        case PassType::BackwardWeight:
          EXPECT_TRUE(input_graded.count(key)) << "W before BI";
          break;
        default:
          break;
      }
    }
  }
}

TEST_P(ZbvProgramTest, ExecutesWithoutDeadlock) {
  const ZbCase c = GetParam();
  if (40 % (c.p * 2) != 0) GTEST_SKIP() << "layers not divisible";
  PipelineSpec spec = zb_spec(c.p, c.m);
  EXPECT_NO_THROW(core::run_scheme(core::Scheme::ZBV, spec));
  EXPECT_NO_THROW(core::run_scheme(core::Scheme::VHalf, spec));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ZbvProgramTest,
                         ::testing::Values(ZbCase{1, 2}, ZbCase{2, 2},
                                           ZbCase{2, 8}, ZbCase{4, 4},
                                           ZbCase{4, 12}, ZbCase{5, 5},
                                           ZbCase{10, 10}));

TEST(ZbvMemoryTest, VHalfUsesLessThanZbv) {
  PipelineSpec spec = zb_spec(4, 8);
  const auto zbv = core::run_scheme(core::Scheme::ZBV, spec);
  const auto vhalf = core::run_scheme(core::Scheme::VHalf, spec);
  EXPECT_LT(vhalf.first_device_memory, zbv.first_device_memory);
}

TEST(ZbvMemoryTest, ZbvMatchesOneF1BPeak) {
  // ZB-V is designed to keep 1F1B's peak activation memory.
  PipelineSpec spec = zb_spec(4, 8);
  const auto zbv = core::run_scheme(core::Scheme::ZBV, spec);
  PipelineSpec flat = spec;
  flat.v = 1;
  flat.layout = StageLayoutKind::Sequential;
  const auto f1b = core::run_scheme(core::Scheme::OneF1B, flat);
  EXPECT_NEAR(zbv.peak_memory, f1b.peak_memory, 0.25 * f1b.peak_memory);
}

TEST(ZbvBubbleTest, BeatsOneF1BAtShortContext) {
  // ZB-V's selling point: near-zero bubbles when T_f ~ T_b ~ T_w, which
  // holds best at short context where attention is small.
  PipelineSpec spec = zb_spec(4, 8, 8 * 1024);
  const auto zbv = core::run_scheme(core::Scheme::ZBV, spec);
  PipelineSpec flat = spec;
  flat.v = 1;
  flat.layout = StageLayoutKind::Sequential;
  const auto f1b = core::run_scheme(core::Scheme::OneF1B, flat);
  EXPECT_LT(zbv.bubble_fraction, f1b.bubble_fraction);
}

TEST(ZbvBubbleTest, ImbalanceGrowsWithContext) {
  // Long context makes attention dominate; T_w = 0 for attention, so the
  // W filler no longer matches the bubbles (paper §2.2): the relative
  // bubble advantage of ZB-V over 1F1B shrinks or reverses.
  PipelineSpec short_spec = zb_spec(4, 8, 8 * 1024);
  PipelineSpec long_spec = zb_spec(4, 8, 256 * 1024);
  const auto zb_short = core::run_scheme(core::Scheme::ZBV, short_spec);
  const auto zb_long = core::run_scheme(core::Scheme::ZBV, long_spec);
  EXPECT_GT(zb_long.bubble_fraction, zb_short.bubble_fraction - 0.02);
}

TEST(ZbvMemoryTest, OomAtLongContext) {
  // Figure 14: without working checkpointing ZB-V runs out of memory early.
  PipelineSpec spec = zb_spec(4, 4, 128 * 1024);
  const auto r = core::run_scheme(core::Scheme::ZBV, spec);
  EXPECT_TRUE(r.oom);
}

}  // namespace
}  // namespace slim::sched

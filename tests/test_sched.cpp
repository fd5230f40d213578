// Tests for the baseline pipeline schedules: program structure, Table 2
// activation-memory fractions and warm-up bubble formulas, measured on the
// simulator rather than assumed.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/runner.hpp"
#include "src/core/slice.hpp"
#include "src/model/transformer.hpp"
#include "src/sched/builder.hpp"
#include "src/sched/schedule.hpp"
#include "src/sched/schemes.hpp"
#include "src/sched/ulysses.hpp"

namespace slim::sched {
namespace {

PipelineSpec small_spec(int p, int m, int v = 1) {
  PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.policy = model::CheckpointPolicy::None;
  spec.p = p;
  spec.v = v;
  spec.m = m;
  spec.n = 1;
  spec.seq = 32 * 1024;
  return spec;
}

int count_type(const DeviceProgram& program, PassType type) {
  int count = 0;
  for (const Pass& pass : program) count += pass.type == type ? 1 : 0;
  return count;
}

TEST(StageLayoutTest, Sequential) {
  const StageLayout layout{4, 1, StageLayoutKind::Sequential};
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(layout.device_of(s), s);
    EXPECT_EQ(layout.chunk_of(s), 0);
  }
}

TEST(StageLayoutTest, Interleaved) {
  const StageLayout layout{4, 2, StageLayoutKind::Interleaved};
  EXPECT_EQ(layout.device_of(0), 0);
  EXPECT_EQ(layout.device_of(4), 0);
  EXPECT_EQ(layout.chunk_of(4), 1);
  EXPECT_EQ(layout.stage_of(2, 1), 6);
}

TEST(StageLayoutTest, VShape) {
  const StageLayout layout{4, 2, StageLayoutKind::VShape};
  EXPECT_EQ(layout.device_of(0), 0);
  EXPECT_EQ(layout.device_of(3), 3);
  EXPECT_EQ(layout.device_of(4), 3);  // back up the V
  EXPECT_EQ(layout.device_of(7), 0);
  EXPECT_EQ(layout.stage_of(0, 1), 7);
  EXPECT_EQ(layout.stage_of(3, 1), 4);
}

// Every layout the spec accepts (sequential: v = 1, V-shape: v = 2,
// interleaved: any v) maps its p * v stages one to one onto the (device,
// chunk) slots, and stage_of inverts device_of / chunk_of.
TEST(StageLayoutTest, RoundTripAndInjectiveForEveryKind) {
  const std::vector<std::pair<StageLayoutKind, std::vector<int>>> kinds = {
      {StageLayoutKind::Sequential, {1}},
      {StageLayoutKind::Interleaved, {1, 2, 3, 4}},
      {StageLayoutKind::VShape, {2}}};
  for (const auto& [kind, vs] : kinds) {
    for (const int v : vs) {
      for (const int p : {1, 2, 3, 4, 8}) {
        const StageLayout layout{p, v, kind};
        SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                     " p=" + std::to_string(p) + " v=" + std::to_string(v));
        std::set<std::pair<int, int>> slots;
        for (int stage = 0; stage < layout.num_stages(); ++stage) {
          const int dev = layout.device_of(stage);
          const int chunk = layout.chunk_of(stage);
          ASSERT_GE(dev, 0);
          ASSERT_LT(dev, p);
          ASSERT_GE(chunk, 0);
          ASSERT_LT(chunk, v);
          EXPECT_EQ(layout.stage_of(dev, chunk), stage);
          EXPECT_TRUE(slots.insert({dev, chunk}).second)
              << "stage " << stage << " shares (dev " << dev << ", chunk "
              << chunk << ") with an earlier stage";
        }
        EXPECT_EQ(slots.size(), static_cast<std::size_t>(p * v));
      }
    }
  }
}

TEST(SpecTest, ValidationErrors) {
  PipelineSpec spec = small_spec(3, 2);  // 40 layers not divisible by 3
  EXPECT_TRUE(spec.validate().empty());  // uneven stages supported
  spec = small_spec(4, 2);
  EXPECT_TRUE(spec.validate().empty());
  spec.n = 6;  // not a multiple of p=4
  EXPECT_FALSE(spec.validate().empty());
  spec.n = 8;
  EXPECT_TRUE(spec.validate().empty());
  spec.context_exchange = true;
  spec.n = 1;
  EXPECT_FALSE(spec.validate().empty());
}

TEST(SpecTest, PlanRejectsNonPositiveShapeBeforeGenerating) {
  // ZB-V's generator divides by p: plan_scheme must refuse p = 0 (and any
  // v, m or n below 1) with a structured error before it runs.
  PipelineSpec spec = small_spec(4, 4);
  spec.p = 0;
  EXPECT_THROW(core::plan_scheme(core::Scheme::ZBV, spec), std::logic_error);
  for (int PipelineSpec::*field :
       {&PipelineSpec::v, &PipelineSpec::m, &PipelineSpec::n}) {
    spec = small_spec(4, 4);
    spec.*field = 0;
    EXPECT_THROW(core::plan_scheme(core::Scheme::SlimPipe, spec),
                 std::logic_error);
  }
}

TEST(GPipeTest, ProgramShape) {
  const PipelineSpec spec = small_spec(4, 3);
  const auto programs = gpipe_programs(spec);
  ASSERT_EQ(programs.size(), 4u);
  for (const DeviceProgram& program : programs) {
    EXPECT_EQ(program.size(), 6u);
    EXPECT_EQ(count_type(program, PassType::Forward), 3);
    EXPECT_EQ(count_type(program, PassType::Backward), 3);
    // All forwards strictly before all backwards.
    bool seen_backward = false;
    for (const Pass& pass : program) {
      if (pass.type == PassType::Backward) seen_backward = true;
      if (seen_backward) {
        EXPECT_EQ(pass.type, PassType::Backward);
      }
    }
  }
}

TEST(OneF1BTest, WarmupDepthDecreasesWithRank) {
  const PipelineSpec spec = small_spec(4, 8);
  const auto programs = onef1b_programs(spec);
  // Leading forward run length = p - rank.
  for (int dev = 0; dev < 4; ++dev) {
    int lead = 0;
    for (const Pass& pass : programs[static_cast<std::size_t>(dev)]) {
      if (pass.type != PassType::Forward) break;
      ++lead;
    }
    EXPECT_EQ(lead, 4 - dev);
  }
}

TEST(OneF1BTest, FewMicrobatchesClamped) {
  const PipelineSpec spec = small_spec(4, 2);
  const auto programs = onef1b_programs(spec);
  for (const DeviceProgram& program : programs) {
    EXPECT_EQ(program.size(), 4u);
  }
  EXPECT_NO_THROW(run_pipeline(spec, programs, nullptr, "1F1B"));
}

TEST(InterleavedTest, RequiresDivisibleMicrobatches) {
  PipelineSpec spec = small_spec(4, 6, 2);
  spec.layout = StageLayoutKind::Interleaved;
  EXPECT_THROW(interleaved_programs(spec), std::logic_error);
}

TEST(InterleavedTest, UnitCount) {
  PipelineSpec spec = small_spec(4, 8, 2);
  spec.layout = StageLayoutKind::Interleaved;
  const auto programs = interleaved_programs(spec);
  for (const DeviceProgram& program : programs) {
    EXPECT_EQ(count_type(program, PassType::Forward), 16);
    EXPECT_EQ(count_type(program, PassType::Backward), 16);
  }
}

struct BubbleCase {
  int p;
  int m;
  int v;
};

class BubbleFormulaTest : public ::testing::TestWithParam<BubbleCase> {};

// The 1F1B warm-up bubble fraction is (p-1)/m relative to the steady work,
// i.e. (p-1)/(m+p-1) of the makespan. The simulator must land close (the
// deviation comes from backward != forward durations and the vocab stage).
TEST_P(BubbleFormulaTest, OneF1BMatchesClosedForm) {
  const BubbleCase c = GetParam();
  PipelineSpec spec = small_spec(c.p, c.m);
  // Shrink the vocabulary so the last-stage output GEMM does not add the
  // Figure 9 imbalance on top of the warm-up bubble being measured.
  spec.cfg.vocab = 4000;
  const auto r = core::run_scheme(core::Scheme::OneF1B, spec);
  const double expect = static_cast<double>(c.p - 1) /
                        static_cast<double>(c.m + c.p - 1);
  EXPECT_NEAR(r.bubble_fraction, expect, 0.08)
      << "p=" << c.p << " m=" << c.m;
}

TEST_P(BubbleFormulaTest, InterleavingShrinksBubble) {
  const BubbleCase c = GetParam();
  if (c.m % c.p != 0 || c.v < 2) return;
  PipelineSpec base = small_spec(c.p, c.m);
  const auto flat = core::run_scheme(core::Scheme::OneF1B, base);
  PipelineSpec inter = small_spec(c.p, c.m, c.v);
  const auto leaved = core::run_scheme(core::Scheme::Interleaved1F1B, inter);
  EXPECT_LT(leaved.bubble_fraction, flat.bubble_fraction + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BubbleFormulaTest,
    ::testing::Values(BubbleCase{2, 4, 2}, BubbleCase{2, 8, 2},
                      BubbleCase{4, 4, 2}, BubbleCase{4, 8, 5},
                      BubbleCase{4, 16, 2}, BubbleCase{8, 8, 5},
                      BubbleCase{8, 16, 1}, BubbleCase{8, 32, 1}));

struct MemCase {
  int p;
  int m;
};

class ActivationFractionTest : public ::testing::TestWithParam<MemCase> {};

// Table 2: activation peak of 1F1B's first device = min(m, p) microbatches
// of M_a / p each. Measured from the simulator's byte-exact replay.
TEST_P(ActivationFractionTest, OneF1BFirstDevice) {
  const MemCase c = GetParam();
  PipelineSpec spec = small_spec(c.p, c.m);
  const auto programs = onef1b_programs(spec);
  const auto r = run_pipeline(spec, programs, nullptr, "1F1B");

  const double act_per_token = model::act_bytes_per_token_layer(
      spec.cfg, spec.shard, spec.policy, false);
  const double ma = act_per_token * static_cast<double>(spec.seq) *
                    static_cast<double>(spec.cfg.layers);
  const double expected =
      core::onef1b_activation_fraction(c.m, c.p) * ma;
  // Subtract the static model states to isolate activations.
  const double states = r.first_device_memory - expected;
  EXPECT_GT(states, 0.0);
  // Re-run with m+p' more microbatches: activation plateau (does not grow).
  PipelineSpec spec2 = small_spec(c.p, c.m + c.p);
  const auto r2 = run_pipeline(spec2, onef1b_programs(spec2), nullptr, "1F1B");
  if (c.m >= c.p) {
    EXPECT_NEAR(r2.first_device_memory, r.first_device_memory,
                0.01 * r.first_device_memory);
  } else {
    EXPECT_GT(r2.first_device_memory, r.first_device_memory);
  }
}

TEST_P(ActivationFractionTest, GPipeGrowsWithMicrobatches) {
  const MemCase c = GetParam();
  PipelineSpec spec = small_spec(c.p, c.m);
  const auto r1 = core::run_scheme(core::Scheme::GPipe, spec);
  PipelineSpec spec2 = small_spec(c.p, 2 * c.m);
  const auto r2 = core::run_scheme(core::Scheme::GPipe, spec2);
  EXPECT_GT(r2.first_device_memory, r1.first_device_memory);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ActivationFractionTest,
                         ::testing::Values(MemCase{2, 4}, MemCase{4, 4},
                                           MemCase{4, 8}, MemCase{8, 8},
                                           MemCase{8, 16}));

TEST(TeraPipeTest, AccumulatesEverything) {
  PipelineSpec spec = small_spec(4, 4);
  spec.n = 8;
  spec.retain_kv = true;
  const auto tera = core::run_scheme(core::Scheme::TeraPipe, spec);
  PipelineSpec flat = small_spec(4, 4);
  const auto f1b = core::run_scheme(core::Scheme::OneF1B, flat);
  // TeraPipe holds all m microbatches; 1F1B only p (= m here would tie,
  // so use m > p).
  PipelineSpec spec2 = small_spec(4, 8);
  spec2.n = 8;
  const auto tera2 = core::run_scheme(core::Scheme::TeraPipe, spec2);
  EXPECT_GT(tera2.first_device_memory, f1b.first_device_memory * 1.5);
  // But its warm-up bubble is much smaller than GPipe's.
  PipelineSpec gspec = small_spec(4, 4);
  const auto gp = core::run_scheme(core::Scheme::GPipe, gspec);
  EXPECT_LT(tera.bubble_fraction, gp.bubble_fraction);
}

TEST(UlyssesTest, DegreeBoundedByQueryGroups) {
  const auto gpu = model::hopper80();
  const auto cfg = model::llama70b();  // 8 query groups
  const auto r = run_ulysses(cfg, gpu, 128, 128 * 1024, 4 * 1024 * 1024, 16,
                             model::CheckpointPolicy::Full);
  EXPECT_EQ(r.status, UlyssesStatus::NoViableConfig);
  EXPECT_NE(r.note.find("query groups"), std::string::npos);
}

TEST(UlyssesTest, BatchTooSmallForZero) {
  const auto gpu = model::hopper80();
  const auto cfg = model::mixtral8x7b();
  // 512K context, 4M tokens -> batch 8; u <= 8 -> dz >= 16 > batch.
  const auto r = best_ulysses(cfg, gpu, 128, 512 * 1024, 4 * 1024 * 1024);
  EXPECT_NE(r.status, UlyssesStatus::Ok);
}

TEST(UlyssesTest, ViableAtModerateScale) {
  const auto gpu = model::hopper80();
  const auto cfg = model::llama13b();
  const auto r = best_ulysses(cfg, gpu, 128, 65536, 4 * 1024 * 1024);
  EXPECT_EQ(r.status, UlyssesStatus::Ok);
  EXPECT_GT(r.mfu, 0.05);
  EXPECT_LT(r.mfu, 0.65);
}

TEST(VocabImbalanceTest, LastStageGemmCreatesBubbles) {
  // Figure 9: with the output GEMM on the last device only, other devices
  // wait; distributing it (vocab parallel) removes that wait. Compare
  // bubbles under 1F1B where every microbatch pays the serialized GEMM.
  PipelineSpec spec = small_spec(4, 8);
  spec.seq = 64 * 1024;
  const auto plain = core::run_scheme(core::Scheme::OneF1B, spec);
  PipelineSpec vp = spec;
  vp.vocab_parallel = true;
  const auto distributed = core::run_scheme(core::Scheme::OneF1B, vp);
  EXPECT_LT(distributed.iteration_time, plain.iteration_time);
}

}  // namespace
}  // namespace slim::sched

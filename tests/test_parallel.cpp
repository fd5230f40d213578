// Tests for the hybrid-parallelism configuration rules and the grid search
// (the machinery behind Figure 12's per-cell "best configuration" and its
// failure markers).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/slice.hpp"
#include "src/model/activation.hpp"
#include "src/parallel/config.hpp"
#include "src/parallel/search.hpp"
#include "src/sched/builder.hpp"

namespace slim::parallel {
namespace {

constexpr std::int64_t kMi = 1024 * 1024;

HybridConfig base_config() {
  HybridConfig cfg;
  cfg.t = 8;
  cfg.c = 1;
  cfg.d = 2;
  cfg.p = 8;
  cfg.scheme = core::Scheme::OneF1B;
  return cfg;
}

TEST(ConfigTest, WorldSizeMustMatch) {
  const auto cfg = base_config();  // world = 128
  const auto llama = model::llama13b();
  EXPECT_TRUE(validate(cfg, llama, 128, 64 * 1024, 4 * kMi).empty());
  EXPECT_FALSE(validate(cfg, llama, 256, 64 * 1024, 4 * kMi).empty());
}

TEST(ConfigTest, TpBoundedByHeadsAndNode) {
  auto cfg = base_config();
  cfg.t = 16;
  cfg.d = 1;
  const auto llama = model::llama13b();
  EXPECT_NE(validate(cfg, llama, 128, 64 * 1024, 4 * kMi).find("NVLink"),
            std::string::npos);
  // Llama 70B has 8 KV heads; t=16 would split them below 1.
  auto cfg2 = base_config();
  cfg2.t = 8;
  EXPECT_TRUE(validate(cfg2, model::llama70b(), 128, 64 * 1024, 4 * kMi)
                  .empty());
}

TEST(ConfigTest, LayerDivisibility) {
  auto cfg = base_config();
  cfg.p = 3;  // 40 layers % 3 != 0
  cfg.d = 2;
  cfg.t = 8;
  cfg.c = 1;
  const std::string err =
      validate(cfg, model::llama13b(), 48, 64 * 1024, 4 * kMi);
  EXPECT_NE(err.find("layers"), std::string::npos);
}

TEST(ConfigTest, ExpertParallelRules) {
  auto cfg = base_config();
  cfg.e = 4;
  EXPECT_NE(validate(cfg, model::llama13b(), 128, 64 * 1024, 4 * kMi)
                .find("dense"),
            std::string::npos);
  auto moe = base_config();
  moe.t = 1;
  moe.c = 8;
  moe.d = 2;
  moe.p = 8;
  moe.e = 8;
  EXPECT_TRUE(
      validate(moe, model::mixtral8x7b(), 128, 64 * 1024, 4 * kMi).empty());
  moe.e = 3;
  EXPECT_FALSE(
      validate(moe, model::mixtral8x7b(), 128, 64 * 1024, 4 * kMi).empty());
}

TEST(ConfigTest, MicrobatchArithmetic) {
  auto cfg = base_config();
  EXPECT_EQ(cfg.microbatches(64 * 1024, 4 * kMi), 32);
  EXPECT_EQ(cfg.microbatches(512 * 1024, 4 * kMi), 4);
  // Batch smaller than DP.
  cfg.d = 16;
  cfg.p = 1;
  EXPECT_EQ(cfg.microbatches(512 * 1024, 4 * kMi), 0);
}

TEST(ConfigTest, InterleavedNeedsDivisibleMicrobatches) {
  auto cfg = base_config();
  cfg.scheme = core::Scheme::Interleaved1F1B;
  cfg.v = 2;
  cfg.d = 2;
  // m = 4M / (512K * 2) = 4; p = 8 -> 4 % 8 != 0.
  const std::string err =
      validate(cfg, model::llama13b(), 128, 512 * 1024, 4 * kMi);
  EXPECT_NE(err.find("divisible by p"), std::string::npos);
}

TEST(ConfigTest, SlimPipeSliceRules) {
  auto cfg = base_config();
  cfg.scheme = core::Scheme::SlimPipe;
  cfg.n = 12;  // not a multiple of p=8
  EXPECT_FALSE(
      validate(cfg, model::llama13b(), 128, 64 * 1024, 4 * kMi).empty());
  cfg.n = 16;
  EXPECT_TRUE(
      validate(cfg, model::llama13b(), 128, 64 * 1024, 4 * kMi).empty());
}

TEST(ConfigTest, DescribeMentionsKnobs) {
  auto cfg = base_config();
  cfg.scheme = core::Scheme::SlimPipe;
  cfg.n = 16;
  cfg.v = 2;
  cfg.offload_ratio = 0.75;
  const std::string s = cfg.describe();
  EXPECT_NE(s.find("SlimPipe"), std::string::npos);
  EXPECT_NE(s.find("n=16"), std::string::npos);
  EXPECT_NE(s.find("offload=75%"), std::string::npos);
}

TEST(EstimateTest, MemoryTracksSimulation) {
  // The analytic estimate should be within ~35% of the simulated peak for
  // a typical configuration (it filters, the simulator decides).
  auto cfg = base_config();
  cfg.scheme = core::Scheme::OneF1B;
  cfg.d = 2;
  const auto llama = model::llama13b();
  const auto gpu = model::hopper80();
  const double est = estimate_peak_memory(cfg, llama, gpu, 64 * 1024, 4 * kMi);
  auto spec = make_spec(cfg, llama, gpu, 64 * 1024, 4 * kMi);
  const auto r = core::run_scheme(core::Scheme::OneF1B, spec);
  EXPECT_NEAR(est, r.peak_memory, 0.35 * r.peak_memory);
}

TEST(EstimateTest, ActivationTermIsTheSchemesTable2Fraction) {
  // The activation term, 2 x (estimate at offload 0 - estimate at offload
  // 0.5), is the Table 2 fraction of M_a of the scheme that runs:
  // Interleaved 1F1B at v = 1 runs, and is priced, as 1F1B. Full
  // checkpointing keeps K/V only where a scheme retains it (SlimPipe,
  // TeraPipe); the V-shaped schemes run without checkpointing.
  const auto llama = model::llama13b();
  const auto gpu = model::hopper80();
  constexpr std::int64_t kSeq = 64 * 1024;
  constexpr int kP = 4;
  struct Case {
    core::Scheme scheme;
    int v;
    int n;
  };
  const std::vector<Case> cases = {{core::Scheme::GPipe, 1, 1},
                                   {core::Scheme::TeraPipe, 1, 8},
                                   {core::Scheme::OneF1B, 1, 1},
                                   {core::Scheme::Interleaved1F1B, 1, 1},
                                   {core::Scheme::Interleaved1F1B, 2, 1},
                                   {core::Scheme::ZBV, 2, 1},
                                   {core::Scheme::VHalf, 2, 1},
                                   {core::Scheme::VMin, 2, 1},
                                   {core::Scheme::SlimPipe, 1, 8},
                                   {core::Scheme::SlimPipe, 2, 16}};
  for (const int m : {2, 8}) {
    for (const Case& c : cases) {
      HybridConfig cfg;
      cfg.t = 8;
      cfg.p = kP;
      cfg.v = c.v;
      cfg.n = c.n;
      cfg.policy = model::CheckpointPolicy::Full;
      cfg.scheme = c.scheme;
      const double cap = static_cast<double>(m) / kP;  // all m microbatches
      double fraction = 0.0;
      switch (c.scheme) {
        case core::Scheme::GPipe:
        case core::Scheme::TeraPipe:
          fraction = core::gpipe_activation_fraction(m, kP);
          break;
        case core::Scheme::OneF1B:
        case core::Scheme::ZBV:
          fraction = core::onef1b_activation_fraction(m, kP);
          break;
        case core::Scheme::Interleaved1F1B:
          fraction = c.v == 1 ? core::onef1b_activation_fraction(m, kP)
                              : std::min(core::interleaved_activation_fraction(
                                             kP, c.v),
                                         cap);
          break;
        case core::Scheme::VHalf:
          fraction = std::min(core::vhalf_activation_fraction(kP), cap);
          break;
        case core::Scheme::VMin:
          fraction = std::min(core::vmin_activation_fraction(kP), cap);
          break;
        case core::Scheme::SlimPipe:
          fraction = std::min(
              core::slimpipe_activation_fraction(kP, c.n, c.v), cap);
          break;
      }
      const bool retain_kv = c.scheme == core::Scheme::SlimPipe ||
                             c.scheme == core::Scheme::TeraPipe;
      const bool vshape = c.scheme == core::Scheme::ZBV ||
                          c.scheme == core::Scheme::VHalf ||
                          c.scheme == core::Scheme::VMin;
      const double ma =
          model::act_bytes_per_token_layer(
              llama, {8, 1, 1, 8},
              vshape ? model::CheckpointPolicy::None : cfg.policy,
              retain_kv) *
          static_cast<double>(kSeq) * static_cast<double>(llama.layers);
      const double whole =
          estimate_peak_memory(cfg, llama, gpu, kSeq, kSeq * m);
      cfg.offload_ratio = 0.5;
      const double half =
          estimate_peak_memory(cfg, llama, gpu, kSeq, kSeq * m);
      EXPECT_NEAR(2.0 * (whole - half), fraction * ma,
                  1e-12 * fraction * ma)
          << core::scheme_name(c.scheme) << " v=" << c.v << " n=" << c.n
          << " m=" << m;
    }
  }
}

TEST(EstimateTest, ModelStateTermIsTheBuildersDeviceZeroBaseline) {
  // The estimate prices device 0's model states with the vocabulary share
  // the graph builder books there: all of the tied vocabulary when device 0
  // holds both the first and the last stage (ZB-V's V shape, any scheme at
  // p = 1). 2 x (estimate at offload 0.5) - (estimate at offload 0) drops
  // the activation term and leaves model states plus logits.
  const auto llama = model::llama13b();
  const auto gpu = model::hopper80();
  constexpr std::int64_t kSeq = 16 * 1024;
  struct Case {
    core::Scheme scheme;
    std::int64_t p;
    int v;
  };
  for (const Case& c :
       {Case{core::Scheme::ZBV, 8, 2}, Case{core::Scheme::OneF1B, 1, 1}}) {
    HybridConfig cfg;
    cfg.t = 8;
    cfg.p = c.p;
    cfg.v = c.v;
    cfg.scheme = c.scheme;
    const std::int64_t tokens = kSeq * 2 * c.p;
    const double whole = estimate_peak_memory(cfg, llama, gpu, kSeq, tokens);
    cfg.offload_ratio = 0.5;
    const double half = estimate_peak_memory(cfg, llama, gpu, kSeq, tokens);
    cfg.offload_ratio = 0.0;

    const core::SchedulePlan plan = core::plan_scheme(
        c.scheme, make_spec(cfg, llama, gpu, kSeq, tokens));
    ASSERT_FALSE(plan.spec.vocab_parallel);
    const sched::BuildOutput built =
        sched::compile(plan.spec, plan.programs, nullptr);
    double device0 = 0.0;
    for (const mem::StaticFootprint& f : built.baseline) {
      if (f.device == 0) device0 += f.bytes;
    }
    const double logits = model::logits_bytes(llama, plan.spec.shard, kSeq, 1);
    EXPECT_NEAR(2.0 * half - whole - logits, device0, 1e-9 * device0)
        << core::scheme_name(c.scheme) << " p=" << c.p;
  }
}

TEST(EstimateTest, TimeOrdersPolicies) {
  auto cfg = base_config();
  const auto llama = model::llama13b();
  const auto gpu = model::hopper80();
  auto with_policy = [&](model::CheckpointPolicy p) {
    auto c = cfg;
    c.policy = p;
    return estimate_iteration_time(c, llama, gpu, 64 * 1024, 4 * kMi);
  };
  EXPECT_LT(with_policy(model::CheckpointPolicy::None),
            with_policy(model::CheckpointPolicy::Selective));
  EXPECT_LT(with_policy(model::CheckpointPolicy::Selective),
            with_policy(model::CheckpointPolicy::Full));
}

TEST(GridSearchTest, FindsConfigForEveryScheme) {
  const auto llama = model::llama13b();
  const auto gpu = model::hopper80();
  for (const auto scheme :
       {core::Scheme::OneF1B, core::Scheme::Interleaved1F1B,
        core::Scheme::SlimPipe}) {
    const SearchResult r =
        grid_search(llama, gpu, 64, 64 * 1024, 4 * kMi, scheme);
    EXPECT_EQ(r.status, SearchStatus::Ok) << core::scheme_name(scheme);
    EXPECT_GT(r.result.mfu, 0.1);
    EXPECT_FALSE(r.result.oom);
  }
}

TEST(GridSearchTest, SlimPipeWinsLongContext) {
  // The headline comparison: long context, fixed iteration tokens.
  const auto llama = model::llama70b();
  const auto gpu = model::hopper80();
  const auto slim = grid_search(llama, gpu, 128, 512 * 1024, 4 * kMi,
                                core::Scheme::SlimPipe);
  const auto mega = grid_search(llama, gpu, 128, 512 * 1024, 4 * kMi,
                                core::Scheme::Interleaved1F1B);
  ASSERT_EQ(slim.status, SearchStatus::Ok);
  if (mega.status == SearchStatus::Ok) {
    EXPECT_GT(slim.result.mfu, mega.result.mfu);
  }
}

TEST(GridSearchTest, ReportsOomWhenNothingFits) {
  // Llama 149B on 8 GPUs at long context cannot fit under any layout.
  const auto big = model::llama149b();
  const auto gpu = model::hopper80();
  const SearchResult r = grid_search(big, gpu, 8, 512 * 1024, 512 * 1024,
                                     core::Scheme::OneF1B);
  EXPECT_NE(r.status, SearchStatus::Ok);
}

TEST(MaxContextTest, SlimPipeExceedsClassicSchemes) {
  // Figure 2's qualitative statement.
  const auto llama = model::llama7b();
  const auto gpu = model::hopper80();
  const std::int64_t gran = 32 * 1024, cap = 2048 * 1024;
  const std::int64_t f1b = max_supported_context(
      core::Scheme::OneF1B, llama, gpu, 8, 8, gran, cap);
  const std::int64_t slim = max_supported_context(
      core::Scheme::SlimPipe, llama, gpu, 8, 8, gran, cap);
  EXPECT_GT(f1b, 0);
  EXPECT_GT(slim, 2 * f1b);
}

}  // namespace
}  // namespace slim::parallel

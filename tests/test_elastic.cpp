// Elastic variable-length microbatches (ROADMAP item 2): explicit
// SliceLayout boundaries, cost-balanced slice solving, skewed workload
// generation/packing, strict env parsing — and the differential sweep
// proving that for any layout the simulator, the threaded runtime and the
// multi-process runtime agree on schedule shape, gradients (bit-identical
// across backends, float-tolerance against the monolithic reference) and
// memory (arena peaks reconcile with the analytical per-slice footprint).

#include <gtest/gtest.h>

#include <cstdlib>

#include <algorithm>
#include <numeric>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/runner.hpp"
#include "src/core/slice_layout.hpp"
#include "src/core/workload.hpp"
#include "src/dist/process_pipeline.hpp"
#include "src/memory/reconcile.hpp"
#include "src/model/activation.hpp"
#include "src/model/slice_balance.hpp"
#include "src/model/transformer.hpp"
#include "src/numerics/transformer_block.hpp"
#include "src/runtime/pipeline_runtime.hpp"
#include "src/sched/builder.hpp"
#include "src/util/env.hpp"
#include "src/util/number.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace slim {
namespace {

// ---------------------------------------------------------------- layouts

TEST(SliceLayoutTest, UniformDistributesRemainderToFirstSlices) {
  const auto layout = core::SliceLayout::uniform(10, 4);
  EXPECT_EQ(layout.lens(), (std::vector<std::int64_t>{3, 3, 2, 2}));
  EXPECT_EQ(layout.seq(), 10);
  EXPECT_EQ(layout.kv_prefix(0), 0);
  EXPECT_EQ(layout.kv_prefix(2), 6);
  EXPECT_FALSE(layout.is_uniform());
  EXPECT_TRUE(core::SliceLayout::uniform(8, 4).is_uniform());
}

TEST(SliceLayoutTest, UniformRespectsAlignment) {
  // 10 blocks of 4 tokens over 3 slices: blocks 4/3/3, boundaries on
  // multiples of 4.
  const auto layout = core::SliceLayout::uniform(40, 3, 4);
  EXPECT_EQ(layout.lens(), (std::vector<std::int64_t>{16, 12, 12}));
  for (int s = 0; s < layout.slices(); ++s) {
    EXPECT_EQ(layout.begin(s) % 4, 0);
  }
  EXPECT_THROW(core::SliceLayout::uniform(10, 4, 4), std::exception);
  EXPECT_THROW(core::SliceLayout::uniform(8, 3, 4), std::exception);
}

TEST(SliceLayoutTest, FromLensAndBoundsValidate) {
  const auto layout = core::SliceLayout::from_lens({5, 3});
  EXPECT_EQ(layout.bounds(), (std::vector<std::int64_t>{0, 5, 8}));
  EXPECT_EQ(layout.describe(), "8=[5 3]");
  EXPECT_THROW(core::SliceLayout({1, 2, 3}), std::exception);  // not from 0
  EXPECT_THROW(core::SliceLayout({0, 2, 2}), std::exception);  // not increasing
  EXPECT_THROW(core::SliceLayout::from_lens({3, 0}), std::exception);
}

TEST(SliceLayoutTest, BalancedInvertsThePrefixFunction) {
  // prefix cost x^2: cost of slice [a,b) is b^2 - a^2 — boundaries must
  // land near sqrt(total * i / n).
  const auto quad = [](std::int64_t x) {
    return static_cast<double>(x) * static_cast<double>(x);
  };
  const auto layout = core::SliceLayout::balanced(100, 4, quad);
  EXPECT_EQ(layout.seq(), 100);
  EXPECT_EQ(layout.slices(), 4);
  EXPECT_EQ(layout.bounds()[1], 50);  // sqrt(1/4) * 100
  EXPECT_EQ(layout.bounds()[2], 71);  // ceil(sqrt(1/2) * 100)
  EXPECT_EQ(layout.bounds()[3], 87);  // ceil(sqrt(3/4) * 100)
  // Quadratic prefix = causal attention shape: early slices are longer.
  const auto lens = layout.lens();
  EXPECT_TRUE(std::is_sorted(lens.rbegin(), lens.rend()));
}

TEST(SliceBalanceTest, BalancedLayoutEqualizesAttentionFlops) {
  const model::TransformerConfig cfg = model::llama13b();
  const model::GpuSpec gpu = model::hopper80();
  sched::PipelineSpec probe;
  probe.cfg = cfg;
  probe.gpu = gpu;
  probe.shard = {8, 1, 1, 8};
  probe.p = 4;
  const model::CostModel cost(cfg, gpu, sched::pipeline_topology(probe),
                              probe.shard, model::CheckpointPolicy::None,
                              model::CpMode::Commutated);
  const std::int64_t seq = 128 * 1024;
  const int n = 16;
  const auto layout = model::balanced_layout(cost, seq, n);
  ASSERT_EQ(layout.slices(), n);
  EXPECT_EQ(layout.seq(), seq);

  // Per-slice causal-attention FLOPs F(b) - F(a) within one boundary step
  // of the mean (the solver is exact up to integer token snapping).
  auto prefix = [&](std::int64_t x) {
    return cost.attn_block_flops(static_cast<double>(x),
                                 model::CostModel::causal_kv_equiv(x, 0));
  };
  const double mean = prefix(seq) / n;
  for (int s = 0; s < n; ++s) {
    const double flops = prefix(layout.end(s)) - prefix(layout.begin(s));
    // One token moved across a boundary changes a slice's cost by at most
    // the cost of a full-prefix row.
    const double step = prefix(seq) - prefix(seq - 1);
    EXPECT_NEAR(flops, mean, 2.0 * step) << "slice " << s;
  }
  // Causal attention grows with the prefix: balanced slices shrink.
  const auto lens = layout.lens();
  EXPECT_TRUE(std::is_sorted(lens.rbegin(), lens.rend()));
  EXPECT_GT(lens.front(), 2 * lens.back());
}

// --------------------------------------------------------------- workload

TEST(WorkloadTest, SamplingIsDeterministicAndInRange) {
  core::WorkloadSpec spec;
  spec.mix = core::DocMix::Zipf;
  spec.min_len = 16;
  spec.max_len = 4096;
  spec.seed = 7;
  const auto a = core::sample_doc_lengths(spec, 64);
  const auto b = core::sample_doc_lengths(spec, 64);
  EXPECT_EQ(a, b);
  for (const std::int64_t len : a) {
    EXPECT_GE(len, spec.min_len);
    EXPECT_LE(len, spec.max_len);
  }
  spec.seed = 8;
  EXPECT_NE(core::sample_doc_lengths(spec, 64), a);
}

TEST(WorkloadTest, ZipfIsSkewedShort) {
  core::WorkloadSpec spec;
  spec.mix = core::DocMix::Zipf;
  spec.min_len = 16;
  spec.max_len = 4096;
  spec.zipf_exponent = 1.2;
  spec.seed = 3;
  const auto lens = core::sample_doc_lengths(spec, 512);
  const double mean =
      static_cast<double>(std::accumulate(lens.begin(), lens.end(),
                                          std::int64_t{0})) /
      static_cast<double>(lens.size());
  // Power-law mass sits near min_len; the arithmetic midpoint would be 2056.
  EXPECT_LT(mean, 512.0);
  EXPECT_GT(*std::max_element(lens.begin(), lens.end()), 1024);
}

TEST(WorkloadTest, BimodalSamplesOnlyTheTwoModes) {
  core::WorkloadSpec spec;
  spec.mix = core::DocMix::Bimodal;
  spec.min_len = 8;
  spec.max_len = 512;
  spec.long_fraction = 0.25;
  spec.seed = 5;
  int longs = 0;
  for (const std::int64_t len : core::sample_doc_lengths(spec, 256)) {
    EXPECT_TRUE(len == 8 || len == 512);
    longs += len == 512 ? 1 : 0;
  }
  EXPECT_GT(longs, 256 / 8);
  EXPECT_LT(longs, 256 / 2);
}

TEST(WorkloadTest, PackingConservesTokensAndNeverTruncates) {
  const std::vector<std::int64_t> docs = {90, 10, 40, 70, 30, 20, 200, 60};
  const auto packed = core::pack_documents(docs, /*m=*/3, /*capacity=*/100);
  ASSERT_EQ(packed.microbatches.size(), 3u);
  // 200 exceeds the capacity outright and 20 no longer fits once every bin
  // reaches 100: both are dropped whole, never clipped.
  EXPECT_EQ(packed.dropped, (std::vector<std::int64_t>{200, 20}));
  std::int64_t input = 0;
  for (const std::int64_t d : docs) input += d;
  std::int64_t out = packed.packed_tokens;
  for (const std::int64_t d : packed.dropped) out += d;
  EXPECT_EQ(out, input);
  for (const auto& mb : packed.microbatches) {
    EXPECT_LE(mb.tokens, 100);
    std::int64_t sum = 0;
    for (const std::int64_t d : mb.doc_lens) sum += d;
    EXPECT_EQ(sum, mb.tokens);
  }
  // LPT keeps the loads balanced: spread at most the smallest doc.
  const auto totals = packed.mb_tokens();
  const auto [lo, hi] = std::minmax_element(totals.begin(), totals.end());
  EXPECT_LE(*hi - *lo, 30);
}

// ------------------------------------------------------------ env parsing

// Environment variables read with the one number reader.
TEST(EnvParseTest, RejectsTrailingGarbageAndEmpty) {
  using util::parse_number;
  EXPECT_EQ(parse_number<long long>("8"), 8);
  EXPECT_EQ(parse_number<long long>("-3"), -3);
  EXPECT_EQ(parse_number<long long>("8abc"), std::nullopt);  // strtol said 8
  EXPECT_EQ(parse_number<long long>("abc"), std::nullopt);
  EXPECT_EQ(parse_number<long long>(""), std::nullopt);
  EXPECT_EQ(parse_number<long long>(std::string_view()), std::nullopt);  // null
  EXPECT_EQ(parse_number<long long>("999999999999999999999999"), std::nullopt);
}

TEST(EnvParseTest, EnvIntOrWarnsAndFallsBack) {
  ::unsetenv("SLIMPIPE_TEST_KNOB");
  EXPECT_EQ(util::env_int_or("SLIMPIPE_TEST_KNOB", 30, 1), 30);
  ::setenv("SLIMPIPE_TEST_KNOB", "12", 1);
  EXPECT_EQ(util::env_int_or("SLIMPIPE_TEST_KNOB", 30, 1), 12);
  ::setenv("SLIMPIPE_TEST_KNOB", "12abc", 1);  // malformed: fallback, loudly
  EXPECT_EQ(util::env_int_or("SLIMPIPE_TEST_KNOB", 30, 1), 30);
  ::setenv("SLIMPIPE_TEST_KNOB", "0", 1);  // below min: fallback
  EXPECT_EQ(util::env_int_or("SLIMPIPE_TEST_KNOB", 30, 1), 30);
  ::unsetenv("SLIMPIPE_TEST_KNOB");
}

// ------------------------------------------------ runtime substrates

constexpr num::BlockDims kDims{32, 4, 2, 48};
constexpr std::int64_t kVocab = 32;
constexpr int kLayers = 4;
constexpr int kStages = 2;

struct Batch {
  std::vector<std::vector<std::int64_t>> tokens;
  std::vector<std::vector<std::int64_t>> targets;
};

Batch make_batch(const std::vector<std::int64_t>& mb_lens, int seed) {
  Rng rng(static_cast<std::uint64_t>(seed));
  Batch batch;
  for (const std::int64_t len : mb_lens) {
    std::vector<std::int64_t> tok, tgt;
    for (std::int64_t i = 0; i < len; ++i) {
      tok.push_back(static_cast<std::int64_t>(rng.next_below(kVocab)));
      tgt.push_back(static_cast<std::int64_t>(rng.next_below(kVocab)));
    }
    batch.tokens.push_back(std::move(tok));
    batch.targets.push_back(std::move(tgt));
  }
  return batch;
}

class PoolWidthGuard {
 public:
  PoolWidthGuard() : previous_(util::ThreadPool::global().max_threads()) {}
  ~PoolWidthGuard() { util::ThreadPool::global().set_threads(previous_); }

 private:
  int previous_;
};

// Regression for the silent `slice_len = seq / n` truncation: seq = 10,
// n = 4 used to drop 2 tokens per microbatch on every substrate. Now the
// remainder-distributing layout trains every token — the pipeline gradients
// match the monolithic reference, which always consumed the full sequence.
TEST(ElasticRuntimeTest, IndivisibleSequenceTrainsEveryToken) {
  const Batch batch = make_batch({10, 10}, 17);
  Rng rng(99);
  rt::ThreadedPipeline pipe(kDims, kVocab, kLayers, kStages, rng);
  const auto ref = pipe.run_reference(batch.tokens, batch.targets);
  const auto run = pipe.run_iteration(batch.tokens, batch.targets,
                                      /*n_slices=*/4);
  EXPECT_LT(run.grads.max_abs_diff(ref.grads), 5e-5f);
  EXPECT_NEAR(run.loss, ref.loss, 1e-5);
}

TEST(ElasticRuntimeTest, TinyModelHonorsExplicitBoundaries) {
  const Batch batch = make_batch({10}, 21);
  Rng rng(7);
  num::TinyModel model(kDims, kVocab, 2, rng);
  auto mono = model.zero_grads();
  const double mono_loss =
      model.train_step(batch.tokens[0], batch.targets[0], 1, mono);
  auto sliced = model.zero_grads();
  const double sliced_loss = model.train_step(
      batch.tokens[0], batch.targets[0],
      core::SliceLayout::from_lens({4, 3, 2, 1}), sliced);
  EXPECT_NEAR(sliced_loss, mono_loss, 1e-6);
  EXPECT_LT(sliced.max_abs_diff(mono), 5e-5f);
}

// The differential sweep: skewed doc mixes packed into ragged microbatches,
// sliced uniformly and cost-balanced, run on every substrate.
struct SweepCase {
  const char* name;
  core::DocMix mix;
  bool balanced;
  bool vocab_parallel;
};

class ElasticSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ElasticSweepTest, BackendsAgreeForSkewedPackedBatches) {
  const SweepCase c = GetParam();
  core::WorkloadSpec wl;
  wl.mix = c.mix;
  wl.min_len = 4;
  wl.max_len = 16;
  wl.long_fraction = 0.3;
  wl.seed = 23;
  const auto docs = core::sample_doc_lengths(wl, 12);
  const auto packed = core::pack_documents(docs, /*m=*/3, /*capacity=*/24);
  auto mb_tokens = packed.mb_tokens();
  const int n = 2;
  for (std::int64_t& t : mb_tokens) t = std::max<std::int64_t>(t, n);

  std::vector<core::SliceLayout> layouts;
  if (c.balanced) {
    // Balance on the quadratic causal prefix directly — the miniature
    // model's attention has the same triangle shape as the cost model's.
    for (const std::int64_t t : mb_tokens) {
      layouts.push_back(core::SliceLayout::balanced(
          t, n, [](std::int64_t x) {
            return static_cast<double>(x) * static_cast<double>(x + 1);
          }));
    }
  } else {
    layouts = core::uniform_layouts(mb_tokens, n);
  }

  const Batch batch = make_batch(mb_tokens, 31);
  rt::RunOptions options;
  options.n_slices = n;
  options.layouts = layouts;
  options.vocab_parallel = c.vocab_parallel;

  // Threaded backend across kernel-pool widths: bit-identical gradients
  // (pool width never changes chunk boundaries).
  PoolWidthGuard guard;
  util::ThreadPool& pool = util::ThreadPool::global();
  pool.set_threads(1);
  Rng rng1(55);
  rt::ThreadedPipeline pipe1(kDims, kVocab, kLayers, kStages, rng1);
  const auto base = pipe1.run_iteration(batch.tokens, batch.targets, options);
  const auto ref = pipe1.run_reference(batch.tokens, batch.targets);
  const int hw =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  for (const int width : {2, hw}) {
    pool.set_threads(width);
    Rng rng(55);
    rt::ThreadedPipeline pipe(kDims, kVocab, kLayers, kStages, rng);
    const auto run = pipe.run_iteration(batch.tokens, batch.targets, options);
    EXPECT_EQ(run.grads.max_abs_diff(base.grads), 0.0f)
        << "pool width " << width;
    EXPECT_EQ(run.loss, base.loss);
  }

  // Monolithic reference: float-tolerance (accumulation order differs).
  EXPECT_LT(base.grads.max_abs_diff(ref.grads), 5e-5f) << "vs reference";
  EXPECT_NEAR(base.loss, ref.loss, 1e-5);

  // Eq. 1 window holds for every stage even with ragged slices.
  for (int s = 0; s < kStages; ++s) {
    const int cap = n + 2 * (kStages - 1 - s);
    EXPECT_LE(base.stats.peak_live_slices[static_cast<std::size_t>(s)], cap);
  }

  // Multi-process backend: bit-identical to threaded (identical float
  // expressions on both sides of the fork). The dist head is the non-vocab
  // one, so compare against a non-vocab threaded run.
  rt::RunOptions thr_opts = options;
  thr_opts.vocab_parallel = false;
  Rng rng_t(55);
  rt::ThreadedPipeline pipe_t(kDims, kVocab, kLayers, kStages, rng_t);
  const auto thr =
      pipe_t.run_iteration(batch.tokens, batch.targets, thr_opts);
  dist::ProcessOptions popt;
  popt.n_slices = n;
  popt.layouts = layouts;
  Rng rng_d(55);
  dist::ProcessPipeline dist_pipe(kDims, kVocab, kLayers, kStages, rng_d);
  const auto dist = dist_pipe.run_iteration(batch.tokens, batch.targets, popt);
  EXPECT_EQ(dist.grads.max_abs_diff(thr.grads), 0.0f) << "dist vs threaded";
  EXPECT_DOUBLE_EQ(dist.loss, thr.loss);
  EXPECT_LT(dist.grads.max_abs_diff(ref.grads), 5e-5f);
  // Cross-stage message counts are a schedule-shape invariant shared by
  // both runtimes regardless of slice lengths.
  EXPECT_EQ(dist.stats.messages, thr.stats.messages);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, ElasticSweepTest,
    ::testing::Values(SweepCase{"zipf_uniform", core::DocMix::Zipf, false,
                                false},
                      SweepCase{"zipf_balanced", core::DocMix::Zipf, true,
                                false},
                      SweepCase{"bimodal_uniform", core::DocMix::Bimodal,
                                false, true},
                      SweepCase{"bimodal_balanced", core::DocMix::Bimodal,
                                true, true}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.name;
    });

// Simulator and threaded runtime agree on the discrete schedule shape for
// a shared non-uniform layout (scaled to each substrate's token scale).
TEST(ElasticConsistencyTest, SimAndRuntimeAgreeOnScheduleShape) {
  const std::vector<std::int64_t> rt_lens = {5, 3};
  sched::PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.policy = model::CheckpointPolicy::None;
  spec.p = 2;
  spec.v = 1;
  spec.n = 2;
  spec.m = 2;
  spec.seq = 8 * 2048;
  spec.vocab_parallel = false;
  spec.context_exchange = false;
  std::vector<std::int64_t> sim_lens;
  for (const std::int64_t len : rt_lens) sim_lens.push_back(len * 2048);
  spec.layouts.assign(2, core::SliceLayout::from_lens(sim_lens));
  ASSERT_EQ(spec.validate(), "");
  const sched::ScheduleResult sim =
      core::run_scheme(core::Scheme::SlimPipe, spec);
  ASSERT_EQ(sim.metrics.stages.size(), 2u);

  const Batch batch = make_batch({8, 8}, 47);
  Rng rng(42);
  rt::ThreadedPipeline pipe(kDims, kVocab, kLayers, kStages, rng);
  rt::RunOptions options;
  options.n_slices = 2;
  options.layouts.assign(2, core::SliceLayout::from_lens(rt_lens));
  const auto run = pipe.run_iteration(batch.tokens, batch.targets, options);
  ASSERT_EQ(run.stats.metrics.stages.size(), 2u);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(run.stats.metrics.stages[static_cast<std::size_t>(s)]
                  .peak_live_slices,
              sim.metrics.stages[static_cast<std::size_t>(s)]
                  .peak_live_slices)
        << "stage " << s;
    EXPECT_EQ(run.stats.metrics.stages[static_cast<std::size_t>(s)]
                  .p2p_messages,
              sim.metrics.stages[static_cast<std::size_t>(s)].p2p_messages)
        << "stage " << s;
  }
}

// Measured arena peaks reconcile with the analytical per-slice footprint
// under a non-uniform layout: both sides normalize by their own
// mean-slice unit bytes and must agree within 0.5 slice units.
TEST(ElasticConsistencyTest, ArenaPeaksReconcileForNonUniformLayouts) {
  const std::vector<std::int64_t> rt_lens = {5, 3};
  sched::PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.policy = model::CheckpointPolicy::None;
  spec.p = 2;
  spec.v = 1;
  spec.n = 2;
  spec.m = 2;
  spec.seq = 8 * 2048;
  spec.vocab_parallel = false;
  spec.context_exchange = false;
  std::vector<std::int64_t> sim_lens;
  for (const std::int64_t len : rt_lens) sim_lens.push_back(len * 2048);
  spec.layouts.assign(2, core::SliceLayout::from_lens(sim_lens));
  const sched::ScheduleResult sim =
      core::run_scheme(core::Scheme::SlimPipe, spec);
  ASSERT_EQ(sim.memory.devices.size(), 2u);

  const Batch batch = make_batch({8, 8}, 53);
  Rng rng(42);
  rt::ThreadedPipeline pipe(kDims, kVocab, kLayers, kStages, rng);
  rt::RunOptions options;
  options.n_slices = 2;
  options.layouts.assign(2, core::SliceLayout::from_lens(rt_lens));
  const auto run = pipe.run_iteration(batch.tokens, batch.targets, options);

  Rng probe_rng(1);
  num::Layer probe(kDims, num::LayerWeights::random(kDims, probe_rng));
  const double layers_per_stage = 2.0;  // 4 layers over 2 stages
  const double nonkv = model::act_bytes_per_token_layer_no_kv(
      spec.cfg, spec.shard, spec.policy);
  const double kvpt = model::kv_bytes_per_token_layer(spec.cfg, spec.shard);

  std::vector<mem::MeasuredPeak> measured;
  for (int s = 0; s < 2; ++s) {
    const obs::StageMetrics& stage =
        run.stats.metrics.stages[static_cast<std::size_t>(s)];
    const double layers_analytic =
        static_cast<double>(spec.layers_of_stage(s));
    measured.push_back(
        {s, mem::kActivation, stage.measured_peak_bytes[mem::kActivation],
         mem::mean_slice_unit_bytes(
             options.layouts,
             [&](std::int64_t len) {
               return layers_per_stage *
                      static_cast<double>(
                          probe.slice_footprint(len).activation_bytes);
             }),
         mem::mean_slice_unit_bytes(spec.layouts, [&](std::int64_t len) {
           return nonkv * static_cast<double>(len) * layers_analytic;
         })});
    measured.push_back(
        {s, mem::kKvCache, stage.measured_peak_bytes[mem::kKvCache],
         mem::mean_slice_unit_bytes(
             options.layouts,
             [&](std::int64_t len) {
               return layers_per_stage *
                      static_cast<double>(probe.slice_footprint(len).kv_bytes);
             }),
         mem::mean_slice_unit_bytes(spec.layouts, [&](std::int64_t len) {
           return kvpt * static_cast<double>(len) * layers_analytic;
         })});
  }
  const mem::ReconcileReport report =
      mem::reconcile_peaks(sim.memory, measured, /*unit_tolerance=*/0.5);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// Custom non-uniform layouts stay out of the exchange planner and the IR:
// validate() rejects the combination loudly instead of mis-costing it.
TEST(ElasticSpecTest, ValidateRejectsBadLayoutCombos) {
  sched::PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.policy = model::CheckpointPolicy::None;
  spec.p = 2;
  spec.v = 1;
  spec.n = 2;
  spec.m = 2;
  spec.seq = 16384;
  EXPECT_EQ(spec.validate(), "");

  // seq % n != 0 is now legal (remainder-distributing derived layout)...
  spec.n = 6;
  spec.seq = 16384;  // 16384 % 6 != 0
  EXPECT_EQ(spec.validate(), "");

  // ...but a custom non-uniform layout with context exchange is not.
  spec.n = 2;
  spec.context_exchange = true;
  spec.layouts.assign(2, core::SliceLayout::from_lens({10000, 6384}));
  EXPECT_NE(spec.validate().find("context exchange requires uniform"),
            std::string::npos);
  spec.context_exchange = false;
  EXPECT_EQ(spec.validate(), "");

  // Layout bookkeeping errors are loud.
  spec.layouts.resize(1);
  EXPECT_NE(spec.validate().find("cover all m microbatches"),
            std::string::npos);
  spec.layouts.assign(2, core::SliceLayout::from_lens({16384}));
  EXPECT_NE(spec.validate().find("exactly n slices"), std::string::npos);
}

}  // namespace
}  // namespace slim

// Arena-based memory ownership for the numerics substrate: scope (mark /
// release) watermark reuse, per-category accounting, uninitialized tensor
// construction, bit-identity of arena-backed execution across pool widths,
// and measured-vs-analytical footprint reconciliation between the threaded
// runtime's arena sinks and the simulator's replayed byte model.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "src/core/runner.hpp"
#include "src/memory/reconcile.hpp"
#include "src/numerics/arena.hpp"
#include "src/numerics/tensor.hpp"
#include "src/numerics/transformer_block.hpp"
#include "src/runtime/pipeline_runtime.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace slim {
namespace {

using num::Arena;
using num::ArenaBinding;
using num::ArenaStats;
using num::Tensor;

TEST(ArenaTest, ScopeReleaseReusesWatermark) {
  Arena arena(nullptr, /*block_bytes=*/1 << 12);
  void* first = arena.allocate(100, mem::kActivation);
  ASSERT_NE(first, nullptr);
  const Arena::Mark mark = arena.mark();
  const std::int64_t live_at_mark = arena.live_bytes();

  void* second = arena.allocate(200, mem::kActivation);
  EXPECT_NE(second, first);
  EXPECT_GT(arena.live_bytes(), live_at_mark);
  arena.release_to(mark);
  EXPECT_EQ(arena.live_bytes(), live_at_mark);

  // Re-allocating after release reuses the same watermark: same address,
  // no new block.
  const std::int64_t reserved = arena.reserved_bytes();
  void* third = arena.allocate(200, mem::kActivation);
  EXPECT_EQ(third, second);
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

TEST(ArenaTest, ScopesNestLifo) {
  Arena arena;
  const std::int64_t base = arena.live_bytes();
  {
    num::ArenaScope outer(arena);
    arena.allocate(64, mem::kActivation);
    {
      num::ArenaScope inner(arena);
      arena.allocate(64, mem::kKvCache);
      EXPECT_GT(arena.live_bytes(), base);
    }
    EXPECT_EQ(arena.allocation_count(), 1u);
  }
  EXPECT_EQ(arena.live_bytes(), base);
  EXPECT_EQ(arena.allocation_count(), 0u);
}

TEST(ArenaTest, GrowsPastBlockAndReleasesAcrossBlocks) {
  Arena arena(nullptr, /*block_bytes=*/256);
  const Arena::Mark mark = arena.mark();
  // Force several blocks, including an oversized allocation.
  arena.allocate(200, mem::kActivation);
  arena.allocate(200, mem::kActivation);
  arena.allocate(4096, mem::kActivation);
  EXPECT_GE(arena.reserved_bytes(), 4096);
  arena.release_to(mark);
  EXPECT_EQ(arena.live_bytes(), 0);
  // Blocks are retained for reuse, not returned to the OS.
  EXPECT_GE(arena.reserved_bytes(), 4096);
}

TEST(ArenaTest, TrimDropsBlocksPastTheCurrentOne) {
  Arena arena(nullptr, /*block_bytes=*/256);
  arena.trim();  // nothing reserved: a no-op
  EXPECT_EQ(arena.reserved_bytes(), 0);
  float* kept = arena.allocate_floats(50, mem::kActivation);  // block 0
  kept[49] = 7.0f;
  const Arena::Mark mark = arena.mark();
  arena.allocate(200, mem::kActivation);  // block 1
  arena.allocate(200, mem::kActivation);  // block 2
  EXPECT_EQ(arena.reserved_bytes(), 3 * 256);
  arena.release_to(mark);
  EXPECT_EQ(arena.reserved_bytes(), 3 * 256);  // release keeps the blocks
  arena.trim();
  EXPECT_EQ(arena.reserved_bytes(), 256);  // the current block stays
  EXPECT_EQ(arena.live_bytes(), 256);
  EXPECT_EQ(kept[49], 7.0f);
  arena.allocate(200, mem::kActivation);  // grows again past the trim
  EXPECT_EQ(arena.reserved_bytes(), 2 * 256);
  arena.release_all();
  arena.trim();
  EXPECT_EQ(arena.reserved_bytes(), 256);
  EXPECT_EQ(arena.live_bytes(), 0);
}

TEST(ArenaTest, StatsTrackPerCategoryLiveAndPeak) {
  ArenaStats stats;
  Arena arena(&stats);
  const Arena::Mark mark = arena.mark();
  arena.allocate(1000, mem::kActivation);
  arena.allocate(500, mem::kKvCache);
  // 64-byte alignment rounds the requests up.
  EXPECT_EQ(stats.live_bytes(mem::kActivation), 1024);
  EXPECT_EQ(stats.live_bytes(mem::kKvCache), 512);
  EXPECT_EQ(stats.total_live_bytes(), 1536);
  EXPECT_EQ(stats.total_peak_bytes(), 1536);

  arena.release_to(mark);
  EXPECT_EQ(stats.live_bytes(mem::kActivation), 0);
  EXPECT_EQ(stats.live_bytes(mem::kKvCache), 0);
  EXPECT_EQ(stats.total_live_bytes(), 0);
  // Peaks survive the release.
  EXPECT_EQ(stats.peak_bytes(mem::kActivation), 1024);
  EXPECT_EQ(stats.peak_bytes(mem::kKvCache), 512);
  EXPECT_EQ(stats.total_peak_bytes(), 1536);
}

TEST(ArenaTest, TotalPeakIsConcurrentHighWaterAcrossArenas) {
  // Two arenas sharing one sink: the total peak is the true concurrent
  // maximum, not the sum of per-arena peaks.
  ArenaStats stats;
  Arena a(&stats), b(&stats);
  const Arena::Mark ma = a.mark();
  a.allocate(1024, mem::kActivation);
  a.release_to(ma);                     // a's 1024 is gone...
  b.allocate(512, mem::kActivation);    // ...before b's 512 arrives
  EXPECT_EQ(stats.total_peak_bytes(), 1024);
  EXPECT_EQ(stats.total_live_bytes(), 512);
}

TEST(ArenaTest, TensorBindingRoutesAllocationsAndCountsThem) {
  ArenaStats stats;
  Arena arena(&stats);
  const std::int64_t heap_before = num::tensor_heap_allocs();
  const std::int64_t arena_before = num::tensor_arena_allocs();

  Tensor outside(4, 4);
  EXPECT_FALSE(outside.arena_backed());

  Tensor inside;
  {
    ArenaBinding bind(&arena, mem::kKvCache);
    inside = Tensor(8, 8);
    EXPECT_TRUE(inside.arena_backed());
  }
  EXPECT_EQ(stats.live_bytes(mem::kKvCache), 8 * 8 * 4);
  EXPECT_GE(num::tensor_heap_allocs(), heap_before + 1);
  EXPECT_GE(num::tensor_arena_allocs(), arena_before + 1);

  // Copying OUT of a binding scope deep-copies to the heap: value
  // semantics survive the arena's release.
  Tensor copy = inside;
  EXPECT_FALSE(copy.arena_backed());
  arena.release_all();
  EXPECT_EQ(copy.at(0, 0), 0.0f);
}

TEST(ArenaTest, UninitTensorIsFullyWritable) {
  // uninit skips the zero-fill; every element must still be writable and
  // readable after a full overwrite.
  Tensor t = Tensor::uninit(13, 7);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(i);
  }
  EXPECT_EQ(t.at(12, 6), static_cast<float>(13 * 7 - 1));
  // Zero-init default stays zero-initialized.
  Tensor z(13, 7);
  for (std::int64_t i = 0; i < z.size(); ++i) EXPECT_EQ(z.data()[i], 0.0f);
}

TEST(ArenaTest, WorkspaceLeaseReleasesOnScopeExit) {
  Arena& ws = num::workspace_arena();
  const std::int64_t live = ws.live_bytes();
  {
    num::WorkspaceLease<float> a(100);
    num::WorkspaceLease<double> b(50);
    a[0] = 1.0f;
    b[49] = 2.0;
    EXPECT_GT(ws.live_bytes(), live);
  }
  EXPECT_EQ(ws.live_bytes(), live);
}

// ---------------------------------------------------------------- layers

std::vector<int> sweep_widths() {
  std::vector<int> widths = {1, 2, 7};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 1 && hw != 2 && hw != 7) widths.push_back(hw);
  return widths;
}

class PoolWidthGuard {
 public:
  PoolWidthGuard() : previous_(util::ThreadPool::global().max_threads()) {}
  ~PoolWidthGuard() { util::ThreadPool::global().set_threads(previous_); }

 private:
  int previous_;
};

/// Runs two forward slices + LIFO backward through one layer, optionally
/// arena-backed, and returns the accumulated gradients.
num::LayerGrads run_layer(const num::BlockDims& dims,
                          const num::LayerWeights& weights,
                          const Tensor& x0, const Tensor& x1,
                          ArenaStats* stats) {
  num::Layer layer(dims, weights);
  if (stats != nullptr) layer.set_arena_stats(stats);
  num::LayerGrads grads = num::LayerGrads::zeros(dims);
  const Tensor y0 = layer.forward_slice(x0, 0);
  const Tensor y1 = layer.forward_slice(x1, x0.rows());
  Tensor dy(y1.rows(), y1.cols());
  dy.fill(0.01f);
  layer.backward_slice(dy, grads);
  Tensor dy0(y0.rows(), y0.cols());
  dy0.fill(0.01f);
  layer.backward_slice(dy0, grads);
  EXPECT_EQ(layer.live_slices(), 0);
  return grads;
}

TEST(ArenaLayerTest, ArenaBackedGradientsMatchHeapExactly) {
  Rng rng(7);
  const num::BlockDims dims{16, 2, 2, 24};
  const num::LayerWeights weights = num::LayerWeights::random(dims, rng);
  const Tensor x0 = Tensor::randn(4, 16, rng);
  const Tensor x1 = Tensor::randn(4, 16, rng);

  const num::LayerGrads heap = run_layer(dims, weights, x0, x1, nullptr);
  ArenaStats stats;
  const num::LayerGrads arena = run_layer(dims, weights, x0, x1, &stats);
  EXPECT_EQ(arena.max_abs_diff(heap), 0.0f);
  // The arenas actually saw the retained tensors.
  EXPECT_GT(stats.peak_bytes(mem::kActivation), 0);
  EXPECT_GT(stats.peak_bytes(mem::kKvCache), 0);
  EXPECT_GT(stats.peak_bytes(mem::kGrads), 0);
  EXPECT_EQ(stats.total_live_bytes(), 0);  // LIFO fully unwound
}

TEST(ArenaLayerTest, ArenaBackedExecutionBitIdenticalAcrossWidths) {
  PoolWidthGuard guard;
  Rng rng(9);
  const num::BlockDims dims{16, 2, 2, 24};
  const num::LayerWeights weights = num::LayerWeights::random(dims, rng);
  const Tensor x0 = Tensor::randn(4, 16, rng);
  const Tensor x1 = Tensor::randn(4, 16, rng);

  util::ThreadPool& pool = util::ThreadPool::global();
  pool.set_threads(1);
  ArenaStats serial_stats;
  const num::LayerGrads serial =
      run_layer(dims, weights, x0, x1, &serial_stats);
  for (const int width : sweep_widths()) {
    pool.set_threads(width);
    ArenaStats stats;
    const num::LayerGrads grads = run_layer(dims, weights, x0, x1, &stats);
    EXPECT_EQ(grads.max_abs_diff(serial), 0.0f) << "width " << width;
    // The measured footprint is width-independent too: retained state is a
    // schedule property, not a thread-count property.
    for (int c = 0; c < mem::kNumCategories; ++c) {
      EXPECT_EQ(stats.peak_bytes(c), serial_stats.peak_bytes(c))
          << "category " << mem::category_name(c) << " width " << width;
    }
  }
}

TEST(ArenaLayerTest, MeasuredPeakMatchesSliceFootprint) {
  // Two live slices at peak: measured per-category peaks must equal
  // exactly 2x the analytical slice footprint.
  Rng rng(11);
  const num::BlockDims dims{16, 2, 2, 24};
  const num::LayerWeights weights = num::LayerWeights::random(dims, rng);
  num::Layer layer(dims, weights);
  ArenaStats stats;
  layer.set_arena_stats(&stats);
  const auto fp = layer.slice_footprint(4);
  const Tensor x0 = Tensor::randn(4, 16, rng);
  const Tensor x1 = Tensor::randn(4, 16, rng);
  num::LayerGrads grads = num::LayerGrads::zeros(dims);
  const Tensor y0 = layer.forward_slice(x0, 0);
  const Tensor y1 = layer.forward_slice(x1, 4);
  EXPECT_EQ(stats.live_bytes(mem::kActivation), 2 * fp.activation_bytes);
  EXPECT_EQ(stats.live_bytes(mem::kKvCache), 2 * fp.kv_bytes);
  EXPECT_EQ(stats.live_bytes(mem::kGrads), 2 * fp.grad_bytes);
  Tensor dy(4, 16);
  layer.backward_slice(dy, grads);
  EXPECT_EQ(stats.live_bytes(mem::kActivation), fp.activation_bytes);
  Tensor dy0(4, 16);
  layer.backward_slice(dy0, grads);
  EXPECT_EQ(stats.total_live_bytes(), 0);
  EXPECT_EQ(stats.peak_bytes(mem::kActivation), 2 * fp.activation_bytes);
  EXPECT_EQ(stats.peak_bytes(mem::kKvCache), 2 * fp.kv_bytes);
  EXPECT_EQ(stats.peak_bytes(mem::kGrads), 2 * fp.grad_bytes);
}

// --------------------------------------------- runtime reconciliation

struct RuntimeRun {
  rt::ThreadedPipeline::Result result;
  num::Layer::SliceFootprint footprint;  // per layer, at runtime slice_len
  double layers_per_stage = 0.0;
};

/// Runs the miniature 2-stage pipeline (4 layers, 8-token microbatches)
/// with arena measurement on and returns the measured metrics plus the
/// per-layer analytical slice footprint.
RuntimeRun run_measured_pipeline(int n_slices, int microbatches) {
  Rng rng(42);
  const num::BlockDims dims{16, 2, 2, 24};
  rt::ThreadedPipeline pipe(dims, /*vocab=*/16, /*layers_total=*/4,
                            /*stages=*/2, rng);
  Rng data_rng(43);
  std::vector<std::vector<std::int64_t>> tokens(
      static_cast<std::size_t>(microbatches)),
      targets(static_cast<std::size_t>(microbatches));
  for (int mb = 0; mb < microbatches; ++mb) {
    for (int i = 0; i < 8; ++i) {
      tokens[static_cast<std::size_t>(mb)].push_back(
          static_cast<std::int64_t>(data_rng.next_below(16)));
      targets[static_cast<std::size_t>(mb)].push_back(
          static_cast<std::int64_t>(data_rng.next_below(16)));
    }
  }
  rt::RunOptions options;
  options.n_slices = n_slices;
  RuntimeRun run;
  run.result = pipe.run_iteration(tokens, targets, options);
  Rng probe_rng(1);
  num::Layer probe(dims, num::LayerWeights::random(dims, probe_rng));
  run.footprint = probe.slice_footprint(8 / n_slices);
  run.layers_per_stage = 2.0;  // 4 layers over 2 stages
  return run;
}

// SlimPipe on both substrates (p=2, n=2, m=2): the number of slice-units
// simultaneously live at the peak must agree between the runtime's
// arena-measured bytes and the simulator's analytical byte model, per
// category, within 0.5 slice units (documented tolerance: sub-slice
// bookkeeping such as alignment rounding stays below one unit; the unit
// counts themselves are integers and match exactly in practice).
TEST(ReconcileTest, SlimPipeMeasuredPeaksMatchAnalytical) {
  sched::PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.policy = model::CheckpointPolicy::None;
  spec.p = 2;
  spec.v = 1;
  spec.n = 2;
  spec.m = 2;
  spec.seq = 2 * 8192;
  spec.vocab_parallel = false;
  spec.context_exchange = false;
  const sched::ScheduleResult sim =
      core::run_scheme(core::Scheme::SlimPipe, spec);
  ASSERT_EQ(sim.memory.devices.size(), 2u);

  // Analytical per-slice unit bytes (the builder's byte model). SlimPipe
  // retains KV, so KV books under kKvCache.
  const double nonkv = model::act_bytes_per_token_layer_no_kv(
      spec.cfg, spec.shard, spec.policy);
  const double kvpt = model::kv_bytes_per_token_layer(spec.cfg, spec.shard);
  const double slice_len = static_cast<double>(spec.seq / spec.n);

  const RuntimeRun run = run_measured_pipeline(/*n_slices=*/2,
                                               /*microbatches=*/2);
  ASSERT_EQ(run.result.stats.metrics.stages.size(), 2u);

  std::vector<mem::MeasuredPeak> measured;
  for (int s = 0; s < 2; ++s) {
    const obs::StageMetrics& stage =
        run.result.stats.metrics.stages[static_cast<std::size_t>(s)];
    ASSERT_EQ(stage.measured_peak_bytes.size(),
              static_cast<std::size_t>(mem::kNumCategories));
    const double layers_analytic =
        static_cast<double>(spec.layers_of_stage(s));
    measured.push_back(
        {s, mem::kActivation, stage.measured_peak_bytes[mem::kActivation],
         run.layers_per_stage *
             static_cast<double>(run.footprint.activation_bytes),
         nonkv * slice_len * layers_analytic});
    measured.push_back(
        {s, mem::kKvCache, stage.measured_peak_bytes[mem::kKvCache],
         run.layers_per_stage * static_cast<double>(run.footprint.kv_bytes),
         kvpt * slice_len * layers_analytic});
  }
  const mem::ReconcileReport report =
      mem::reconcile_peaks(sim.memory, measured, /*unit_tolerance=*/0.5);
  EXPECT_TRUE(report.ok()) << report.summary();

  // Eq. 1 shape: stage 0 peaks at m*n = 4 live slices, stage 1 at 2.
  EXPECT_NEAR(report.entries[0].measured_units, 4.0, 0.5);
  EXPECT_NEAR(report.entries[2].measured_units, 2.0, 0.5);
}

// 1F1B (p=2, n=1, m=2): the analytical model books KV under kActivation
// (retain_kv=false), so the comparison combines the runtime's activation
// and KV peaks into one entry. Peaks co-occur (both sides allocate at
// forward and free at backward), so the combined peak is the sum.
TEST(ReconcileTest, OneF1BMeasuredPeaksMatchAnalytical) {
  sched::PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.policy = model::CheckpointPolicy::None;
  spec.p = 2;
  spec.v = 1;
  spec.n = 1;
  spec.m = 2;
  spec.seq = 8192;
  spec.vocab_parallel = false;
  spec.context_exchange = false;
  const sched::ScheduleResult sim =
      core::run_scheme(core::Scheme::OneF1B, spec);
  ASSERT_EQ(sim.memory.devices.size(), 2u);

  const double nonkv = model::act_bytes_per_token_layer_no_kv(
      spec.cfg, spec.shard, spec.policy);
  const double kvpt = model::kv_bytes_per_token_layer(spec.cfg, spec.shard);
  const double slice_len = static_cast<double>(spec.seq);  // n = 1

  const RuntimeRun run = run_measured_pipeline(/*n_slices=*/1,
                                               /*microbatches=*/2);
  ASSERT_EQ(run.result.stats.metrics.stages.size(), 2u);

  std::vector<mem::MeasuredPeak> measured;
  for (int s = 0; s < 2; ++s) {
    const obs::StageMetrics& stage =
        run.result.stats.metrics.stages[static_cast<std::size_t>(s)];
    const double layers_analytic =
        static_cast<double>(spec.layers_of_stage(s));
    measured.push_back(
        {s, mem::kActivation,
         stage.measured_peak_bytes[mem::kActivation] +
             stage.measured_peak_bytes[mem::kKvCache],
         run.layers_per_stage *
             static_cast<double>(run.footprint.activation_bytes +
                                 run.footprint.kv_bytes),
         (nonkv + kvpt) * slice_len * layers_analytic});
  }
  const mem::ReconcileReport report =
      mem::reconcile_peaks(sim.memory, measured, /*unit_tolerance=*/0.5);
  EXPECT_TRUE(report.ok()) << report.summary();

  // 1F1B warmup depth: 2 in-flight microbatches on stage 0, 1 on stage 1.
  EXPECT_NEAR(report.entries[0].measured_units, 2.0, 0.5);
  EXPECT_NEAR(report.entries[1].measured_units, 1.0, 0.5);
}

TEST(ReconcileTest, ZeroUnitSizeIsAFailureNotASkip) {
  mem::MemoryReport analytical;
  analytical.devices.resize(1);
  analytical.devices[0].category_peak[mem::kActivation] = 100.0;
  const mem::ReconcileReport report = mem::reconcile_peaks(
      analytical, {{0, mem::kActivation, 100.0, 0.0, 50.0}}, 0.5);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("MISMATCH"), std::string::npos);
}

TEST(ReconcileTest, MeasuredMetricsSurviveJsonRoundTrip) {
  const RuntimeRun run = run_measured_pipeline(/*n_slices=*/2,
                                               /*microbatches=*/2);
  const obs::JsonValue json =
      obs::run_metrics_to_json(run.result.stats.metrics);
  obs::RunMetrics back;
  ASSERT_TRUE(obs::run_metrics_from_json(json, &back));
  ASSERT_EQ(back.stages.size(), run.result.stats.metrics.stages.size());
  for (std::size_t s = 0; s < back.stages.size(); ++s) {
    const obs::StageMetrics& a = run.result.stats.metrics.stages[s];
    const obs::StageMetrics& b = back.stages[s];
    ASSERT_EQ(a.measured_peak_bytes.size(), b.measured_peak_bytes.size());
    for (std::size_t c = 0; c < a.measured_peak_bytes.size(); ++c) {
      EXPECT_EQ(a.measured_peak_bytes[c], b.measured_peak_bytes[c]);
    }
    EXPECT_EQ(a.measured_peak_total, b.measured_peak_total);
  }
}

}  // namespace
}  // namespace slim

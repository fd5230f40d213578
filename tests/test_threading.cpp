// The parallel engine's determinism contract: chunk boundaries derive only
// from the iteration range, reductions fold per-chunk partials in index
// order, so every kernel returns bit-identical results at every pool width.
// The suite sweeps SLIMPIPE_THREADS-style widths in-process via
// ThreadPool::set_threads and compares against the 1-thread run with zero
// tolerance; it also re-checks the threaded pipeline runtime against
// monolithic reference execution with kernel threading enabled.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/numerics/cross_entropy.hpp"
#include "src/numerics/isa.hpp"
#include "src/numerics/norm_act.hpp"
#include "src/numerics/tensor.hpp"
#include "src/numerics/transformer_block.hpp"
#include "src/runtime/pipeline_runtime.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace slim {
namespace {

using num::Tensor;

/// Pool widths the determinism sweep exercises: forced serial, a couple of
/// helpers, a width that does not divide typical shapes, and the machine's
/// own concurrency.
std::vector<int> sweep_widths() {
  std::vector<int> widths = {1, 2, 7};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 1 && hw != 2 && hw != 7) widths.push_back(hw);
  return widths;
}

/// Restores the global pool width on scope exit so tests stay independent.
class PoolWidthGuard {
 public:
  PoolWidthGuard() : previous_(util::ThreadPool::global().max_threads()) {}
  ~PoolWidthGuard() { util::ThreadPool::global().set_threads(previous_); }

 private:
  int previous_;
};

TEST(ChunkCount, MatchesCeilDiv) {
  EXPECT_EQ(util::chunk_count(0, 10, 4), 3);
  EXPECT_EQ(util::chunk_count(0, 8, 4), 2);
  EXPECT_EQ(util::chunk_count(0, 1, 4), 1);
  EXPECT_EQ(util::chunk_count(5, 5, 4), 0);
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  PoolWidthGuard guard;
  util::ThreadPool& pool = util::ThreadPool::global();
  for (int width : sweep_widths()) {
    pool.set_threads(width);
    std::vector<std::atomic<int>> hits(101);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(3, 101, 7, [&](std::int64_t lo, std::int64_t hi) {
      EXPECT_EQ((lo - 3) % 7, 0);  // boundaries derive from range + grain
      EXPECT_LE(hi - lo, 7);
      for (std::int64_t i = lo; i < hi; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (std::int64_t i = 0; i < 101; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), i >= 3 ? 1 : 0)
          << "index " << i << " at width " << width;
    }
  }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  int calls = 0;
  util::ThreadPool::global().parallel_for(
      4, 4, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  PoolWidthGuard guard;
  util::ThreadPool& pool = util::ThreadPool::global();
  for (int width : {1, 4}) {
    pool.set_threads(width);
    EXPECT_THROW(
        pool.parallel_for(0, 64, 1,
                          [](std::int64_t lo, std::int64_t) {
                            if (lo == 13) throw std::runtime_error("chunk 13");
                          }),
        std::runtime_error);
    // The pool must remain usable after a failed job.
    std::atomic<int> sum{0};
    pool.parallel_for(0, 8, 1, [&](std::int64_t lo, std::int64_t) {
      sum.fetch_add(static_cast<int>(lo));
    });
    EXPECT_EQ(sum.load(), 28);
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  PoolWidthGuard guard;
  util::ThreadPool& pool = util::ThreadPool::global();
  pool.set_threads(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(0, 8, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t outer = lo; outer < hi; ++outer) {
      pool.parallel_for(0, 8, 1, [&](std::int64_t ilo, std::int64_t ihi) {
        for (std::int64_t inner = ilo; inner < ihi; ++inner) {
          hits[static_cast<std::size_t>(outer * 8 + inner)].fetch_add(1);
        }
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ScopedKernelThreadsCapsAndRestores) {
  EXPECT_EQ(util::kernel_thread_cap(), 0);
  {
    util::ScopedKernelThreads outer(4);
    EXPECT_EQ(util::kernel_thread_cap(), 4);
    {
      util::ScopedKernelThreads inner(1);
      EXPECT_EQ(util::kernel_thread_cap(), 1);
    }
    EXPECT_EQ(util::kernel_thread_cap(), 4);
  }
  EXPECT_EQ(util::kernel_thread_cap(), 0);
}

TEST(ThreadPool, CappedCallerStillCoversRange) {
  PoolWidthGuard guard;
  util::ThreadPool& pool = util::ThreadPool::global();
  pool.set_threads(4);
  util::ScopedKernelThreads cap(1);  // serial inline, same chunking
  std::vector<int> hits(32, 0);
  pool.parallel_for(0, 32, 5, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

/// Runs `fn` at width 1, then asserts every other width reproduces the
/// result bit-for-bit.
void expect_bit_identical(const std::function<Tensor()>& fn) {
  PoolWidthGuard guard;
  util::ThreadPool& pool = util::ThreadPool::global();
  pool.set_threads(1);
  const Tensor serial = fn();
  for (int width : sweep_widths()) {
    pool.set_threads(width);
    const Tensor out = fn();
    EXPECT_EQ(out.max_abs_diff(serial), 0.0f) << "width " << width;
  }
}

TEST(KernelDeterminism, Matmul) {
  Rng rng(21);
  const Tensor a = Tensor::randn(37, 53, rng, 1.0f);
  const Tensor b = Tensor::randn(53, 41, rng, 1.0f);
  expect_bit_identical([&] { return num::matmul(a, b); });
}

TEST(KernelDeterminism, MatmulNt) {
  Rng rng(22);
  const Tensor a = Tensor::randn(37, 53, rng, 1.0f);
  const Tensor b = Tensor::randn(41, 53, rng, 1.0f);
  expect_bit_identical([&] { return num::matmul_nt(a, b); });
}

TEST(KernelDeterminism, MatmulTn) {
  Rng rng(23);
  const Tensor a = Tensor::randn(53, 37, rng, 1.0f);
  const Tensor b = Tensor::randn(53, 41, rng, 1.0f);
  expect_bit_identical([&] { return num::matmul_tn(a, b); });
}

TEST(KernelDeterminism, RmsnormForwardBackward) {
  Rng rng(24);
  const Tensor x = Tensor::randn(70, 48, rng);
  const Tensor dy = Tensor::randn(70, 48, rng);
  Tensor w(1, 48);
  w.fill(1.0f);
  expect_bit_identical([&] { return num::rmsnorm(x, w); });
  // The dweight reduction is the interesting part: per-chunk partials
  // folded in index order. Pack dx and dweight into one tensor to compare.
  expect_bit_identical([&] {
    Tensor dweight(1, 48);
    const Tensor dx = num::rmsnorm_bwd(x, w, dy, dweight);
    Tensor both(71, 48);
    both.assign_rows(0, dx);
    both.assign_rows(70, dweight);
    return both;
  });
}

TEST(KernelDeterminism, CrossEntropy) {
  Rng rng(25);
  const Tensor logits = Tensor::randn(60, 97, rng, 2.0f);
  std::vector<std::int64_t> targets;
  for (std::int64_t t = 0; t < 60; ++t) targets.push_back((t * 13) % 97);
  PoolWidthGuard guard;
  util::ThreadPool& pool = util::ThreadPool::global();
  pool.set_threads(1);
  const num::CeResult serial = num::cross_entropy(logits, targets);
  for (int width : sweep_widths()) {
    pool.set_threads(width);
    const num::CeResult out = num::cross_entropy(logits, targets);
    EXPECT_EQ(out.loss, serial.loss) << "width " << width;
    EXPECT_EQ(out.dlogits.max_abs_diff(serial.dlogits), 0.0f)
        << "width " << width;
  }
}

/// Transformer block, two slices forward then LIFO backward — the
/// runtime's per-stage unit of work, covering the parallel head loops, the
/// GQA dk/dv merge and every matmul variant.
struct BlockRun {
  Tensor out0, out1, dx0, dx1;
  num::LayerGrads grads;
};

BlockRun run_block(int) {
  Rng rng(26);
  num::BlockDims dims;
  dims.hidden = 64;
  dims.heads = 4;
  dims.kv_heads = 2;  // GQA: two heads share each kv head
  dims.ffn = 96;
  num::Layer layer(dims, num::LayerWeights::random(dims, rng));
  const Tensor x0 = Tensor::randn(24, dims.hidden, rng);
  const Tensor x1 = Tensor::randn(24, dims.hidden, rng);
  const Tensor d1 = Tensor::randn(24, dims.hidden, rng);
  const Tensor d0 = Tensor::randn(24, dims.hidden, rng);
  BlockRun run;
  run.grads = num::LayerGrads::zeros(dims);
  run.out0 = layer.forward_slice(x0, 0);
  run.out1 = layer.forward_slice(x1, 24);
  run.dx1 = layer.backward_slice(d1, run.grads);
  run.dx0 = layer.backward_slice(d0, run.grads);
  return run;
}

TEST(BlockDeterminism, ForwardBackwardBitIdenticalAcrossWidths) {
  PoolWidthGuard guard;
  util::ThreadPool& pool = util::ThreadPool::global();
  pool.set_threads(1);
  const BlockRun serial = run_block(1);
  for (int width : sweep_widths()) {
    pool.set_threads(width);
    const BlockRun run = run_block(width);
    EXPECT_EQ(run.out0.max_abs_diff(serial.out0), 0.0f) << "width " << width;
    EXPECT_EQ(run.out1.max_abs_diff(serial.out1), 0.0f) << "width " << width;
    EXPECT_EQ(run.dx0.max_abs_diff(serial.dx0), 0.0f) << "width " << width;
    EXPECT_EQ(run.dx1.max_abs_diff(serial.dx1), 0.0f) << "width " << width;
    EXPECT_EQ(run.grads.max_abs_diff(serial.grads), 0.0f)
        << "width " << width;
  }
}

/// One TinyModel train step: two layers, GQA attention over four slices,
/// and a vocabulary split into two shards.
struct StepRun {
  double loss = 0.0;
  num::TinyModel::Grads grads;
};

StepRun tiny_model_step() {
  Rng rng(29);
  num::BlockDims dims;
  dims.hidden = 64;
  dims.heads = 4;
  dims.kv_heads = 2;
  dims.ffn = 96;
  num::TinyModel model(dims, /*vocab=*/96, /*num_layers=*/2, rng);
  std::vector<std::int64_t> tokens, targets;
  for (std::int64_t t = 0; t < 200; ++t) {
    tokens.push_back(static_cast<std::int64_t>(rng.next_below(96)));
    targets.push_back(static_cast<std::int64_t>(rng.next_below(96)));
  }
  StepRun run;
  run.grads = model.zero_grads();
  run.loss = model.train_step(tokens, targets, /*n_slices=*/4, run.grads,
                              /*vocab_shards=*/2);
  return run;
}

/// Every kernel ISA path (src/numerics/isa.hpp), at pool widths 1 and 4,
/// gives the bits of the baseline path's serial step.
class IsaPathTest : public ::testing::TestWithParam<num::detail::Isa> {};

TEST_P(IsaPathTest, TinyModelStepMatchesBaselineSerialBits) {
  using num::detail::Isa;
  using num::detail::ScopedIsa;
  if (GetParam() == Isa::kAvx2 && !num::detail::cpu_has_avx2()) {
    GTEST_SKIP() << "this CPU has no AVX2";
  }
  PoolWidthGuard guard;
  util::ThreadPool& pool = util::ThreadPool::global();
  pool.set_threads(1);
  StepRun want;
  {
    ScopedIsa path(Isa::kBaseline);
    want = tiny_model_step();
  }
  ScopedIsa path(GetParam());
  for (int width : {1, 4}) {
    pool.set_threads(width);
    const StepRun got = tiny_model_step();
    EXPECT_EQ(got.loss, want.loss) << "width " << width;
    EXPECT_EQ(got.grads.max_abs_diff(want.grads), 0.0f) << "width " << width;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, IsaPathTest,
    ::testing::Values(num::detail::Isa::kBaseline, num::detail::Isa::kAvx2),
    [](const ::testing::TestParamInfo<num::detail::Isa>& info) {
      return std::string(num::detail::isa_name(info.param));
    });

/// The threaded pipeline with kernel threading enabled must still match
/// monolithic reference execution (the functional proof of the runtime),
/// and repeated runs must agree bit-for-bit: stage workers commit per-
/// microbatch gradients in a fixed stage-major order, and the kernel-level
/// chunking is width-independent.
TEST(RuntimeDeterminism, ThreadedMatchesReferenceWithKernelThreads) {
  Rng rng(27);
  num::BlockDims dims;
  dims.hidden = 32;
  dims.heads = 4;
  dims.kv_heads = 2;
  dims.ffn = 64;
  rt::ThreadedPipeline pipe(dims, /*vocab=*/64, /*layers_total=*/4,
                            /*stages=*/2, rng);
  std::vector<std::vector<std::int64_t>> tokens, targets;
  Rng data_rng(28);
  for (int mb = 0; mb < 2; ++mb) {
    std::vector<std::int64_t> seq, tgt;
    for (int t = 0; t < 16; ++t) {
      seq.push_back(static_cast<std::int64_t>(data_rng.next_below(64)));
      tgt.push_back(static_cast<std::int64_t>(data_rng.next_below(64)));
    }
    tokens.push_back(seq);
    targets.push_back(tgt);
  }

  const rt::ThreadedPipeline::Result ref = pipe.run_reference(tokens, targets);

  PoolWidthGuard guard;
  util::ThreadPool::global().set_threads(4);
  rt::RunOptions options;
  options.n_slices = 2;
  const rt::ThreadedPipeline::Result a =
      pipe.run_iteration(tokens, targets, options);
  const rt::ThreadedPipeline::Result b =
      pipe.run_iteration(tokens, targets, options);

  EXPECT_NEAR(a.loss, ref.loss, 1e-5);
  EXPECT_LT(a.grads.max_abs_diff(ref.grads), 5e-5f);
  // Same schedule, same kernels: repeat runs are bit-identical.
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.grads.max_abs_diff(b.grads), 0.0f);
}

}  // namespace
}  // namespace slim

// Tests for the multi-threaded mini-SlimPipe runtime: worker threads as
// pipeline stages exchanging activation/gradient slices through channels
// must reproduce monolithic single-thread training exactly, across stage
// counts, slice counts and microbatch counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/runtime/channel.hpp"
#include "src/runtime/pipeline_runtime.hpp"

namespace slim::rt {
namespace {

TEST(ChannelTest, FifoOrder) {
  Channel<int> ch;
  ch.send(1);
  ch.send(2);
  ch.send(3);
  EXPECT_EQ(ch.try_receive(), 1);
  EXPECT_EQ(ch.try_receive(), 2);
  EXPECT_EQ(ch.try_receive(), 3);
}

TEST(ChannelTest, TryReceiveEmpty) {
  Channel<int> ch;
  EXPECT_FALSE(ch.try_receive().has_value());
  ch.send(7);
  auto v = ch.try_receive();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
}

TEST(ChannelTest, CrossThreadBlockingReceive) {
  Channel<int> ch;
  std::thread producer([&] { ch.send(42); });
  int out = 0;
  EXPECT_EQ(ch.receive_status_for(std::chrono::seconds(10), out),
            RecvStatus::Ok);
  EXPECT_EQ(out, 42);
  producer.join();
}

std::vector<std::vector<std::int64_t>> random_batch(Rng& rng, int m, int seq,
                                                    std::int64_t vocab) {
  std::vector<std::vector<std::int64_t>> out(static_cast<std::size_t>(m));
  for (auto& sequence : out) {
    for (int i = 0; i < seq; ++i) {
      sequence.push_back(
          static_cast<std::int64_t>(rng.next_below(
              static_cast<std::uint64_t>(vocab))));
    }
  }
  return out;
}

struct RuntimeCase {
  int stages;
  int layers;
  int n_slices;
  int microbatches;
};

class PipelineRuntimeTest : public ::testing::TestWithParam<RuntimeCase> {};

TEST_P(PipelineRuntimeTest, MatchesMonolithicReference) {
  const RuntimeCase c = GetParam();
  Rng rng(100 + c.stages * 7 + c.n_slices);
  const num::BlockDims dims{32, 4, 2, 48};
  const std::int64_t vocab = 32;
  ThreadedPipeline pipe(dims, vocab, c.layers, c.stages, rng);

  Rng data_rng(200 + c.microbatches);
  const auto tokens = random_batch(data_rng, c.microbatches, 24, vocab);
  const auto targets = random_batch(data_rng, c.microbatches, 24, vocab);

  const auto ref = pipe.run_reference(tokens, targets);
  const auto par = pipe.run_iteration(tokens, targets, c.n_slices);

  EXPECT_NEAR(par.loss, ref.loss, 1e-5);
  EXPECT_LT(par.grads.max_abs_diff(ref.grads), 5e-5f)
      << "stages=" << c.stages << " n=" << c.n_slices;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineRuntimeTest,
    ::testing::Values(RuntimeCase{1, 2, 4, 1}, RuntimeCase{2, 2, 4, 1},
                      RuntimeCase{2, 3, 6, 2}, RuntimeCase{3, 3, 8, 2},
                      RuntimeCase{4, 4, 4, 2}, RuntimeCase{4, 5, 8, 3},
                      RuntimeCase{4, 4, 12, 1}, RuntimeCase{2, 4, 2, 4}));

TEST(PipelineRuntimeTest, DeterministicAcrossRuns) {
  Rng rng(11);
  const num::BlockDims dims{16, 2, 2, 24};
  ThreadedPipeline pipe(dims, 16, 3, 3, rng);
  Rng data_rng(12);
  const auto tokens = random_batch(data_rng, 2, 12, 16);
  const auto targets = random_batch(data_rng, 2, 12, 16);
  const auto a = pipe.run_iteration(tokens, targets, 4);
  const auto b = pipe.run_iteration(tokens, targets, 4);
  EXPECT_DOUBLE_EQ(a.loss, b.loss);
  EXPECT_LT(a.grads.max_abs_diff(b.grads), 1e-7f);
}

TEST(PipelineRuntimeTest, StatsShapeAndMemoryInvariant) {
  Rng rng(13);
  const num::BlockDims dims{16, 2, 2, 24};
  const int stages = 3, n = 6, m = 2;
  ThreadedPipeline pipe(dims, 16, 3, stages, rng);
  Rng data_rng(14);
  const auto tokens = random_batch(data_rng, m, 24, 16);
  const auto targets = random_batch(data_rng, m, 24, 16);
  const auto r = pipe.run_iteration(tokens, targets, n);
  ASSERT_EQ(r.stats.peak_live_slices.size(), static_cast<std::size_t>(stages));
  for (int s = 0; s < stages; ++s) {
    // The stages run the SlimPipe table, whose peak is Eq. 1's window
    // n + 2(p-1-s), capped at the m*n slices an iteration has.
    EXPECT_EQ(r.stats.peak_live_slices[static_cast<std::size_t>(s)],
              std::min(n + 2 * (stages - 1 - s), m * n))
        << "stage " << s;
  }
  // Stage 0 counts one message per table row: m*n forwards, m*n backwards.
  EXPECT_EQ(r.stats.messages[0], 2 * m * n);
}

struct VocabCase {
  int stages;
  int n_slices;
  int microbatches;
};

class VocabParallelRuntimeTest : public ::testing::TestWithParam<VocabCase> {};

// The sharded head with two-phase scalar synchronization (paper 4.3) must
// reproduce the monolithic head exactly, concurrently.
TEST_P(VocabParallelRuntimeTest, ShardedHeadMatchesReference) {
  const VocabCase c = GetParam();
  Rng rng(700 + c.stages * 11 + c.n_slices);
  const num::BlockDims dims{32, 4, 2, 48};
  const std::int64_t vocab = 32;  // divisible by every stage count used
  ThreadedPipeline pipe(dims, vocab, c.stages + 1, c.stages, rng);

  Rng data_rng(701 + c.microbatches);
  const auto tokens = random_batch(data_rng, c.microbatches, 24, vocab);
  const auto targets = random_batch(data_rng, c.microbatches, 24, vocab);

  const auto ref = pipe.run_reference(tokens, targets);
  const auto sharded =
      pipe.run_iteration(tokens, targets, c.n_slices, /*vocab_parallel=*/true);
  EXPECT_NEAR(sharded.loss, ref.loss, 1e-5);
  EXPECT_LT(sharded.grads.max_abs_diff(ref.grads), 5e-5f)
      << "stages=" << c.stages << " n=" << c.n_slices;
}

INSTANTIATE_TEST_SUITE_P(Sweep, VocabParallelRuntimeTest,
                         ::testing::Values(VocabCase{1, 4, 1},
                                           VocabCase{2, 4, 2},
                                           VocabCase{2, 6, 1},
                                           VocabCase{4, 8, 2},
                                           VocabCase{4, 4, 3}));

TEST(PipelineRuntimeTest, UnevenStageSplit) {
  // 5 layers over 3 stages: 2/2/1.
  Rng rng(15);
  const num::BlockDims dims{16, 2, 1, 24};
  ThreadedPipeline pipe(dims, 16, 5, 3, rng);
  Rng data_rng(16);
  const auto tokens = random_batch(data_rng, 1, 12, 16);
  const auto targets = random_batch(data_rng, 1, 12, 16);
  const auto ref = pipe.run_reference(tokens, targets);
  const auto par = pipe.run_iteration(tokens, targets, 3);
  EXPECT_NEAR(par.loss, ref.loss, 1e-5);
  EXPECT_LT(par.grads.max_abs_diff(ref.grads), 5e-5f);
}

}  // namespace
}  // namespace slim::rt

// ---- interleaved (v > 1) runtime tests (appended) ----
namespace slim::rt {
namespace {

struct InterleavedCase {
  int stages;
  int chunks;   // v
  int layers;
  int n_slices;
  int microbatches;
  bool vocab_parallel;
};

class InterleavedRuntimeTest
    : public ::testing::TestWithParam<InterleavedCase> {};

// Figure 5's interleaved form, concurrently: thread r owns global stages
// r, p+r, 2p+r, ...; activations wrap around the ring between chunks. The
// gradients must still equal monolithic execution exactly.
TEST_P(InterleavedRuntimeTest, MatchesMonolithicReference) {
  const InterleavedCase c = GetParam();
  Rng rng(800 + c.stages * 17 + c.chunks * 5 + c.n_slices);
  const num::BlockDims dims{32, 4, 2, 48};
  const std::int64_t vocab = 32;
  ThreadedPipeline pipe(dims, vocab, c.layers, c.stages, rng, c.chunks);

  Rng data_rng(801 + c.microbatches);
  const auto tokens = random_batch(data_rng, c.microbatches, 24, vocab);
  const auto targets = random_batch(data_rng, c.microbatches, 24, vocab);

  const auto ref = pipe.run_reference(tokens, targets);
  const auto par =
      pipe.run_iteration(tokens, targets, c.n_slices, c.vocab_parallel);
  EXPECT_NEAR(par.loss, ref.loss, 1e-5);
  EXPECT_LT(par.grads.max_abs_diff(ref.grads), 5e-5f)
      << "p=" << c.stages << " v=" << c.chunks << " n=" << c.n_slices;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InterleavedRuntimeTest,
    ::testing::Values(InterleavedCase{2, 2, 4, 4, 1, false},
                      InterleavedCase{2, 2, 4, 4, 2, true},
                      InterleavedCase{2, 3, 6, 6, 2, false},
                      InterleavedCase{3, 2, 6, 6, 1, false},
                      InterleavedCase{4, 2, 8, 8, 2, true},
                      InterleavedCase{4, 2, 8, 4, 2, false},
                      InterleavedCase{2, 4, 9, 8, 1, false}));

}  // namespace
}  // namespace slim::rt

// Tests for rt::StageMachine driven without threads: scripted message
// orders pin the pick order, the Eq. 1 window and the counting contract;
// seeded random interleavings step every stage's machine on one thread —
// orders real threads rarely produce — and must reproduce the threaded
// runtime's gradients bit for bit.

#include <gtest/gtest.h>

#include <deque>
#include <numeric>
#include <string>
#include <vector>

#include "src/runtime/pipeline_runtime.hpp"
#include "src/runtime/stage_machine.hpp"

namespace slim::rt {
namespace {

constexpr num::BlockDims kDims{16, 2, 2, 24};
constexpr std::int64_t kVocab = 16;

Batch random_batch(Rng& rng, int m, int seq) {
  Batch out(static_cast<std::size_t>(m));
  for (auto& sequence : out) {
    for (int i = 0; i < seq; ++i) {
      sequence.push_back(static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(kVocab))));
    }
  }
  return out;
}

/// One stage machine plus the model and batch it reads.
struct Rig {
  Rig(int stages, int m, int n, int seq) : n_slices(n) {
    Rng rng(77);
    model = PipelineModel::build(kDims, kVocab, stages + 1, stages, rng);
    tokens = random_batch(rng, m, seq);
    targets = random_batch(rng, m, seq);
    layouts = resolve_layouts(tokens, targets, n, {});
  }

  StageMachine machine(int stage) {
    std::vector<int> mbs(tokens.size());
    std::iota(mbs.begin(), mbs.end(), 0);
    return StageMachine({&model, &tokens, &targets, &layouts, n_slices, false},
                        stage, mbs, &arena);
  }

  /// A forward (or backward) activation slice as a neighbour sends it.
  Message slice(Message::Kind kind, int mb, int s, int at_stage) {
    Rng rng(static_cast<std::uint64_t>(1000 + mb * 10 + s));
    return {kind, mb, s, at_stage,
            num::Tensor::randn(layouts[static_cast<std::size_t>(mb)].len(s),
                               kDims.hidden, rng)};
  }

  int n_slices;
  PipelineModel model;
  Batch tokens, targets;
  std::vector<core::SliceLayout> layouts;
  num::ArenaStats arena;
};

std::string tag(const Message& msg) {
  return std::string(message_kind_name(msg.kind)) + " " +
         std::to_string(msg.mb) + "." + std::to_string(msg.slice);
}

/// Picks and runs until the machine waits for a delivery; returns what ran
/// and collects what it sent.
std::vector<std::string> run_ready(StageMachine& machine,
                                   std::vector<std::string>& hooked,
                                   std::vector<Outgoing>* sent = nullptr) {
  std::vector<std::string> ran;
  std::vector<Outgoing> sends;
  auto hook = [&](const Message& m) { hooked.push_back(tag(m)); };
  Message msg;
  while (machine.pick(msg, hook)) {
    ran.push_back(tag(msg));
    machine.run(std::move(msg), sends);
  }
  if (sent != nullptr) {
    for (Outgoing& out : sends) sent->push_back(std::move(out));
  }
  return ran;
}

TEST(StageMachineTest, FullWindowDefersYoungerForwardButAdmitsOldest) {
  // Stage 1 of 3 with n = 2 holds at most n + 2(p-1-r) = 4 live slices.
  Rig rig(3, 4, 2, 8);
  StageMachine machine = rig.machine(1);
  ASSERT_EQ(machine.live_cap(), 4);
  for (const auto& [mb, s] : std::vector<std::pair<int, int>>{
           {1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 0}, {0, 0}}) {
    machine.deliver(rig.slice(Message::Kind::Forward, mb, s, 1));
  }
  std::vector<std::string> hooked;
  std::vector<Outgoing> sent;
  const std::vector<std::string> ran = run_ready(machine, hooked, &sent);
  // Younger microbatches fill the window; mb 3 then waits while the oldest
  // unretired microbatch (mb 0) is admitted past the cap.
  EXPECT_EQ(ran, (std::vector<std::string>{"fwd 1.0", "fwd 1.1", "fwd 2.0",
                                           "fwd 2.1", "fwd 0.0"}));
  EXPECT_EQ(machine.deferred(), 1);
  EXPECT_EQ(machine.live(), 5);
  // Every arrival was counted and shown to the hooks, the deferred one too.
  EXPECT_EQ(machine.messages(), 6);
  EXPECT_EQ(hooked.size(), 6u);
  ASSERT_EQ(sent.size(), 5u);
  for (const Outgoing& out : sent) EXPECT_EQ(out.dst, 2);
}

TEST(StageMachineTest, DeferredForwardIsNotCountedAgain) {
  // Stage 0 of 2 with n = 2: cap 4, so two of mb 2's forwards wait.
  Rig rig(2, 3, 2, 8);
  StageMachine machine = rig.machine(0);
  std::vector<std::string> hooked;
  EXPECT_EQ(run_ready(machine, hooked),
            (std::vector<std::string>{"fwd 0.0", "fwd 0.1", "fwd 1.0",
                                      "fwd 1.1"}));
  EXPECT_EQ(machine.deferred(), 2);
  EXPECT_EQ(machine.messages(), 6);
  EXPECT_EQ(hooked.back(), "fwd 2.1");

  // A backward frees one slot: it is counted, then the oldest deferred
  // forward runs without being counted or hooked a second time.
  machine.deliver(rig.slice(Message::Kind::Backward, 0, 1, 0));
  EXPECT_EQ(run_ready(machine, hooked),
            (std::vector<std::string>{"bwd 0.1", "fwd 2.0"}));
  EXPECT_EQ(machine.messages(), 7);
  EXPECT_EQ(hooked.size(), 7u);
  EXPECT_EQ(machine.deferred(), 1);
  EXPECT_EQ(machine.live(), 4);
}

TEST(StageMachineTest, ContinuationsRunAheadOfArrivalsNewestSliceFirst) {
  // The head stage (stage 1 of 2) starts mb 0's backward chain once its
  // last slice's head gradient exists, ahead of mb 1's queued forward.
  Rig rig(2, 2, 3, 9);
  StageMachine machine = rig.machine(1);
  for (int s = 0; s < 3; ++s) {
    machine.deliver(rig.slice(Message::Kind::Forward, 0, s, 1));
  }
  machine.deliver(rig.slice(Message::Kind::Forward, 1, 0, 1));
  std::vector<std::string> hooked;
  std::vector<Outgoing> sent;
  EXPECT_EQ(run_ready(machine, hooked, &sent),
            (std::vector<std::string>{"fwd 0.0", "fwd 0.1", "fwd 0.2",
                                      "bwd 0.2", "bwd 0.1", "bwd 0.0",
                                      "fwd 1.0"}));
  // Continuations are counted like arrivals.
  EXPECT_EQ(machine.messages(), 7);
  EXPECT_EQ(machine.committed(), 1);
  ASSERT_EQ(sent.size(), 3u);
  for (const Outgoing& out : sent) {
    EXPECT_EQ(out.dst, 0);
    EXPECT_EQ(out.msg.kind, Message::Kind::Backward);
  }
}

struct InterleavingCase {
  int stages;
  int chunks;
  bool vocab_parallel;
};

class StageMachineInterleavingTest
    : public ::testing::TestWithParam<InterleavingCase> {};

// Steps p machines on one thread in a seeded random order: each step
// either delivers one in-flight message (FIFO per sender, senders picked
// at random) or runs the stage's next pick. Whatever the order, the
// gradients and message counts equal ThreadedPipeline's bit for bit, every
// stage stays within its live-slice bound and every layer drains.
TEST_P(StageMachineInterleavingTest, MatchesThreadedPipelineBitForBit) {
  const InterleavingCase c = GetParam();
  const int p = c.stages, n = 3, m = 3;
  Rng rng(500 + p * 10 + c.chunks);
  ThreadedPipeline pipe(kDims, kVocab, 2 * p * c.chunks, p, rng, c.chunks);
  Rng data(600 + p);
  const Batch tokens = random_batch(data, m, 13);
  const Batch targets = random_batch(data, m, 13);
  RunOptions options;
  options.n_slices = n;
  options.vocab_parallel = c.vocab_parallel;
  const ThreadedPipeline::Result threaded =
      pipe.run_iteration(tokens, targets, options);

  const std::vector<core::SliceLayout> layouts =
      resolve_layouts(tokens, targets, n, {});
  const StageInputs inputs{&pipe.model(), &tokens,  &targets,
                           &layouts,      n,        c.vocab_parallel};
  std::vector<int> mbs(static_cast<std::size_t>(m));
  std::iota(mbs.begin(), mbs.end(), 0);
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    std::deque<num::ArenaStats> arenas(static_cast<std::size_t>(p));
    std::deque<StageMachine> machines;
    for (int s = 0; s < p; ++s) {
      machines.emplace_back(inputs, s, mbs,
                            &arenas[static_cast<std::size_t>(s)]);
    }
    // wire[dst][src]: messages in flight from src to dst.
    std::vector<std::vector<std::deque<Message>>> wire(
        static_cast<std::size_t>(p),
        std::vector<std::deque<Message>>(static_cast<std::size_t>(p)));
    auto deliver_one = [&](int dst, Rng& order) {
      std::vector<int> senders;
      for (int src = 0; src < p; ++src) {
        if (!wire[dst][src].empty()) senders.push_back(src);
      }
      if (senders.empty()) return false;
      auto& link = wire[dst][senders[order.next_below(senders.size())]];
      machines[dst].deliver(std::move(link.front()));
      link.pop_front();
      return true;
    };
    CommitLedger ledger(pipe.model(), m, c.vocab_parallel);
    Rng order(seed);
    std::vector<Outgoing> sends;
    int idle = 0;
    auto all_finished = [&] {
      for (const StageMachine& machine : machines) {
        if (!machine.finished()) return false;
      }
      return true;
    };
    while (!all_finished()) {
      ASSERT_LT(idle, 100000) << "no stage can make progress, seed " << seed;
      const int s = static_cast<int>(order.next_below(p));
      StageMachine& machine = machines[static_cast<std::size_t>(s)];
      if (order.next_below(3) == 0 && deliver_one(s, order)) continue;
      Message msg;
      if (!machine.pick(msg, nullptr)) {
        idle = deliver_one(s, order) ? 0 : idle + 1;
        continue;
      }
      idle = 0;
      const int retired = machine.run(std::move(msg), sends);
      for (Outgoing& out : sends) {
        wire[out.dst][s].push_back(std::move(out.msg));
      }
      sends.clear();
      if (retired >= 0) ledger.slot(s, retired) = machine.take_commit(retired);
    }
    for (int s = 0; s < p; ++s) {
      const StageMachine& machine = machines[static_cast<std::size_t>(s)];
      EXPECT_TRUE(machine.drained()) << "stage " << s;
      // Eq. 1 bounds the non-interleaved window. Interleaved, the oldest
      // microbatch's later-chunk forwards return to a window that younger
      // microbatches' first-chunk forwards already filled, and its
      // always-admitted forwards may exceed the cap by one microbatch's
      // n*v slices (the threaded runtime peaks the same way).
      const int eq1 = n * c.chunks + 2 * (p - 1 - s);
      EXPECT_LE(machine.peak_live(), c.chunks == 1 ? eq1 : eq1 + n * c.chunks)
          << "stage " << s << " seed " << seed;
      EXPECT_EQ(machine.messages(),
                threaded.stats.messages[static_cast<std::size_t>(s)])
          << "stage " << s;
    }
    ledger.merge_committed();
    double loss = 0.0;
    num::TinyModel::Grads grads;
    ledger.finish(loss, grads);
    EXPECT_EQ(grads.max_abs_diff(threaded.grads), 0.0f) << "seed " << seed;
    EXPECT_EQ(loss, threaded.loss) << "seed " << seed;
  }
}

// Vocabulary-parallel cases use two shards: the head's reduction over
// shard answers is then order-independent (one commutative addition).
INSTANTIATE_TEST_SUITE_P(
    Configs, StageMachineInterleavingTest,
    ::testing::Values(InterleavingCase{3, 1, false},
                      InterleavingCase{2, 1, true},
                      InterleavingCase{2, 2, false},
                      InterleavingCase{2, 2, true}),
    [](const ::testing::TestParamInfo<InterleavingCase>& info) {
      return "p" + std::to_string(info.param.stages) + "v" +
             std::to_string(info.param.chunks) +
             (info.param.vocab_parallel ? "_vocab" : "");
    });

}  // namespace
}  // namespace slim::rt

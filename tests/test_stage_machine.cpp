// Tests for rt::StageMachine driven without threads: scripted deliveries
// pin the table order, the vocabulary rounds' priority, the out-of-order
// error and the counting contract; seeded random interleavings step every
// stage's machine on one thread — orders real threads rarely produce — and
// must reproduce the threaded runtime's gradients bit for bit and the
// table's live-slice peaks exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/numerics/cross_entropy.hpp"
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
  Rig(int stages, int m, int n, int seq, bool vocab = false)
      : n_slices(n), vocab_parallel(vocab) {
    Rng rng(77);
    model = PipelineModel::build(kDims, kVocab, stages + 1, stages, rng);
    tokens = random_batch(rng, m, seq);
    targets = random_batch(rng, m, seq);
    layouts = resolve_layouts(tokens, targets, kVocab, n, {});
  }

  StageMachine machine(int stage) {
    std::vector<int> mbs(tokens.size());
    std::iota(mbs.begin(), mbs.end(), 0);
    return StageMachine(
        {&model, &tokens, &targets, &layouts, n_slices, vocab_parallel}, stage,
        mbs, &arena);
  }

  /// A (slice length x hidden) payload as a neighbour sends it: a forward
  /// or backward activation slice, or the head's VocabWork hidden states.
  Message slice(Message::Kind kind, int mb, int s, int at_stage) {
    Rng rng(static_cast<std::uint64_t>(1000 + mb * 10 + s));
    return {kind, mb, s, at_stage,
            num::Tensor::randn(layouts[static_cast<std::size_t>(mb)].len(s),
                               kDims.hidden, rng)};
  }

  int n_slices;
  bool vocab_parallel;
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

TEST(StageMachineTest, EarlyArrivalWaitsForItsRow) {
  // Stage 0 of 2 with n = 2 warms up with n + 2(p-1-r) = 4 forwards: a
  // backward that arrives before any of them still runs in its row.
  Rig rig(2, 2, 2, 8);
  StageMachine machine = rig.machine(0);
  machine.deliver(rig.slice(Message::Kind::Backward, 0, 1, 0));
  std::vector<std::string> hooked;
  std::vector<Outgoing> sent;
  EXPECT_EQ(run_ready(machine, hooked, &sent),
            (std::vector<std::string>{"fwd 0.0", "fwd 0.1", "fwd 1.0",
                                      "fwd 1.1", "bwd 0.1"}));
  // The next row, bwd 0.0, waits for its gradient.
  EXPECT_EQ(machine.live(), 3);
  EXPECT_EQ(machine.peak_live(), 4);
  ASSERT_EQ(sent.size(), 4u);
  for (const Outgoing& out : sent) EXPECT_EQ(out.dst, 1);
}

TEST(StageMachineTest, HeadAlternatesBackwardAndForwardAfterWarmup) {
  // The head (stage 1 of 2, n = 3) warms up with 3 forwards, then runs one
  // backward and one forward, newest slice first: mb 1's first forward
  // runs between mb 0's backwards, not after them.
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
                                      "bwd 0.2", "fwd 1.0", "bwd 0.1"}));
  EXPECT_EQ(machine.peak_live(), 3);
  ASSERT_EQ(sent.size(), 2u);
  for (const Outgoing& out : sent) {
    EXPECT_EQ(out.dst, 0);
    EXPECT_EQ(out.msg.kind, Message::Kind::Backward);
  }
}

TEST(StageMachineTest, VocabularyRoundRunsAheadOfABlockedRow) {
  // Shard stage 0 of 2 (m = 1, n = 2) runs its two forwards, then its next
  // row, bwd 0.1, waits for a gradient. A vocabulary round that arrives
  // meanwhile runs at once, and it runs ahead of a row whose input arrived
  // before it.
  Rig rig(2, 1, 2, 8, /*vocab_parallel=*/true);
  StageMachine machine = rig.machine(0);
  std::vector<std::string> hooked;
  std::vector<Outgoing> sent;
  EXPECT_EQ(run_ready(machine, hooked, &sent),
            (std::vector<std::string>{"fwd 0.0", "fwd 0.1"}));
  machine.deliver(rig.slice(Message::Kind::VocabWork, 0, 0, 0));
  EXPECT_EQ(run_ready(machine, hooked, &sent),
            (std::vector<std::string>{"vocab_work 0.0"}));
  ASSERT_EQ(sent.size(), 3u);
  EXPECT_EQ(sent.back().dst, 1);
  EXPECT_EQ(sent.back().msg.kind, Message::Kind::VocabStats);
  machine.deliver(rig.slice(Message::Kind::Backward, 0, 1, 0));
  machine.deliver(rig.slice(Message::Kind::VocabWork, 0, 1, 0));
  EXPECT_EQ(run_ready(machine, hooked, &sent),
            (std::vector<std::string>{"vocab_work 0.1", "bwd 0.1"}));
}

TEST(StageMachineTest, NextRowNamesTheDeviceItWaitsOn) {
  // Shard stage 0 of 2 (m = 1, n = 2) embeds its own tokens for both
  // forwards; its first backward then waits on stage 1.
  Rig rig(2, 1, 2, 8, /*vocab_parallel=*/true);
  std::vector<std::string> hooked;
  StageMachine first = rig.machine(0);
  EXPECT_EQ(first.waits_on(), -1);
  EXPECT_EQ(run_ready(first, hooked),
            (std::vector<std::string>{"fwd 0.0", "fwd 0.1"}));
  EXPECT_EQ(first.waits_on(), 1);
  // The head's forwards wait on stage 0; its head-edge backward waits on
  // every shard's vocabulary rounds, not on one device.
  StageMachine head = rig.machine(1);
  EXPECT_EQ(head.waits_on(), 0);
  head.deliver(rig.slice(Message::Kind::Forward, 0, 0, 1));
  head.deliver(rig.slice(Message::Kind::Forward, 0, 1, 1));
  EXPECT_EQ(run_ready(head, hooked),
            (std::vector<std::string>{"fwd 0.0", "fwd 0.1"}));
  EXPECT_EQ(head.waits_on(), -1);
}

TEST(StageMachineTest, ArrivalAgainstTableOrderFails) {
  // The head's first row is fwd 0.0; its sender (stage 0) sends in table
  // order, so slice 1 at the FIFO front is a broken transport, not a
  // message to hold back.
  Rig rig(2, 1, 2, 8);
  StageMachine machine = rig.machine(1);
  machine.deliver(rig.slice(Message::Kind::Forward, 0, 1, 1));
  Message msg;
  try {
    machine.pick(msg, nullptr);
    FAIL() << "an out-of-order arrival was picked";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("arrival out of table order"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(machine.messages(), 0);
}

TEST(StageMachineTest, EveryRowAndVocabularyMessageIsCountedOnce) {
  // Shard stage 0 of 2 (m = 2, n = 2) with every input delivered up front,
  // in the order its senders send them: all vocabulary rounds run first,
  // then the 8 rows; each is counted once and shown to on_pick once.
  const int m = 2, n = 2;
  Rig rig(2, m, n, 8, /*vocab_parallel=*/true);
  StageMachine machine = rig.machine(0);
  for (int mb = 0; mb < m; ++mb) {
    for (int s = 0; s < n; ++s) {
      machine.deliver(rig.slice(Message::Kind::VocabWork, mb, s, 0));
      num::Tensor global(2, rig.layouts[static_cast<std::size_t>(mb)].len(s));
      for (std::int64_t t = 0; t < global.cols(); ++t) {
        global.at(0, t) = 0.0f;  // global max logit
        global.at(1, t) = 1.0f;  // global sum of exp
      }
      machine.deliver({Message::Kind::VocabGlobal, mb, s, 0, global});
    }
  }
  for (const auto& [mb, s] :
       std::vector<std::pair<int, int>>{{0, 1}, {0, 0}, {1, 1}, {1, 0}}) {
    machine.deliver(rig.slice(Message::Kind::Backward, mb, s, 0));
  }
  std::vector<std::string> hooked;
  const std::vector<std::string> ran = run_ready(machine, hooked);
  EXPECT_TRUE(machine.finished());
  EXPECT_TRUE(machine.drained());
  EXPECT_EQ(machine.committed(), m);
  ASSERT_EQ(ran.size(), static_cast<std::size_t>(4 * m * n));
  EXPECT_EQ(ran.front(), "vocab_work 0.0");
  EXPECT_EQ(ran[static_cast<std::size_t>(2 * m * n)], "fwd 0.0");
  EXPECT_EQ(ran.back(), "bwd 1.0");
  EXPECT_EQ(hooked, ran);
  EXPECT_EQ(machine.messages(), static_cast<std::int64_t>(ran.size()));
}

TEST(StageMachineTest, HeadFoldsShardPartialsInShardOrder) {
  // The head of a 4-shard vocabulary-parallel pipeline (m = n = 1) reduces
  // the shards' statistics and d(hidden) partials. Float sums are not
  // associative, so whatever order the partials arrive in, the head must
  // fold them in one order: the loss and the head's gradients match bit
  // for bit.
  const int p = 4;
  Rig rig(p, 1, 1, 16, /*vocab_parallel=*/true);
  auto run_head = [&](const std::vector<int>& order) {
    std::deque<StageMachine> shards;
    for (int s = 0; s < p; ++s) shards.push_back(rig.machine(s));
    StageMachine& head = shards.back();
    // Runs the machine's next pick (a queued vocabulary message comes
    // first) and returns what it sent to `dst`, one message per shard.
    std::vector<Outgoing> sends;
    auto step = [&](StageMachine& machine) {
      Message msg;
      EXPECT_TRUE(machine.pick(msg, nullptr));
      machine.run(std::move(msg), sends);
    };
    auto round = [&](Message::Kind kind) {
      std::vector<Message> out(static_cast<std::size_t>(p));
      for (int s = 0; s < p; ++s) {
        StageMachine& shard = shards[static_cast<std::size_t>(s)];
        step(shard);
        for (Outgoing& o : sends) {
          if (o.msg.kind == kind) {
            out[static_cast<std::size_t>(s)] = std::move(o.msg);
          }
        }
        sends.clear();
      }
      return out;
    };
    head.deliver(rig.slice(Message::Kind::Forward, 0, 0, p - 1));
    step(head);  // fwd 0.0 broadcasts the hidden states
    for (Outgoing& o : sends) {
      shards[static_cast<std::size_t>(o.dst)].deliver(std::move(o.msg));
    }
    sends.clear();
    const std::vector<Message> stats = round(Message::Kind::VocabStats);
    for (const int s : order) {
      head.deliver(stats[static_cast<std::size_t>(s)]);
      step(head);
    }
    for (Outgoing& o : sends) {
      shards[static_cast<std::size_t>(o.dst)].deliver(std::move(o.msg));
    }
    sends.clear();
    const std::vector<Message> dx = round(Message::Kind::VocabDx);
    for (const int s : order) {
      head.deliver(dx[static_cast<std::size_t>(s)]);
      step(head);
    }
    step(head);  // bwd 0.0 retires the microbatch
    EXPECT_TRUE(head.commit(0).complete);
    return head.take_commit(0);
  };
  const StageCommit in_order = run_head({0, 1, 2, 3});
  const StageCommit reversed = run_head({3, 2, 1, 0});
  EXPECT_EQ(in_order.loss, reversed.loss);
  EXPECT_EQ(in_order.head_shard.max_abs_diff(reversed.head_shard), 0.0f);
  EXPECT_EQ(in_order.final_norm.max_abs_diff(reversed.final_norm), 0.0f);
}

bool same_bits(const num::Tensor& a, const num::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.size())) == 0;
}

TEST(StageMachineTest, VocabularyRoundsRouteTheLibraryHead) {
  // The vocabulary rounds compute nothing of their own: the head's
  // VocabGlobal payload is num::ce_fold over the shards' VocabStats
  // payloads, and each shard's VocabDx payload is num::ce_shard_grad
  // through that shard's head rows, bit for bit.
  for (const int p : {2, 4}) {
    SCOPED_TRACE("p = " + std::to_string(p));
    Rig rig(p, 1, 2, 16, /*vocab_parallel=*/true);
    std::deque<StageMachine> shards;
    for (int s = 0; s < p; ++s) shards.push_back(rig.machine(s));
    StageMachine& head = shards.back();
    auto step = [](StageMachine& machine) {
      Message msg;
      EXPECT_TRUE(machine.pick(msg, nullptr));
      std::vector<Outgoing> sends;
      machine.run(std::move(msg), sends);
      return sends;
    };
    // fwd 0.0 on the head broadcasts slice 0's hidden states.
    head.deliver(rig.slice(Message::Kind::Forward, 0, 0, p - 1));
    std::vector<Outgoing> work = step(head);
    ASSERT_EQ(work.size(), static_cast<std::size_t>(p));
    const num::Tensor hidden = work.front().msg.payload;
    std::vector<Message> stats_msgs;
    for (Outgoing& o : work) {
      shards[static_cast<std::size_t>(o.dst)].deliver(std::move(o.msg));
      std::vector<Outgoing> sent =
          step(shards[static_cast<std::size_t>(o.dst)]);
      ASSERT_EQ(sent.size(), 1u);
      stats_msgs.push_back(std::move(sent.front().msg));
    }
    std::vector<num::Tensor> stats;
    std::vector<Outgoing> globals;
    for (Message& msg : stats_msgs) {
      stats.push_back(msg.payload);
      head.deliver(std::move(msg));
      globals = step(head);
    }
    ASSERT_EQ(globals.size(), static_cast<std::size_t>(p));
    const num::CeFold fold = num::ce_fold(stats);
    const core::SliceLayout& layout = rig.layouts[0];
    const float weight = static_cast<float>(layout.len(0)) /
                         static_cast<float>(layout.seq());  // m = 1
    EXPECT_EQ(head.commit(0).loss, fold.loss * weight);
    const std::vector<std::int64_t> targets(
        rig.targets[0].begin(), rig.targets[0].begin() + layout.len(0));
    const std::int64_t width = kVocab / p;
    for (Outgoing& o : globals) {
      EXPECT_TRUE(same_bits(o.msg.payload, fold.global)) << "to " << o.dst;
      const std::int64_t lo = o.dst * width;
      shards[static_cast<std::size_t>(o.dst)].deliver(std::move(o.msg));
      const std::vector<Outgoing> sent =
          step(shards[static_cast<std::size_t>(o.dst)]);
      ASSERT_EQ(sent.size(), 1u);
      const num::Tensor rows = rig.model.embedding.slice_rows(lo, lo + width);
      const num::Tensor dlogits = num::ce_shard_grad(
          num::matmul_nt(hidden, rows), lo, targets, fold.global,
          weight / static_cast<float>(layout.len(0)));
      EXPECT_TRUE(same_bits(sent.front().msg.payload,
                            num::matmul(dlogits, rows)))
          << "shard " << o.dst;
    }
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
// stage peaks at exactly its table's live-slice count and every layer
// drains.
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
      resolve_layouts(tokens, targets, kVocab, n, {});
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
      // The table's peak is Eq. 1's window, interleaved or not.
      EXPECT_EQ(machine.peak_live(),
                std::min(n * c.chunks + 2 * (p - 1 - s), m * n * c.chunks))
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

// The head folds the shards' answers in shard order, so four shards are as
// order-independent as two.
INSTANTIATE_TEST_SUITE_P(
    Configs, StageMachineInterleavingTest,
    ::testing::Values(InterleavingCase{3, 1, false},
                      InterleavingCase{2, 1, true},
                      InterleavingCase{4, 1, true},
                      InterleavingCase{2, 2, false},
                      InterleavingCase{2, 2, true}),
    [](const ::testing::TestParamInfo<InterleavingCase>& info) {
      return "p" + std::to_string(info.param.stages) + "v" +
             std::to_string(info.param.chunks) +
             (info.param.vocab_parallel ? "_vocab" : "");
    });

}  // namespace
}  // namespace slim::rt

// Tests for rt::drive_stage: real StageMachines driven through a scripted
// test link (Channels between stage threads, every send and publish kept),
// pinning the fault hooks' pick counts, the starvation watchdog, stage-local
// delivery and the flow ids both ends derive; plus the threaded runtime's
// trace at p=3, v=2 with vocabulary parallelism.

#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <map>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/runtime/channel.hpp"
#include "src/runtime/pipeline_runtime.hpp"
#include "src/runtime/stage_driver.hpp"
#include "src/runtime/stage_machine.hpp"

namespace slim::rt {
namespace {

constexpr num::BlockDims kDims{16, 2, 2, 24};
constexpr std::int64_t kVocab = 24;

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

struct Crashed {};
struct Hung {};

/// The test transport: Channels between stage threads. It keeps every send
/// (payload dropped), retirement and published progress; crash and hang
/// throw instead of ending the process or parking; device `gone` reads as
/// closed.
class TestLink final : public StageLink {
 public:
  TestLink(int stage, std::vector<Channel<Message>>& inbox)
      : stage_(stage), inbox_(inbox) {}

  void receive(std::vector<Message>& arrivals,
               std::chrono::milliseconds wait) override {
    Channel<Message>& mine = inbox_[static_cast<std::size_t>(stage_)];
    if (wait.count() > 0) {
      Message msg;
      if (mine.receive_status_for(wait, msg) != RecvStatus::Ok) return;
      arrivals.push_back(std::move(msg));
    }
    while (std::optional<Message> msg = mine.try_receive()) {
      arrivals.push_back(std::move(*msg));
    }
  }
  void send(Outgoing out) override {
    sent.push_back({out.dst,
                    {out.msg.kind, out.msg.mb, out.msg.slice, out.msg.stage,
                     {}}});
    inbox_[static_cast<std::size_t>(out.dst)].send(std::move(out.msg));
  }
  void retire(StageMachine& machine, int mb) override {
    retired.push_back(mb);
    machine.take_commit(mb);
  }
  void publish(const obs::StageProgress& progress) override {
    published.push_back(progress);
  }
  bool closed(int device) const override { return device == gone; }
  [[noreturn]] void crash() override { throw Crashed{}; }
  [[noreturn]] void hang() override { throw Hung{}; }

  int gone = -1;
  std::vector<Outgoing> sent;
  std::vector<int> retired;
  std::vector<obs::StageProgress> published;

 private:
  int stage_;
  std::vector<Channel<Message>>& inbox_;
};

/// A p-stage model and batch, and one attempt's machines, links and runs.
struct Rig {
  Rig(int p, int m, int n, bool vocab_parallel, int chunks = 1)
      : stages(p) {
    Rng rng(91);
    model = PipelineModel::build(kDims, kVocab, 2 * p * chunks, p, rng,
                                 chunks);
    tokens = random_batch(rng, m, 12);
    targets = random_batch(rng, m, 12);
    layouts = resolve_layouts(tokens, targets, kVocab, n, {});
    inputs = {&model, &tokens, &targets, &layouts, n, vocab_parallel};
    std::vector<int> mbs(static_cast<std::size_t>(m));
    std::iota(mbs.begin(), mbs.end(), 0);
    inbox = std::vector<Channel<Message>>(static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      machines.emplace_back(inputs, s, mbs, &arenas.emplace_back());
      links.emplace_back(s, inbox);
      StageRun& run = runs.emplace_back();
      run.stage = s;
      run.epoch = obs::MonoClock::now();
      run.arena = &arenas.back();
    }
  }

  /// Drives every stage on its own thread.
  void drive_all() {
    std::vector<std::thread> threads;
    for (int s = 0; s < stages; ++s) {
      threads.emplace_back([this, s] {
        const std::size_t i = static_cast<std::size_t>(s);
        drive_stage(machines[i], links[i], runs[i]);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  int stages;
  PipelineModel model;
  Batch tokens, targets;
  std::vector<core::SliceLayout> layouts;
  StageInputs inputs;
  std::vector<Channel<Message>> inbox;
  std::deque<num::ArenaStats> arenas;
  std::deque<StageMachine> machines;
  std::deque<TestLink> links;
  std::deque<StageRun> runs;
};

int count_kind(const StageRun& run, fault::FaultEvent::Kind kind) {
  int n = 0;
  for (const fault::FaultEvent& event : run.events) n += event.kind == kind;
  return n;
}

TEST(StageDriverTest, CrashFiresAtTheRulesPickCount) {
  // One stage runs all 2*m*n rows itself: no transport needed.
  Rig rig(1, 2, 2, false);
  rig.runs[0].rules.crash_after = 5;
  EXPECT_THROW(drive_stage(rig.machines[0], rig.links[0], rig.runs[0]),
               Crashed);
  EXPECT_EQ(rig.machines[0].messages(), 5);
  EXPECT_EQ(rig.runs[0].progress.messages, 5);
  ASSERT_EQ(count_kind(rig.runs[0], fault::FaultEvent::Kind::Crash), 1);
  EXPECT_EQ(rig.runs[0].events.back().index, 5);
}

TEST(StageDriverTest, HangFiresAtTheRulesPickCountAndPublishesHung) {
  Rig rig(1, 2, 2, false);
  rig.runs[0].rules.hang_after = 3;
  EXPECT_THROW(drive_stage(rig.machines[0], rig.links[0], rig.runs[0]), Hung);
  EXPECT_EQ(rig.machines[0].messages(), 3);
  ASSERT_FALSE(rig.links[0].published.empty());
  EXPECT_EQ(rig.links[0].published.back().state, obs::StageState::Hung);
  EXPECT_EQ(rig.links[0].published.back().messages, 3);
  EXPECT_EQ(count_kind(rig.runs[0], fault::FaultEvent::Kind::Hang), 1);
}

TEST(StageDriverTest, DelayLogsOneEventPerAttempt) {
  // Two attempts of 8 picks each; the rule sleeps on every second pick, so
  // four times per attempt, and logs once per attempt.
  for (int attempt = 0; attempt < 2; ++attempt) {
    Rig rig(1, 2, 2, false);
    rig.runs[0].attempt = attempt;
    rig.runs[0].rules.delay_every = 2;
    rig.runs[0].rules.delay_seconds = 0.002;
    const auto start = std::chrono::steady_clock::now();
    drive_stage(rig.machines[0], rig.links[0], rig.runs[0]);
    EXPECT_GE(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(8));
    EXPECT_TRUE(rig.machines[0].finished());
    EXPECT_EQ(rig.machines[0].messages(), 8);
    EXPECT_EQ(count_kind(rig.runs[0], fault::FaultEvent::Kind::Delay), 1)
        << "attempt " << attempt;
    EXPECT_EQ(rig.links[0].published.back().state, obs::StageState::Done);
  }
}

TEST(StageDriverTest, StarvingStageThrowsAfterTheTimeout) {
  // The last stage of two, driven alone: its first row needs a forward that
  // never comes.
  Rig rig(2, 1, 2, false);
  StageRun& run = rig.runs[1];
  run.starvation_timeout = std::chrono::milliseconds(60);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(drive_stage(rig.machines[1], rig.links[1], run), StageStarved);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(60));
  ASSERT_FALSE(rig.links[1].published.empty());
  EXPECT_EQ(rig.links[1].published.back().state, obs::StageState::Starved);
  EXPECT_EQ(run.progress.state, obs::StageState::Starved);
  EXPECT_EQ(run.events.size(), 1u);
  EXPECT_EQ(count_kind(run, fault::FaultEvent::Kind::Watchdog), 1);
}

TEST(StageDriverTest, StopsStarvedAtTheFirstRowWaitingOnAClosedLink) {
  // Stage 0 of 2 driven alone, with stage 1's link closed: it runs its two
  // warm-up forwards, then its first backward waits on stage 1. It stops
  // there at once, publishing Starved, with no watchdog event or throw.
  Rig rig(2, 1, 2, false);
  rig.links[0].gone = 1;
  StageRun& run = rig.runs[0];
  run.starvation_timeout = std::chrono::seconds(30);
  const auto start = std::chrono::steady_clock::now();
  drive_stage(rig.machines[0], rig.links[0], run);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(rig.machines[0].messages(), 2);
  EXPECT_EQ(rig.links[0].sent.size(), 2u);
  EXPECT_FALSE(rig.machines[0].finished());
  EXPECT_EQ(run.progress.state, obs::StageState::Starved);
  EXPECT_EQ(rig.links[0].published.back().state, obs::StageState::Starved);
  EXPECT_TRUE(run.events.empty());
}

TEST(StageDriverTest, StageLocalSendsNeverReachTheLink) {
  // One stage with a vocabulary-parallel head: every vocabulary round goes
  // from the head to its own shard and back, never through the link.
  Rig rig(1, 2, 2, true);
  drive_stage(rig.machines[0], rig.links[0], rig.runs[0]);
  EXPECT_TRUE(rig.machines[0].finished());
  EXPECT_TRUE(rig.links[0].sent.empty());
  EXPECT_EQ(rig.runs[0].metrics.p2p_messages, 0);
  EXPECT_EQ(rig.links[0].retired, (std::vector<int>{0, 1}));
  // 2*m*n rows plus the four vocabulary messages of each of m*n slices.
  EXPECT_EQ(rig.machines[0].messages(), 2 * 2 * 2 + 4 * 2 * 2);
}

TEST(StageDriverTest, EachSendsFlowIdIsTheOneItsReceiverDerives) {
  Rig rig(3, 2, 2, true);
  obs::Recorder recorder;
  for (StageRun& run : rig.runs) {
    run.attempt = 1;
    run.epoch = recorder.epoch();
    run.recorder = &recorder;
  }
  rig.drive_all();
  const obs::Trace trace = recorder.take();
  std::map<std::int64_t, int> begin_track, end_track;
  for (const obs::TraceFlowPoint& point : trace.flows) {
    std::map<std::int64_t, int>& side = point.begin ? begin_track : end_track;
    EXPECT_TRUE(side.emplace(point.id, point.track).second)
        << "flow " << point.id << " recorded twice";
  }
  std::size_t sends = 0;
  for (int s = 0; s < 3; ++s) {
    for (const Outgoing& out : rig.links[static_cast<std::size_t>(s)].sent) {
      ++sends;
      const std::int64_t id = flow_id(1, out.msg, out.dst);
      ASSERT_EQ(begin_track.count(id), 1u) << message_kind_name(out.msg.kind);
      ASSERT_EQ(end_track.count(id), 1u) << message_kind_name(out.msg.kind);
      EXPECT_EQ(begin_track[id], s);
      EXPECT_EQ(end_track[id], out.dst);
    }
  }
  EXPECT_EQ(begin_track.size(), sends);
  EXPECT_EQ(end_track.size(), sends);
}

TEST(StageDriverTest, ThreadedTraceFlowsPairUpInterleavedVocabParallel) {
  // p=3, v=2 with vocabulary parallelism: interleaved chunks and vocabulary
  // broadcasts share (mb, slice), yet every flow id has exactly one begin
  // and one end, on different tracks.
  const int p = 3;
  Rng rng(93);
  ThreadedPipeline pipe(kDims, kVocab, 2 * p * 2, p, rng, /*chunks=*/2);
  Rng data(94);
  const Batch tokens = random_batch(data, 3, 12);
  const Batch targets = random_batch(data, 3, 12);
  obs::Recorder recorder;
  RunOptions options;
  options.n_slices = 2;
  options.vocab_parallel = true;
  options.recorder = &recorder;
  const ThreadedPipeline::Result result =
      pipe.run_iteration(tokens, targets, options);
  const obs::Trace trace = recorder.take();

  std::map<std::int64_t, std::vector<const obs::TraceFlowPoint*>> by_id;
  for (const obs::TraceFlowPoint& point : trace.flows) {
    by_id[point.id].push_back(&point);
  }
  int bad = 0;
  for (const auto& [id, points] : by_id) {
    const bool paired = points.size() == 2 &&
                        points[0]->begin != points[1]->begin &&
                        points[0]->track != points[1]->track;
    bad += paired ? 0 : 1;
  }
  EXPECT_EQ(bad, 0) << "of " << by_id.size() << " flow ids";
  EXPECT_EQ(static_cast<std::int64_t>(by_id.size()),
            result.stats.metrics.total_p2p_messages());
}

}  // namespace
}  // namespace slim::rt

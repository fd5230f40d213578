// Tests for the multi-process pipeline runtime (src/dist): forked stage
// workers over AF_UNIX sockets, supervised with heartbeats, crash
// detection, backoff respawn and crash-consistent microbatch replay.
//
// The load-bearing assertions: (a) the socket backend's gradients are
// bit-identical to the threaded backend's (same seed, same merge order)
// and within float tolerance of the monolithic reference; (b) a worker
// SIGKILLed at ANY protocol phase — before its first forward, on its first
// gradient commit, after its last — is detected, respawned and replayed
// such that the final gradients are STILL bit-identical; (c) a worker that
// hangs (heartbeats stop) is detected within the heartbeat deadline; (d)
// an exhausted respawn budget yields a structured PipelineError with the
// per-stage postmortem table, never a hang.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "src/dist/process_pipeline.hpp"
#include "src/dist/socket.hpp"
#include "src/dist/stage_worker.hpp"
#include "src/dist/wire.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/pipeline_runtime.hpp"

namespace slim::dist {
namespace {

// ---------------------------------------------------------------------------
// Wire protocol units.

TEST(WireTest, Crc32KnownValue) {
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
}

TEST(WireTest, FrameRoundTrip) {
  SocketPair pair = make_socket_pair();
  Frame out;
  out.kind = FrameKind::Forward;
  out.stage = 2;
  out.mb = 5;
  out.slice = 1;
  Writer w;
  num::Tensor t(3, 4);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(i) * 0.25f - 1.0f;
  }
  w.tensor(t);
  w.str("hello");
  w.i64(-77);
  out.payload = w.take();
  ASSERT_TRUE(send_frame(pair.a.get(), out));

  Frame in;
  ASSERT_EQ(recv_frame(pair.b.get(), &in), IoStatus::Ok);
  EXPECT_EQ(in.kind, FrameKind::Forward);
  EXPECT_EQ(in.stage, 2);
  EXPECT_EQ(in.mb, 5);
  EXPECT_EQ(in.slice, 1);
  Reader r(in.payload);
  const num::Tensor back = r.tensor();
  EXPECT_EQ(back.max_abs_diff(t), 0.0f);  // raw fp32 bytes: bit-exact
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.i64(), -77);
  EXPECT_TRUE(r.done());
}

TEST(WireTest, CleanCloseIsEof) {
  SocketPair pair = make_socket_pair();
  pair.a.reset();
  Frame in;
  EXPECT_EQ(recv_frame(pair.b.get(), &in), IoStatus::Eof);
}

TEST(WireTest, TornFrameDetected) {
  // A worker SIGKILLed mid-write leaves a header promising more payload
  // than ever arrives — the reader must report Torn, not hang or accept.
  SocketPair pair = make_socket_pair();
  Frame out;
  out.kind = FrameKind::Commit;
  out.stage = 1;
  out.payload.assign(64, 0xAB);
  // Serialize via a scratch pair to capture the exact on-wire bytes.
  SocketPair scratch = make_socket_pair();
  ASSERT_TRUE(send_frame(scratch.a.get(), out));
  std::vector<std::uint8_t> bytes(36 + 64);
  ASSERT_EQ(recv_all(scratch.b.get(), bytes.data(), bytes.size()),
            IoStatus::Ok);
  // Deliver only the header + half the payload, then die.
  ASSERT_TRUE(send_all(pair.a.get(), bytes.data(), 36 + 32));
  pair.a.reset();
  Frame in;
  EXPECT_EQ(recv_frame(pair.b.get(), &in), IoStatus::Torn);
}

TEST(WireTest, CorruptPayloadDetected) {
  SocketPair pair = make_socket_pair();
  Frame out;
  out.kind = FrameKind::Commit;
  out.stage = 0;
  out.payload.assign(32, 0x5C);
  SocketPair scratch = make_socket_pair();
  ASSERT_TRUE(send_frame(scratch.a.get(), out));
  std::vector<std::uint8_t> bytes(36 + 32);
  ASSERT_EQ(recv_all(scratch.b.get(), bytes.data(), bytes.size()),
            IoStatus::Ok);
  bytes[36 + 7] ^= 0x01;  // flip one payload bit
  ASSERT_TRUE(send_all(pair.a.get(), bytes.data(), bytes.size()));
  Frame in;
  EXPECT_EQ(recv_frame(pair.b.get(), &in), IoStatus::Corrupt);
}

TEST(WireTest, StatusRoundTrip) {
  WireStatus status;
  status.messages = 123;
  status.done_f = 7;
  status.done_b = 6;
  status.live = 3;
  status.queue = 2;
  status.deferred = 1;
  status.committed = 4;
  status.last_mb = 9;
  status.state = static_cast<int>(rt::StageState::Waiting);
  status.injected_delay_seconds = 0.125;
  status.prev = {11, 12, 1300, 1400, 2, 3};
  status.next = {21, 22, 2300, 2400, 0, 1};
  status.flight_recorded = 456;
  Writer w;
  write_status(w, status);
  const std::vector<std::uint8_t> bytes = w.take();
  Reader r(bytes);
  const WireStatus back = read_status(r);
  EXPECT_EQ(back.messages, 123);
  EXPECT_EQ(back.done_f, 7);
  EXPECT_EQ(back.done_b, 6);
  EXPECT_EQ(back.live, 3);
  EXPECT_EQ(back.queue, 2);
  EXPECT_EQ(back.deferred, 1);
  EXPECT_EQ(back.committed, 4);
  EXPECT_EQ(back.last_mb, 9);
  EXPECT_EQ(back.state, static_cast<int>(rt::StageState::Waiting));
  EXPECT_EQ(back.injected_delay_seconds, 0.125);
  EXPECT_EQ(back.prev.frames_out, 11);
  EXPECT_EQ(back.prev.frames_in, 12);
  EXPECT_EQ(back.prev.bytes_out, 1300);
  EXPECT_EQ(back.prev.bytes_in, 1400);
  EXPECT_EQ(back.prev.crc_rejects, 2);
  EXPECT_EQ(back.prev.retries, 3);
  EXPECT_EQ(back.next.frames_out, 21);
  EXPECT_EQ(back.next.frames_in, 22);
  EXPECT_EQ(back.next.bytes_out, 2300);
  EXPECT_EQ(back.next.bytes_in, 2400);
  EXPECT_EQ(back.next.crc_rejects, 0);
  EXPECT_EQ(back.next.retries, 1);
  EXPECT_EQ(back.flight_recorded, 456);
  EXPECT_TRUE(r.done());
}

TEST(WireTest, CommitRoundTripBitExact) {
  Rng rng(31);
  const num::BlockDims dims{16, 2, 2, 24};
  const rt::PipelineModel model =
      rt::PipelineModel::build(dims, 16, 3, 2, rng);
  rt::StageCommit commit = rt::make_stage_commit(model, 1, false);
  commit.loss = 1.75;
  commit.complete = true;
  for (num::LayerGrads& layer : commit.layers) {
    for (std::int64_t i = 0; i < layer.wq.size(); ++i) {
      layer.wq.data()[i] = static_cast<float>(i) * 1e-3f;
    }
  }
  Writer w;
  write_commit(w, commit);
  const std::vector<std::uint8_t> bytes = w.take();
  Reader r(bytes);
  const rt::StageCommit back = read_commit(r);
  ASSERT_EQ(back.layers.size(), commit.layers.size());
  for (std::size_t i = 0; i < back.layers.size(); ++i) {
    EXPECT_EQ(back.layers[i].max_abs_diff(commit.layers[i]), 0.0f);
  }
  EXPECT_EQ(back.loss, 1.75);
  EXPECT_TRUE(back.complete);
  EXPECT_TRUE(r.done());
}

// ---------------------------------------------------------------------------
// Shared fixtures.

std::vector<std::vector<std::int64_t>> random_batch(Rng& rng, int m, int seq,
                                                    std::int64_t vocab) {
  std::vector<std::vector<std::int64_t>> out(static_cast<std::size_t>(m));
  for (auto& sequence : out) {
    for (int i = 0; i < seq; ++i) {
      sequence.push_back(static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(vocab))));
    }
  }
  return out;
}

struct Workload {
  std::vector<std::vector<std::int64_t>> tokens;
  std::vector<std::vector<std::int64_t>> targets;
};

Workload make_workload(int m, int seq, std::int64_t vocab, int seed) {
  Rng rng(static_cast<std::uint64_t>(seed));
  Workload w;
  w.tokens = random_batch(rng, m, seq, vocab);
  w.targets = random_batch(rng, m, seq, vocab);
  return w;
}

constexpr num::BlockDims kDims{32, 4, 2, 48};
constexpr std::int64_t kVocab = 32;

/// Threaded-backend result for the same seed — the bit-identity yardstick.
rt::ThreadedPipeline::Result threaded_result(int stages, int layers,
                                             int seed, const Workload& w,
                                             int n_slices) {
  Rng rng(static_cast<std::uint64_t>(seed));
  rt::ThreadedPipeline pipe(kDims, kVocab, layers, stages, rng);
  return pipe.run_iteration(w.tokens, w.targets, n_slices);
}

// ---------------------------------------------------------------------------
// Fault-free parity.

struct ParityCase {
  int stages;
  int layers;
  int n_slices;
  int microbatches;
};

class DistParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(DistParityTest, MatchesThreadedBitExactAndReference) {
  const ParityCase c = GetParam();
  const int seed = 900 + c.stages * 13 + c.n_slices;
  const Workload w = make_workload(c.microbatches, 24, kVocab, 901 + c.microbatches);

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, c.layers, c.stages, rng);
  const auto dist = pipe.run_iteration(w.tokens, w.targets, c.n_slices);
  const auto ref = pipe.run_reference(w.tokens, w.targets);
  const auto thr =
      threaded_result(c.stages, c.layers, seed, w, c.n_slices);

  // Same seed, same staged-commit protocol, same merge order: the process
  // boundary (fork + raw-fp32 socket frames) must not change a single bit.
  EXPECT_EQ(dist.grads.max_abs_diff(thr.grads), 0.0f)
      << "stages=" << c.stages << " n=" << c.n_slices;
  EXPECT_DOUBLE_EQ(dist.loss, thr.loss);
  EXPECT_NEAR(dist.loss, ref.loss, 1e-5);
  EXPECT_LT(dist.grads.max_abs_diff(ref.grads), 5e-5f);

  // Schedule-shape metrics survive the process boundary.
  EXPECT_EQ(dist.stats.metrics.substrate, "dist");
  ASSERT_EQ(dist.stats.peak_live_slices.size(),
            static_cast<std::size_t>(c.stages));
  for (int s = 0; s < c.stages; ++s) {
    const int cap = c.n_slices + 2 * (c.stages - 1 - s);
    EXPECT_GE(dist.stats.peak_live_slices[static_cast<std::size_t>(s)], 1);
    EXPECT_LE(dist.stats.peak_live_slices[static_cast<std::size_t>(s)], cap)
        << "stage " << s << " exceeded the Eq. 1 window";
  }
  // Message counts are a schedule-shape invariant; peak live slices are a
  // wall-clock high-water mark (timing-dependent under the cap), so only
  // the Eq. 1 bound above is asserted for them.
  EXPECT_EQ(dist.stats.messages, thr.stats.messages);
  EXPECT_TRUE(dist.stats.replayed_microbatches.empty());
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistParityTest,
                         ::testing::Values(ParityCase{1, 2, 2, 1},
                                           ParityCase{2, 3, 2, 2},
                                           ParityCase{3, 5, 2, 3},
                                           ParityCase{3, 4, 4, 2},
                                           ParityCase{4, 5, 2, 3}));

// ---------------------------------------------------------------------------
// Crash torture: SIGKILL a real stage process at every protocol phase x
// stage index; recovery must reproduce the fault-free gradients bit for
// bit and replay exactly the unretired suffix.

struct KillCase {
  int stage;
  KillSpec::Phase phase;
};

class DistKillTortureTest : public ::testing::TestWithParam<KillCase> {};

TEST_P(DistKillTortureTest, RecoversBitIdentical) {
  const KillCase c = GetParam();
  const int stages = 3, layers = 5, n = 2, m = 4, seed = 1200;
  const Workload w = make_workload(m, 24, kVocab, 1201);
  const auto thr = threaded_result(stages, layers, seed, w, n);

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.kill.stage = c.stage;
  options.kill.phase = c.phase;
  options.drain_grace = std::chrono::milliseconds(400);
  options.heartbeat_timeout = std::chrono::milliseconds(2000);
  fault::FaultReport report;
  options.report = &report;

  const auto dist = pipe.run_iteration(w.tokens, w.targets, options);

  // The recovered gradients are the whole point: bit-identical to the
  // fault-free threaded run and to (implicitly) run_reference.
  EXPECT_EQ(dist.grads.max_abs_diff(thr.grads), 0.0f)
      << "stage=" << c.stage << " phase=" << static_cast<int>(c.phase);
  EXPECT_DOUBLE_EQ(dist.loss, thr.loss);

  const std::vector<int>& replay = report.replayed_microbatches;
  switch (c.phase) {
    case KillSpec::Phase::PreForward: {
      // Killed before any forward completed: nothing retired anywhere, the
      // whole iteration replays.
      std::vector<int> all(static_cast<std::size_t>(m));
      std::iota(all.begin(), all.end(), 0);
      EXPECT_EQ(replay, all);
      EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::Crash));
      EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::Recovery));
      break;
    }
    case KillSpec::Phase::MidCommit: {
      // Killed on the stage's first Commit frame: some prefix of the
      // microbatches retired everywhere (usually at least mb 0 — its
      // remaining backwards were in flight and the drain grace lets
      // survivors finish, though on a loaded machine a survivor can die on
      // a dead-peer send first), the rest replay. The committed set is
      // always a microbatch prefix (retirement follows schedule order), so
      // the replay set must be a contiguous suffix ending at m-1.
      ASSERT_FALSE(replay.empty());
      std::vector<int> suffix;
      for (int mb = replay.front(); mb < m; ++mb) suffix.push_back(mb);
      EXPECT_EQ(replay, suffix);
      EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::Recovery));
      break;
    }
    case KillSpec::Phase::PostCommit:
      // Killed after its last commit: every microbatch had retired — the
      // supervisor must skip replay gracefully. (The worker may even have
      // exited cleanly before the SIGKILL landed; both are fine.)
      EXPECT_TRUE(replay.empty());
      break;
    case KillSpec::Phase::None:
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DistKillTortureTest,
    ::testing::Values(KillCase{0, KillSpec::Phase::PreForward},
                      KillCase{1, KillSpec::Phase::PreForward},
                      KillCase{2, KillSpec::Phase::PreForward},
                      KillCase{0, KillSpec::Phase::MidCommit},
                      KillCase{1, KillSpec::Phase::MidCommit},
                      KillCase{2, KillSpec::Phase::MidCommit},
                      KillCase{0, KillSpec::Phase::PostCommit},
                      KillCase{1, KillSpec::Phase::PostCommit},
                      KillCase{2, KillSpec::Phase::PostCommit}));

// ---------------------------------------------------------------------------
// Supervision: hang detection, respawn budget, structured failure.

TEST(DistSupervisionTest, HungWorkerDetectedByMissedHeartbeats) {
  const int stages = 3, layers = 4, n = 2, m = 3, seed = 1300;
  const Workload w = make_workload(m, 24, kVocab, 1301);
  const auto thr = threaded_result(stages, layers, seed, w, n);

  fault::FaultPlan plan;
  plan.stage_hangs.push_back({1, 5});

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.faults = &plan;
  options.heartbeat_interval = std::chrono::milliseconds(20);
  options.heartbeat_timeout = std::chrono::milliseconds(250);
  options.drain_grace = std::chrono::milliseconds(300);
  fault::FaultReport report;
  options.report = &report;

  const auto start = std::chrono::steady_clock::now();
  const auto dist = pipe.run_iteration(w.tokens, w.targets, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  // The parked worker stops heartbeating; the supervisor must notice
  // within the deadline (plus drain/backoff/replay time), SIGKILL it and
  // recover — well under the worker-side starvation timeout.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::Watchdog));
  EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::Recovery));
  EXPECT_EQ(dist.grads.max_abs_diff(thr.grads), 0.0f);
  EXPECT_DOUBLE_EQ(dist.loss, thr.loss);
}

TEST(DistSupervisionTest, PlanStageCrashBecomesRealSigkill) {
  const int stages = 3, layers = 4, n = 2, m = 3, seed = 1310;
  const Workload w = make_workload(m, 24, kVocab, 1311);
  const auto thr = threaded_result(stages, layers, seed, w, n);

  fault::FaultPlan plan;
  plan.stage_crashes.push_back({1, 6});

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.faults = &plan;
  options.drain_grace = std::chrono::milliseconds(400);
  fault::FaultReport report;
  options.report = &report;

  const auto dist = pipe.run_iteration(w.tokens, w.targets, options);
  EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::Crash));
  EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::Recovery));
  EXPECT_FALSE(report.replayed_microbatches.empty());
  EXPECT_EQ(dist.stats.replayed_microbatches, report.replayed_microbatches);
  EXPECT_EQ(dist.grads.max_abs_diff(thr.grads), 0.0f);
}

TEST(DistSupervisionTest, RespawnBudgetExhaustionIsStructured) {
  const int stages = 2, layers = 3, n = 2, m = 2, seed = 1320;
  const Workload w = make_workload(m, 24, kVocab, 1321);

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.kill.stage = 1;
  options.kill.phase = KillSpec::Phase::PreForward;
  options.kill.persistent = true;  // re-kill every respawn
  options.respawn_budget = 2;
  options.backoff_base = std::chrono::milliseconds(5);
  options.backoff_cap = std::chrono::milliseconds(20);
  options.drain_grace = std::chrono::milliseconds(150);
  fault::FaultReport report;
  options.report = &report;

  try {
    pipe.run_iteration(w.tokens, w.targets, options);
    FAIL() << "expected PipelineError";
  } catch (const rt::PipelineError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("respawn budget"), std::string::npos) << what;
    // The postmortem blocked-on table ships inside the error, with the
    // per-channel queue depth and last-received microbatch columns.
    EXPECT_NE(what.find("queue"), std::string::npos);
    EXPECT_NE(what.find("last mb"), std::string::npos);
    EXPECT_FALSE(error.report().blocked_table.empty());
    int recoveries = 0;
    for (const fault::FaultEvent& event : error.report().events) {
      recoveries += event.kind == fault::FaultEvent::Kind::Recovery ? 1 : 0;
    }
    EXPECT_EQ(recoveries, 2);  // budget consumed before the failure
  }
  // The out-param report carries the same postmortem.
  EXPECT_FALSE(report.blocked_table.empty());
}

TEST(DistSupervisionTest, RecoverFalseFailsFastAndStructured) {
  const int stages = 2, layers = 3, n = 2, m = 2, seed = 1330;
  const Workload w = make_workload(m, 24, kVocab, 1331);

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.kill.stage = 0;
  options.kill.phase = KillSpec::Phase::PreForward;
  options.recover = false;
  options.drain_grace = std::chrono::milliseconds(150);
  EXPECT_THROW(pipe.run_iteration(w.tokens, w.targets, options),
               rt::PipelineError);
}

// ---------------------------------------------------------------------------
// Socket-level fault rules on the real transport.

TEST(DistSocketFaultTest, InjectedDelayIsMeasurable) {
  const int stages = 2, layers = 3, n = 2, m = 3, seed = 1400;
  const Workload w = make_workload(m, 24, kVocab, 1401);

  auto run = [&](const fault::FaultPlan* plan, obs::Recorder* rec,
                 fault::FaultReport* report) {
    Rng rng(static_cast<std::uint64_t>(seed));
    ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
    ProcessOptions options;
    options.n_slices = n;
    options.faults = plan;
    options.recorder = rec;
    options.report = report;
    return pipe.run_iteration(w.tokens, w.targets, options);
  };

  const auto baseline = run(nullptr, nullptr, nullptr);

  fault::FaultPlan plan;
  const double delay = 0.004;
  plan.socket_delays.push_back({0, 1, delay});  // every send from stage 0
  obs::Recorder recorder;
  fault::FaultReport report;
  const auto degraded = run(&plan, &recorder, &report);

  // Gradients are latency-invariant.
  EXPECT_EQ(degraded.grads.max_abs_diff(baseline.grads), 0.0f);
  EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::SocketDelay));
  EXPECT_GT(report.injected_seconds, 0.0);

  // Stage 0 sends m*n forward frames, each delayed: the added socket
  // latency must show up in the measured comm time...
  const double base_comm = baseline.stats.metrics.stages[0].comm_seconds;
  const double slow_comm = degraded.stats.metrics.stages[0].comm_seconds;
  const double expected = static_cast<double>(m * n) * delay;
  EXPECT_GT(slow_comm - base_comm, 0.5 * expected);

  // ...and in the recorded trace: stage 0's send spans are each at least
  // `delay` long.
  const obs::Trace trace = recorder.snapshot();
  int slow_sends = 0;
  for (const obs::TraceSpan& span : trace.spans) {
    if (span.track == 0 && span.cat == obs::kCatComm &&
        span.name.rfind("send ", 0) == 0 &&
        span.end - span.start >= delay) {
      ++slow_sends;
    }
  }
  EXPECT_EQ(slow_sends, m * n);
}

TEST(DistSocketFaultTest, LinkDegradationAddsSocketLatency) {
  const int stages = 2, layers = 3, n = 2, m = 2, seed = 1410;
  const Workload w = make_workload(m, 24, kVocab, 1411);
  const auto thr = threaded_result(stages, layers, seed, w, n);

  fault::FaultPlan plan;
  fault::LinkFault link;
  link.src = 0;
  link.extra_latency = 0.003;
  plan.links.push_back(link);

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.faults = &plan;
  fault::FaultReport report;
  options.report = &report;
  const auto dist = pipe.run_iteration(w.tokens, w.targets, options);

  EXPECT_EQ(dist.grads.max_abs_diff(thr.grads), 0.0f);
  EXPECT_GE(report.injected_seconds,
            static_cast<double>(m * n) * link.extra_latency * 0.99);
  EXPECT_GE(dist.stats.metrics.stages[0].comm_seconds,
            static_cast<double>(m * n) * link.extra_latency * 0.99);
}

TEST(DistSocketFaultTest, DropWithRetryDelivers) {
  const int stages = 2, layers = 3, n = 2, m = 2, seed = 1420;
  const Workload w = make_workload(m, 24, kVocab, 1421);
  const auto thr = threaded_result(stages, layers, seed, w, n);

  fault::FaultPlan plan;
  plan.socket_drops.push_back({0, 3, 2, 5});  // every 3rd send, 2 drops

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.faults = &plan;
  fault::FaultReport report;
  options.report = &report;
  const auto dist = pipe.run_iteration(w.tokens, w.targets, options);

  EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::SocketDrop));
  EXPECT_EQ(dist.grads.max_abs_diff(thr.grads), 0.0f);
  EXPECT_TRUE(dist.stats.replayed_microbatches.empty());  // retry sufficed
}

TEST(DistSocketFaultTest, DropBudgetExhaustionIsStructured) {
  const int stages = 2, layers = 3, n = 2, m = 2, seed = 1430;
  const Workload w = make_workload(m, 24, kVocab, 1431);

  fault::FaultPlan plan;
  // 100 pending drops against a 2-retry budget: the first affected send
  // fails outright.
  plan.socket_drops.push_back({0, 1, 100, 2});

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.faults = &plan;
  options.recover = false;
  options.drain_grace = std::chrono::milliseconds(150);
  try {
    pipe.run_iteration(w.tokens, w.targets, options);
    FAIL() << "expected PipelineError";
  } catch (const rt::PipelineError& error) {
    EXPECT_NE(std::string(error.what()).find("retry budget"),
              std::string::npos)
        << error.what();
  }
}

TEST(DistSocketFaultTest, TransientConnectFailureRetried) {
  const int stages = 3, layers = 4, n = 2, m = 2, seed = 1440;
  const Workload w = make_workload(m, 24, kVocab, 1441);
  const auto thr = threaded_result(stages, layers, seed, w, n);

  fault::FaultPlan plan;
  plan.socket_connect_fails.push_back({1, 2});

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.faults = &plan;
  fault::FaultReport report;
  options.report = &report;
  const auto dist = pipe.run_iteration(w.tokens, w.targets, options);

  int retries = 0;
  for (const fault::FaultEvent& event : report.events) {
    retries += event.kind == fault::FaultEvent::Kind::ConnectRetry ? 1 : 0;
  }
  EXPECT_EQ(retries, 2);
  EXPECT_EQ(dist.grads.max_abs_diff(thr.grads), 0.0f);
}

TEST(DistSocketFaultTest, StragglerDelayStillBitIdentical) {
  const int stages = 2, layers = 3, n = 2, m = 2, seed = 1450;
  const Workload w = make_workload(m, 24, kVocab, 1451);
  const auto thr = threaded_result(stages, layers, seed, w, n);

  fault::FaultPlan plan;
  plan.delays.push_back({1, 2, 0.002});

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.faults = &plan;
  fault::FaultReport report;
  options.report = &report;
  const auto dist = pipe.run_iteration(w.tokens, w.targets, options);
  EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::Delay));
  EXPECT_EQ(dist.grads.max_abs_diff(thr.grads), 0.0f);
}

// ---------------------------------------------------------------------------
// Observability across the process boundary.

TEST(DistObservabilityTest, TraceAndArenaPeaksSurviveTheBoundary) {
  const int stages = 3, layers = 4, n = 2, m = 2, seed = 1500;
  const Workload w = make_workload(m, 24, kVocab, 1501);

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  obs::Recorder recorder;
  options.recorder = &recorder;
  const auto dist = pipe.run_iteration(w.tokens, w.targets, options);

  const obs::Trace trace = recorder.snapshot();
  ASSERT_FALSE(trace.spans.empty());
  // Every stage contributed compute spans and commit instants, re-based
  // onto the supervisor's clock (monotone, non-negative).
  std::vector<int> compute_spans(static_cast<std::size_t>(stages), 0);
  for (const obs::TraceSpan& span : trace.spans) {
    EXPECT_GE(span.start, 0.0);
    EXPECT_GE(span.end, span.start);
    if (span.cat == obs::kCatCompute && span.track >= 0 &&
        span.track < stages) {
      ++compute_spans[static_cast<std::size_t>(span.track)];
    }
  }
  for (int s = 0; s < stages; ++s) {
    EXPECT_EQ(compute_spans[static_cast<std::size_t>(s)], 2 * m * n)
        << "stage " << s;
  }
  int commit_instants = 0;
  for (const obs::TraceInstant& inst : trace.instants) {
    commit_instants += inst.cat == obs::kCatCommit ? 1 : 0;
  }
  EXPECT_EQ(commit_instants, stages * m);

  // Arena peaks measured inside the workers came back via Done frames.
  ASSERT_EQ(dist.stats.metrics.stages.size(),
            static_cast<std::size_t>(stages));
  for (const obs::StageMetrics& sm : dist.stats.metrics.stages) {
    EXPECT_GT(sm.measured_peak_total, 0.0) << "stage " << sm.device;
    EXPECT_FALSE(sm.measured_peak_bytes.empty());
    EXPECT_GT(sm.compute_seconds, 0.0);
  }
}

TEST(DistObservabilityTest, KilledWorkerPostmortemCarriesFlightTail) {
  // A worker SIGKILLed on its first Commit frame flushed its flight
  // recorder right before that frame (same FIFO control socket), so the
  // failure postmortem must show the breadcrumbs leading into the commit —
  // what the dead stage was doing, not just that it died.
  const int stages = 2, layers = 3, n = 2, m = 2, seed = 1600;
  const Workload w = make_workload(m, 24, kVocab, 1601);

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.kill.stage = 1;
  options.kill.phase = KillSpec::Phase::MidCommit;
  options.recover = false;
  options.drain_grace = std::chrono::milliseconds(150);
  fault::FaultReport report;
  options.report = &report;
  try {
    pipe.run_iteration(w.tokens, w.targets, options);
    FAIL() << "expected PipelineError";
  } catch (const rt::PipelineError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("stage 1 flight recorder tail"), std::string::npos)
        << what;
    // The tail ends at the commit breadcrumb that triggered the kill, with
    // the recomputation spans before it.
    EXPECT_NE(what.find("commit"), std::string::npos) << what;
    EXPECT_NE(what.find("span-begin"), std::string::npos) << what;
  }
  // The out-param report carries the same table.
  EXPECT_NE(report.blocked_table.find("flight recorder tail"),
            std::string::npos);
}

TEST(DistObservabilityTest, MergedTraceHasPerProcessPidsAndFlowArrows) {
  // The merged trace of a 2-process run must keep the workers apart as real
  // OS processes (per-track pids + process_name metadata) and pair each
  // cross-process send with its receive via a shared flow id.
  const int stages = 2, layers = 3, n = 2, m = 2, seed = 1610;
  const Workload w = make_workload(m, 24, kVocab, 1611);

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  obs::Recorder recorder;
  options.recorder = &recorder;
  pipe.run_iteration(w.tokens, w.targets, options);

  const obs::Trace trace = recorder.snapshot();
  // Each stage track maps to its worker's real pid; both differ from the
  // supervisor (pid 0 convention = the recording process).
  std::set<std::int64_t> worker_pids;
  for (int s = 0; s < stages; ++s) {
    const std::int64_t pid = trace.pid_of(s);
    EXPECT_GT(pid, 0) << "stage " << s;
    EXPECT_NE(pid, static_cast<std::int64_t>(::getpid()));
    worker_pids.insert(pid);
  }
  EXPECT_EQ(worker_pids.size(), static_cast<std::size_t>(stages));
  // Process-name metadata for the supervisor and every worker.
  ASSERT_FALSE(trace.process_names.empty());
  bool saw_supervisor = false, saw_worker = false;
  for (const auto& [pid, name] : trace.process_names) {
    saw_supervisor = saw_supervisor || name == "supervisor";
    saw_worker = saw_worker || name.find("worker") != std::string::npos;
  }
  EXPECT_TRUE(saw_supervisor);
  EXPECT_TRUE(saw_worker);

  // Flow arrows: every boundary crossing appears as a begin (send side) and
  // an end (receive side) sharing one deterministic id, on DIFFERENT
  // tracks. m*n forward + m*n backward crossings on the single boundary.
  std::map<std::int64_t, std::vector<const obs::TraceFlowPoint*>> by_id;
  for (const obs::TraceFlowPoint& point : trace.flows) {
    by_id[point.id].push_back(&point);
  }
  int arrows = 0;
  for (const auto& [id, points] : by_id) {
    if (points.size() != 2) continue;
    const obs::TraceFlowPoint* begin = points[0]->begin ? points[0] : points[1];
    const obs::TraceFlowPoint* end = points[0]->begin ? points[1] : points[0];
    if (!begin->begin || end->begin) continue;
    EXPECT_NE(begin->track, end->track) << "flow " << id;
    ++arrows;
  }
  EXPECT_EQ(arrows, 2 * m * n);

  // And the Chrome export renders them: process metadata plus paired
  // "s"/"f" flow events.
  const std::string json = obs::chrome_trace_json(trace);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

TEST(DistObservabilityTest, PingPongAlignsWorkerClocks) {
  const int stages = 2, layers = 3, n = 2, m = 2, seed = 1620;
  const Workload w = make_workload(m, 24, kVocab, 1621);

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.ping_interval = std::chrono::milliseconds(5);
  const auto dist = pipe.run_iteration(w.tokens, w.targets, options);

  ASSERT_EQ(dist.stats.metrics.stages.size(),
            static_cast<std::size_t>(stages));
  for (const obs::StageMetrics& sm : dist.stats.metrics.stages) {
    // At least the backdated first ping's pong landed on every worker.
    EXPECT_GE(sm.clock_samples, 1) << "stage " << sm.device;
    // A real round trip takes time: the error bound is positive, and the
    // offset estimate is sane (workers forked seconds, not hours, ago).
    EXPECT_GT(sm.clock_uncertainty_seconds, 0.0) << "stage " << sm.device;
    EXPECT_LT(std::abs(sm.clock_offset_seconds), 60.0)
        << "stage " << sm.device;
  }
}

}  // namespace
}  // namespace slim::dist

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
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/dist/process_pipeline.hpp"
#include "src/dist/socket.hpp"
#include "src/dist/stage_worker.hpp"
#include "src/dist/wire.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/json.hpp"
#include "src/obs/telemetry.hpp"
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

// The reflected CRC-32 one byte at a time: the reference the sliced table
// walk must match on every length, alignment and tail.
std::uint32_t crc32_bytewise(const void* data, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(WireTest, Crc32MatchesBytewiseLoop) {
  std::vector<std::uint8_t> bytes(72);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(crc32(bytes.data() + offset, len),
                crc32_bytewise(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
  // One slice's activations as a data frame carries them: 128 x 128 fp32.
  Rng rng(77);
  const num::Tensor slice = num::Tensor::randn(128, 128, rng);
  Writer w;
  w.tensor(slice);
  const std::vector<std::uint8_t> payload = w.take();
  ASSERT_GE(payload.size(), std::size_t{64} << 10);
  EXPECT_EQ(crc32(payload.data(), payload.size()),
            crc32_bytewise(payload.data(), payload.size()));
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
  status.progress.state = rt::StageState::Waiting;
  status.progress.messages = 123;
  status.progress.done_f = 7;
  status.progress.done_b = 6;
  status.progress.due = 8;
  status.progress.live = 3;
  status.progress.cap = 5;
  status.progress.queue = 2;
  status.progress.committed = 4;
  status.progress.microbatches = 9;
  status.progress.last_mb = 9;
  status.progress.at = 1.25;
  status.metrics.device = 1;
  status.metrics.compute_seconds = 0.5;
  status.metrics.blocked_recv_seconds = 0.25;
  status.metrics.p2p_messages = 33;
  status.metrics.p2p_bytes = 2300;
  status.metrics.frames_sent = 21;
  status.metrics.frames_recv = 22;
  status.metrics.bytes_recv = 2400;
  status.metrics.crc_rejects = 2;
  status.metrics.send_retries = 3;
  status.metrics.peak_live_slices = 5;
  status.metrics.peak_queue_depth = 4;
  status.metrics.measured_peak_bytes = {1024.0, 0.0, 512.0};
  status.metrics.measured_peak_total = 1536.0;
  status.injected_delay_seconds = 0.125;
  // The flight tail: a long label travels as truncated at record time.
  obs::FlightEvent ev;
  ev.ts = 1.25;
  ev.seq = 41;
  ev.kind = obs::FlightKind::Recv;
  ev.mb = 3;
  ev.slice = 1;
  ev.value = 6144;
  ev.set_label("this label is much longer than fits");
  status.flight.push_back(ev);
  ev.seq = 42;
  ev.kind = obs::FlightKind::Fault;
  ev.set_label("hang");
  status.flight.push_back(ev);
  Writer w;
  write_status(w, status);
  const std::vector<std::uint8_t> bytes = w.take();
  Reader r(bytes);
  const WireStatus back = read_status(r);
  EXPECT_EQ(back.progress.state, rt::StageState::Waiting);
  EXPECT_EQ(back.progress.messages, 123);
  EXPECT_EQ(back.progress.done_f, 7);
  EXPECT_EQ(back.progress.done_b, 6);
  EXPECT_EQ(back.progress.due, 8);
  EXPECT_EQ(back.progress.live, 3);
  EXPECT_EQ(back.progress.cap, 5);
  EXPECT_EQ(back.progress.queue, 2);
  EXPECT_EQ(back.progress.committed, 4);
  EXPECT_EQ(back.progress.microbatches, 9);
  EXPECT_EQ(back.progress.last_mb, 9);
  EXPECT_EQ(back.progress.at, 1.25);
  EXPECT_EQ(back.metrics.device, 1);
  EXPECT_EQ(back.metrics.compute_seconds, 0.5);
  EXPECT_EQ(back.metrics.blocked_recv_seconds, 0.25);
  EXPECT_EQ(back.metrics.p2p_messages, 33);
  EXPECT_EQ(back.metrics.p2p_bytes, 2300);
  EXPECT_EQ(back.metrics.frames_sent, 21);
  EXPECT_EQ(back.metrics.frames_recv, 22);
  EXPECT_EQ(back.metrics.bytes_recv, 2400);
  EXPECT_EQ(back.metrics.crc_rejects, 2);
  EXPECT_EQ(back.metrics.send_retries, 3);
  EXPECT_EQ(back.metrics.peak_live_slices, 5);
  EXPECT_EQ(back.metrics.peak_queue_depth, 4);
  EXPECT_EQ(back.metrics.measured_peak_bytes,
            (std::vector<double>{1024.0, 0.0, 512.0}));
  EXPECT_EQ(back.metrics.measured_peak_total, 1536.0);
  EXPECT_EQ(back.injected_delay_seconds, 0.125);
  ASSERT_EQ(back.flight.size(), 2u);
  EXPECT_EQ(back.flight[0].ts, 1.25);
  EXPECT_EQ(back.flight[0].seq, 41u);
  EXPECT_EQ(back.flight[0].kind, obs::FlightKind::Recv);
  EXPECT_EQ(back.flight[0].mb, 3);
  EXPECT_EQ(back.flight[0].slice, 1);
  EXPECT_EQ(back.flight[0].value, 6144);
  EXPECT_EQ(back.flight[0].label_str(),
            std::string("this label is much longer than fits")
                .substr(0, obs::FlightEvent::kLabelSize - 1));
  EXPECT_EQ(back.flight[1].seq, 42u);
  EXPECT_EQ(back.flight[1].kind, obs::FlightKind::Fault);
  EXPECT_EQ(back.flight[1].label_str(), "hang");
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

TEST(WireTest, OversizedTensorShapeThrowsBeforeAllocating) {
  // A 2^30 x 2^30 shape with 8 bytes behind it: the Reader must reject it
  // from the bytes left, not try to allocate 4 EiB first.
  Writer w;
  w.i64(std::int64_t{1} << 30);
  w.i64(std::int64_t{1} << 30);
  w.f64(0.0);
  const std::vector<std::uint8_t> bytes = w.take();
  Reader r(bytes);
  EXPECT_THROW(r.tensor(), std::logic_error);
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

/// One line per fault event ("<kind> stage <device>: <detail>"), for
/// failure messages.
std::string describe_events(const fault::FaultReport& report) {
  std::string out;
  for (const fault::FaultEvent& event : report.events) {
    out += std::string(fault::event_kind_name(event.kind)) + " stage " +
           std::to_string(event.device) + ": " + event.detail + "\n";
  }
  return out;
}

/// The state column of `stage`'s row in a blocked-on table ("" if absent).
std::string state_cell(const std::string& table, int stage) {
  std::istringstream lines(table);
  for (std::string line; std::getline(lines, line);) {
    std::vector<std::string> cells;
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, '|');) {
      const std::size_t first = cell.find_first_not_of(' ');
      const std::size_t last = cell.find_last_not_of(' ');
      cells.push_back(first == std::string::npos
                          ? std::string()
                          : cell.substr(first, last - first + 1));
    }
    if (cells.size() > 2 && cells[1] == std::to_string(stage)) {
      return cells[2];
    }
  }
  return "";
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

  // Schedule-shape metrics survive the process boundary. Both runtimes run
  // the same table, so each stage's peak is exactly its Eq. 1 count,
  // min(n + 2(p-1-s), m*n), whatever the timing.
  EXPECT_EQ(dist.stats.metrics.substrate, "dist");
  ASSERT_EQ(dist.stats.peak_live_slices.size(),
            static_cast<std::size_t>(c.stages));
  ASSERT_EQ(thr.stats.peak_live_slices.size(),
            static_cast<std::size_t>(c.stages));
  for (int s = 0; s < c.stages; ++s) {
    const int eq1 = std::min(c.n_slices + 2 * (c.stages - 1 - s),
                             c.microbatches * c.n_slices);
    EXPECT_EQ(dist.stats.peak_live_slices[static_cast<std::size_t>(s)], eq1)
        << "stage " << s;
    EXPECT_EQ(thr.stats.peak_live_slices[static_cast<std::size_t>(s)], eq1)
        << "stage " << s;
  }
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
  options.heartbeat_timeout = std::chrono::milliseconds(2000);
  fault::FaultReport report;
  options.report = &report;

  const auto dist = pipe.run_iteration(w.tokens, w.targets, options);

  // The recovered gradients are the whole point: bit-identical to the
  // fault-free threaded run and to (implicitly) run_reference.
  EXPECT_EQ(dist.grads.max_abs_diff(thr.grads), 0.0f)
      << "stage=" << c.stage << " phase=" << static_cast<int>(c.phase);
  EXPECT_DOUBLE_EQ(dist.loss, thr.loss);

  // The survivors run their tables until their next row waits on the dead
  // stage, so the table alone fixes which microbatches retired everywhere.
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
      // Killed on the stage's first Commit frame (mb 0). It sent all of mb
      // 0's backward slices upstream before that Commit, and the stages
      // downstream had retired mb 0 already, so mb 0 retires everywhere
      // and exactly 1..m-1 replay.
      std::vector<int> rest(static_cast<std::size_t>(m - 1));
      std::iota(rest.begin(), rest.end(), 1);
      EXPECT_EQ(replay, rest);
      EXPECT_TRUE(report.has_kind(fault::FaultEvent::Kind::Recovery));
      break;
    }
    case KillSpec::Phase::PostCommit:
      // Killed after its last commit: every microbatch had retired — the
      // supervisor must skip replay gracefully.
      EXPECT_TRUE(replay.empty());
      EXPECT_FALSE(report.has_kind(fault::FaultEvent::Kind::Recovery));
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
  options.heartbeat_timeout = std::chrono::milliseconds(250);
  fault::FaultReport report;
  options.report = &report;

  const auto start = std::chrono::steady_clock::now();
  const auto dist = pipe.run_iteration(w.tokens, w.targets, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  // The parked worker stops heartbeating; the supervisor must notice
  // within the deadline (plus backoff and replay time), SIGKILL it and
  // recover — well under the worker-side starvation timeout.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  // One hang, one verdict: a worker killed for missed heartbeats stays
  // silent until it is reaped, and must not be judged again meanwhile —
  // nor reported a second time as a crash when its SIGKILL is reaped.
  std::vector<int> watchdog_stages;
  for (const fault::FaultEvent& event : report.events) {
    if (event.kind == fault::FaultEvent::Kind::Watchdog) {
      watchdog_stages.push_back(event.device);
    }
  }
  EXPECT_EQ(watchdog_stages, std::vector<int>{1}) << describe_events(report);
  EXPECT_FALSE(report.has_kind(fault::FaultEvent::Kind::Crash))
      << describe_events(report);
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
    EXPECT_EQ(recoveries, 3);  // budget consumed before the failure
  }
  // The out-param report carries the same postmortem.
  EXPECT_FALSE(report.blocked_table.empty());
}

TEST(DistSupervisionTest, RecoveryNamesTheKilledStageEveryTime) {
  // Stage 1 of 3 dies on its first Commit frame. Its neighbours starve on
  // its closed sockets and report; a starved report is never the verdict,
  // so every repetition blames stage 1 and replays the same microbatches.
  const int stages = 3, layers = 4, n = 2, m = 4, seed = 1340;
  const Workload w = make_workload(m, 24, kVocab, 1341);
  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  for (int rep = 0; rep < 10; ++rep) {
    ProcessOptions options;
    options.n_slices = n;
    options.kill.stage = 1;
    options.kill.phase = KillSpec::Phase::MidCommit;
    fault::FaultReport report;
    options.report = &report;
    pipe.run_iteration(w.tokens, w.targets, options);
    std::vector<int> recovery_stages;
    for (const fault::FaultEvent& event : report.events) {
      if (event.kind == fault::FaultEvent::Kind::Recovery) {
        recovery_stages.push_back(event.device);
      }
    }
    EXPECT_EQ(recovery_stages, std::vector<int>{1})
        << "repetition " << rep << "\n" << describe_events(report);
    EXPECT_EQ(report.replayed_microbatches, (std::vector<int>{1, 2, 3}))
        << "repetition " << rep << "\n" << describe_events(report);
  }
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
  EXPECT_THROW(pipe.run_iteration(w.tokens, w.targets, options),
               rt::PipelineError);
}

TEST(DistSupervisionTest, OutOfVocabularyIdsRejectedBeforeAnyFork) {
  // A token or target id outside [0, vocab) throws once in the supervisor,
  // naming its microbatch and position, before any worker forks: no
  // failed attempt, so no fault event and no replay with backoff.
  Rng rng(1340);
  ProcessPipeline pipe(kDims, kVocab, 3, 2, rng);
  struct Case {
    bool target;
    std::int64_t id;
    const char* what;
  };
  for (const Case c : {Case{false, kVocab, "token id 32"},
                       Case{false, -1, "token id -1"},
                       Case{true, kVocab, "target id 32"}}) {
    SCOPED_TRACE(c.what);
    Workload w = make_workload(2, 24, kVocab, 1341);
    (c.target ? w.targets : w.tokens)[1][5] = c.id;
    fault::FaultReport report;
    ProcessOptions options;
    options.n_slices = 2;
    options.report = &report;
    try {
      pipe.run_iteration(w.tokens, w.targets, options);
      ADD_FAILURE() << "trained on an id outside the vocabulary";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("microbatch 1 position 5: "), std::string::npos)
          << what;
      EXPECT_NE(what.find(c.what), std::string::npos) << what;
    }
    EXPECT_TRUE(report.events.empty());
  }
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

TEST(DistObservabilityTest, LiveSnapshotCarriesArenaPeaks) {
  // Heartbeats and the Done frame carry the worker's arena peaks so far, so
  // the final live snapshot shows each stage's measured peak.
  const int stages = 3, layers = 4, n = 2, m = 2, seed = 1510;
  const Workload w = make_workload(m, 24, kVocab, 1511);
  const char* tmp = std::getenv("TMPDIR");
  const std::string path =
      std::string(tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp") +
      "/slimpipe_test_live_arena_" + std::to_string(::getpid()) + ".json";

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.telemetry_json_path = path;
  const auto dist = pipe.run_iteration(w.tokens, w.targets, options);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::parse(text, &doc, &error)) << error;
  obs::LiveSnapshot snap;
  ASSERT_TRUE(obs::snapshot_from_json(doc, &snap));
  EXPECT_EQ(snap.phase, "done");
  ASSERT_EQ(snap.stages.size(), static_cast<std::size_t>(stages));
  for (const obs::StageLive& live : snap.stages) {
    const obs::StageMetrics& sm =
        dist.stats.metrics.stages[static_cast<std::size_t>(live.stage)];
    EXPECT_GT(live.arena_peak_bytes, 0.0) << "stage " << live.stage;
    EXPECT_EQ(live.arena_peak_bytes, sm.measured_peak_total)
        << "stage " << live.stage;
  }
}

TEST(DistObservabilityTest, KilledWorkerPostmortemCarriesFlightTail) {
  // A worker SIGKILLed on its first Commit frame sent a heartbeat, which
  // carries its flight recorder's tail, right before that frame (same FIFO
  // control socket), so the failure postmortem must show the breadcrumbs
  // leading into the commit — what the dead stage was doing, not just that
  // it died.
  const int stages = 2, layers = 3, n = 2, m = 2, seed = 1600;
  const Workload w = make_workload(m, 24, kVocab, 1601);

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.kill.stage = 1;
  options.kill.phase = KillSpec::Phase::MidCommit;
  options.recover = false;
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
  // The out-param report carries the same table. Stage 0 was not killed:
  // it stopped at its first row that waits on the dead stage 1 and said so
  // in its Done frame.
  EXPECT_NE(report.blocked_table.find("flight recorder tail"),
            std::string::npos);
  EXPECT_EQ(state_cell(report.blocked_table, 0), "starved")
      << report.blocked_table;
  EXPECT_EQ(state_cell(report.blocked_table, 1).rfind("killed by signal 9", 0),
            0u)
      << report.blocked_table;
}

TEST(DistObservabilityTest, FailedWorkerTraceReachesTheSupervisor) {
  // DropBudgetExhaustionIsStructured's plan, traced: stage 0 fails on its
  // first send and reports the error in its Done frame, with its trace, so
  // its own "socket drop" instant lands on its track.
  const int stages = 2, layers = 3, n = 2, m = 2, seed = 1430;
  const Workload w = make_workload(m, 24, kVocab, 1431);

  fault::FaultPlan plan;
  plan.socket_drops.push_back({0, 1, 100, 2});

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.faults = &plan;
  options.recover = false;
  obs::Recorder recorder;
  options.recorder = &recorder;
  fault::FaultReport report;
  options.report = &report;
  EXPECT_THROW(pipe.run_iteration(w.tokens, w.targets, options),
               rt::PipelineError);
  // The failed worker's verdict and state cell are its exit.
  EXPECT_EQ(state_cell(report.blocked_table, 0), "exited with code 2")
      << report.blocked_table;

  const obs::Trace trace = recorder.snapshot();
  int drops = 0;
  for (const obs::TraceInstant& inst : trace.instants) {
    drops += inst.track == 0 && inst.name == "socket drop" &&
             inst.detail.find("retry budget") != std::string::npos;
  }
  EXPECT_EQ(drops, 1) << describe_events(report);
}

TEST(DistObservabilityTest, SurvivorsOfAKilledStageKeepTheirTraces) {
  // Stage 1 of 3 dies on its first Commit frame. Stages 0 and 2 run their
  // rows until one waits on the dead stage, then ship their trace in a Done
  // frame like a finished worker, so the failed attempt's compute on both
  // survivors is in the trace, before the recovery instant.
  const int stages = 3, layers = 4, n = 2, m = 4, seed = 1640;
  const Workload w = make_workload(m, 24, kVocab, 1641);
  const auto thr = threaded_result(stages, layers, seed, w, n);

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  options.kill.stage = 1;
  options.kill.phase = KillSpec::Phase::MidCommit;
  obs::Recorder recorder;
  options.recorder = &recorder;
  const auto dist = pipe.run_iteration(w.tokens, w.targets, options);
  EXPECT_EQ(dist.grads.max_abs_diff(thr.grads), 0.0f);

  const obs::Trace trace = recorder.snapshot();
  std::vector<double> recoveries;
  for (const obs::TraceInstant& inst : trace.instants) {
    if (inst.name == "recovery") recoveries.push_back(inst.ts);
  }
  ASSERT_EQ(recoveries.size(), 1u);
  for (const int s : {0, 2}) {
    int before = 0;
    for (const obs::TraceSpan& span : trace.spans) {
      before += span.cat == obs::kCatCompute && span.track == s &&
                span.start < recoveries[0];
    }
    EXPECT_GT(before, 0) << "stage " << s;
  }
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

TEST(DistObservabilityTest, WorkerRecordsLandOnTheRunClock) {
  // Workers inherit the recorder's epoch through fork, so everything they
  // record is on the run clock when it arrives: inside the run's window,
  // and each commit instant at its own time, inside its stage's compute.
  const int stages = 3, layers = 4, n = 4, m = 4, seed = 1620;
  const Workload w = make_workload(m, 24, kVocab, 1621);

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  obs::Recorder recorder;
  options.recorder = &recorder;
  fault::FaultReport report;  // names the fault if the run was not clean
  options.report = &report;
  const double before = recorder.now();
  pipe.run_iteration(w.tokens, w.targets, options);
  const double after = recorder.now();

  const obs::Trace trace = recorder.snapshot();
  ASSERT_FALSE(trace.spans.empty());
  std::vector<double> first(static_cast<std::size_t>(stages), after);
  std::vector<double> last(static_cast<std::size_t>(stages), before);
  for (const obs::TraceSpan& span : trace.spans) {
    EXPECT_GE(span.start, before) << span.name;
    EXPECT_LE(span.end, after) << span.name;
    if (span.cat != obs::kCatCompute) continue;
    const std::size_t s = static_cast<std::size_t>(span.track);
    first[s] = std::min(first[s], span.start);
    last[s] = std::max(last[s], span.end);
  }
  ASSERT_FALSE(trace.flows.empty());
  for (const obs::TraceFlowPoint& flow : trace.flows) {
    EXPECT_GE(flow.ts, before);
    EXPECT_LE(flow.ts, after);
  }
  int commit_instants = 0;
  for (const obs::TraceInstant& inst : trace.instants) {
    if (inst.cat != obs::kCatCommit) continue;
    ++commit_instants;
    const std::size_t s = static_cast<std::size_t>(inst.track);
    EXPECT_GE(inst.ts, first[s]) << inst.name << " on stage " << s;
    EXPECT_LE(inst.ts, last[s]) << inst.name << " on stage " << s;
  }
  EXPECT_EQ(commit_instants, stages * m) << describe_events(report);
}

TEST(DistObservabilityTest, WorkerFaultEventsLandOnTheRunClock) {
  // A worker's fault events carry run-clock times too: with a recorder
  // that already traced one iteration, the socket-delay events of the next
  // one lie inside that run's window, not near the worker's own start.
  const int stages = 2, layers = 3, n = 2, m = 2, seed = 1630;
  const Workload w = make_workload(m, 24, kVocab, 1631);

  Rng rng(static_cast<std::uint64_t>(seed));
  ProcessPipeline pipe(kDims, kVocab, layers, stages, rng);
  ProcessOptions options;
  options.n_slices = n;
  obs::Recorder recorder;
  options.recorder = &recorder;
  pipe.run_iteration(w.tokens, w.targets, options);

  fault::FaultPlan plan;
  plan.socket_delays.push_back({0, 1, 0.002});  // every send from stage 0
  options.faults = &plan;
  fault::FaultReport report;
  options.report = &report;
  const double before = recorder.now();
  pipe.run_iteration(w.tokens, w.targets, options);
  const double after = recorder.now();

  ASSERT_TRUE(report.has_kind(fault::FaultEvent::Kind::SocketDelay));
  for (const fault::FaultEvent& event : report.events) {
    EXPECT_GE(event.time, before) << event.detail;
    EXPECT_LE(event.time, after) << event.detail;
  }
}

}  // namespace
}  // namespace slim::dist

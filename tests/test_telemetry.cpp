// Tests for the observability tentpole: cross-process clock alignment
// (obs/clock.hpp), the crash-surviving flight recorder and its wire flush
// (obs/flight_recorder.hpp, dist/wire.hpp), and live telemetry snapshots —
// Prometheus exposition golden lines, snapshot JSON round trips and the
// slimpipe_top terminal rendering (obs/telemetry.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/dist/socket.hpp"
#include "src/dist/wire.hpp"
#include "src/obs/clock.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/telemetry.hpp"

namespace slim::obs {
namespace {

// ---------------------------------------------------------------------------
// Clock alignment: the NTP 4-timestamp estimator.

/// Builds the sample a supervisor would record when the worker clock runs
/// `offset` seconds ahead of the run clock and the one-way delays are
/// `d_out` (ping) and `d_back` (pong).
ClockSample round_trip(double t1, double offset, double d_out, double d_back,
                       double hold = 0.0) {
  ClockSample s;
  s.t1 = t1;
  s.t2 = t1 + d_out + offset;         // worker clock
  s.t3 = s.t2 + hold;                 // worker clock
  s.t4 = (s.t3 - offset) + d_back;    // back on the run clock
  return s;
}

TEST(ClockAlignerTest, SymmetricDelaysRecoverOffsetExactly) {
  const double offset = 3.25;  // worker clock 3.25s ahead of the run clock
  ClockAligner aligner;
  aligner.add(round_trip(10.0, offset, 0.002, 0.002, 0.0005));
  ASSERT_TRUE(aligner.aligned());
  EXPECT_NEAR(aligner.offset(), offset, 1e-12);
  // Mapping a worker timestamp back lands on the run clock.
  EXPECT_NEAR(aligner.to_local(100.0 + offset), 100.0, 1e-12);
  // rtt excludes the remote hold.
  EXPECT_NEAR(aligner.best_rtt(), 0.004, 1e-12);
  EXPECT_NEAR(aligner.uncertainty(), 0.002, 1e-12);
}

TEST(ClockAlignerTest, AsymmetryErrorStaysWithinHalfRtt) {
  const double offset = -1.5;  // worker clock behind the run clock
  ClockAligner aligner;
  // Badly asymmetric path: 9ms out, 1ms back.
  aligner.add(round_trip(5.0, offset, 0.009, 0.001));
  ASSERT_TRUE(aligner.aligned());
  const double error = aligner.offset() - offset;
  EXPECT_LE(std::abs(error), aligner.uncertainty() + 1e-12);
  EXPECT_NEAR(aligner.uncertainty(), 0.005, 1e-12);  // rtt/2 of 10ms
}

TEST(ClockAlignerTest, MinimumRttSampleWins) {
  const double offset = 0.75;
  ClockAligner aligner;
  // A sloppy asymmetric sample first, then one tight symmetric round trip.
  aligner.add(round_trip(1.0, offset, 0.020, 0.002));
  aligner.add(round_trip(2.0, offset, 0.0005, 0.0005));
  aligner.add(round_trip(3.0, offset, 0.015, 0.001));
  EXPECT_NEAR(aligner.offset(), offset, 1e-12);  // the tight sample's theta
  EXPECT_NEAR(aligner.best_rtt(), 0.001, 1e-12);
  EXPECT_EQ(aligner.samples(), 3u);
}

TEST(ClockAlignerTest, SlidingWindowTracksDrift) {
  ClockAligner aligner(/*window=*/4);
  // An early, very tight sample at the old offset...
  aligner.add(round_trip(0.0, 1.0, 0.0001, 0.0001));
  EXPECT_NEAR(aligner.offset(), 1.0, 1e-12);
  // ...then the worker clock drifts; once the window slides past the old
  // sample the estimate must follow the new offset even though the old
  // sample had the tighter rtt.
  for (int i = 0; i < 4; ++i) {
    aligner.add(round_trip(10.0 + i, 2.0, 0.001, 0.001));
  }
  EXPECT_NEAR(aligner.offset(), 2.0, 1e-12);
  EXPECT_EQ(aligner.samples(), 5u);
}

TEST(ClockAlignerTest, NegativeRttRejected) {
  ClockAligner aligner;
  ClockSample bad;
  bad.t1 = 10.0;
  bad.t2 = 20.0;
  bad.t3 = 25.0;
  bad.t4 = 10.001;  // rtt = 0.001 - 5.0 < 0: clock misuse, not physics
  ASSERT_LT(bad.rtt(), 0.0);
  aligner.add(bad);
  EXPECT_FALSE(aligner.aligned());
  EXPECT_EQ(aligner.samples(), 0u);
  EXPECT_EQ(aligner.offset(), 0.0);
  EXPECT_EQ(aligner.uncertainty(), 0.0);
  // Unaligned to_local is the identity.
  EXPECT_EQ(aligner.to_local(42.0), 42.0);
}

TEST(ClockAlignerTest, RebaseKeepsDurationsWhenErrorExceedsFirstOffset) {
  // The worker forked at run time 2.0 and recorded its first span 1 ms
  // into its life. A loaded, asymmetric path (39 ms out, 1 ms back) leaves
  // the estimate 19 ms off — more than the first event's 1 ms offset — so
  // the estimate alone would place that span before the fork.
  const double fork = 2.0;  // worker clock = run clock - fork
  ClockAligner aligner;
  aligner.add(round_trip(fork + 0.010, -fork, 0.039, 0.001));
  ASSERT_GT(std::abs(aligner.offset() + fork), 0.001);
  const double first_start = 0.001, first_end = 0.011;
  ASSERT_LT(aligner.to_local(first_start), fork);

  // One shift for every record: nothing lands before the fork, and every
  // duration survives exactly.
  const double shift = rebase_shift(aligner, fork, first_start);
  EXPECT_DOUBLE_EQ(first_start + shift, fork);
  EXPECT_NEAR((first_end + shift) - (first_start + shift),
              first_end - first_start, 1e-12);
  // Clamping each timestamp on its own would have shortened the span.
  EXPECT_LT(std::max(aligner.to_local(first_end), fork) -
                std::max(aligner.to_local(first_start), fork),
            first_end - first_start);

  // Without a pong the fork offset is the shift; an estimate that keeps
  // records after the fork is used unchanged.
  EXPECT_EQ(rebase_shift(ClockAligner(), fork, first_start), fork);
  ClockAligner good;
  good.add(round_trip(fork + 0.010, -fork, 0.001, 0.001));
  EXPECT_DOUBLE_EQ(rebase_shift(good, fork, first_start), -good.offset());
}

// ---------------------------------------------------------------------------
// Flight recorder: ring semantics, flush suffixes, wraparound accounting.

TEST(FlightRecorderTest, FlushReturnsSuffixOldestFirst) {
  FlightRecorder rec(8);
  rec.record(FlightKind::SpanBegin, 0.1, 0, 0, 0, "fwd");
  rec.record(FlightKind::SpanEnd, 0.2, 0, 0, 0, "fwd");
  rec.record(FlightKind::Send, 0.3, 0, 0, 128, "fwd");
  auto flush = rec.flush();
  EXPECT_EQ(flush.dropped, 0u);
  ASSERT_EQ(flush.events.size(), 3u);
  EXPECT_EQ(flush.events[0].seq, 0u);
  EXPECT_EQ(flush.events[0].kind, FlightKind::SpanBegin);
  EXPECT_EQ(flush.events[2].kind, FlightKind::Send);
  EXPECT_EQ(flush.events[2].value, 128);
  EXPECT_EQ(flush.events[2].label_str(), "fwd");

  // A second flush carries only what was recorded since.
  rec.record(FlightKind::Commit, 0.4, 1, -1, 1, "");
  flush = rec.flush();
  EXPECT_EQ(flush.dropped, 0u);
  ASSERT_EQ(flush.events.size(), 1u);
  EXPECT_EQ(flush.events[0].seq, 3u);
  EXPECT_EQ(flush.events[0].kind, FlightKind::Commit);

  // Nothing new: empty flush, no drops.
  flush = rec.flush();
  EXPECT_EQ(flush.dropped, 0u);
  EXPECT_TRUE(flush.events.empty());
}

TEST(FlightRecorderTest, WraparoundCountsDroppedEvents) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.record(FlightKind::Mark, 0.01 * i, i, -1, i, "m");
  }
  EXPECT_EQ(rec.recorded(), 10u);
  const auto flush = rec.flush();
  // Ring of 4 holds seqs 6..9; seqs 0..5 were overwritten before any flush.
  EXPECT_EQ(flush.dropped, 6u);
  ASSERT_EQ(flush.events.size(), 4u);
  EXPECT_EQ(flush.events.front().seq, 6u);
  EXPECT_EQ(flush.events.back().seq, 9u);
  for (std::size_t i = 1; i < flush.events.size(); ++i) {
    EXPECT_EQ(flush.events[i].seq, flush.events[i - 1].seq + 1);
  }
}

TEST(FlightRecorderTest, TailReturnsLastKInRing) {
  FlightRecorder rec(4);
  for (int i = 0; i < 6; ++i) {
    rec.record(FlightKind::Mark, 0.0, i, -1, i, "");
  }
  auto tail = rec.tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 4u);
  EXPECT_EQ(tail[1].seq, 5u);
  // Asking for more than the ring holds returns the whole ring.
  tail = rec.tail(100);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().seq, 2u);
}

TEST(FlightRecorderTest, LabelTruncatesToFixedSize) {
  FlightEvent ev;
  const std::string longer(64, 'x');
  ev.set_label(longer);
  // 24-byte field, NUL-terminated: at most 23 payload characters.
  EXPECT_EQ(ev.label_str(), std::string(FlightEvent::kLabelSize - 1, 'x'));
  ev.set_label("ok");
  EXPECT_EQ(ev.label_str(), "ok");
}

TEST(FlightRecorderTest, RenderedTailNamesKindsAndLabels) {
  FlightRecorder rec(8);
  rec.record(FlightKind::Send, 0.001, 2, 1, 4096, "fwd");
  rec.record(FlightKind::Commit, 0.002, 2, -1, 3, "");
  const std::string text = render_flight_tail(rec.tail(8));
  EXPECT_NE(text.find("send"), std::string::npos);
  EXPECT_NE(text.find("commit"), std::string::npos);
  EXPECT_NE(text.find("fwd"), std::string::npos);
  EXPECT_NE(text.find("4096"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight flush on the wire: Telemetry payload round trip + torn recovery.

TEST(FlightWireTest, FlushRoundTrip) {
  dist::WireFlightFlush flush;
  flush.dropped = 17;
  FlightEvent ev;
  ev.ts = 1.25;
  ev.seq = 41;
  ev.kind = FlightKind::Recv;
  ev.mb = 3;
  ev.slice = 1;
  ev.value = 6144;
  ev.set_label("this label is much longer than fits");
  flush.events.push_back(ev);
  ev.seq = 42;
  ev.kind = FlightKind::Fault;
  ev.set_label("hang");
  flush.events.push_back(ev);

  dist::Writer w;
  dist::write_flight_flush(w, flush);
  const std::vector<std::uint8_t> bytes = w.take();
  dist::Reader r(bytes);
  const dist::WireFlightFlush back = dist::read_flight_flush(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.dropped, 17u);
  ASSERT_EQ(back.events.size(), 2u);
  EXPECT_EQ(back.events[0].ts, 1.25);
  EXPECT_EQ(back.events[0].seq, 41u);
  EXPECT_EQ(back.events[0].kind, FlightKind::Recv);
  EXPECT_EQ(back.events[0].mb, 3);
  EXPECT_EQ(back.events[0].slice, 1);
  EXPECT_EQ(back.events[0].value, 6144);
  // The label survives exactly as truncated at record time.
  EXPECT_EQ(back.events[0].label_str(),
            std::string("this label is much longer than fits")
                .substr(0, FlightEvent::kLabelSize - 1));
  EXPECT_EQ(back.events[1].kind, FlightKind::Fault);
  EXPECT_EQ(back.events[1].label_str(), "hang");
}

TEST(FlightWireTest, TornTelemetryFlushDetected) {
  // A worker SIGKILLed mid-flush leaves a truncated Telemetry frame on the
  // control socket; the supervisor's reader must classify it Torn and keep
  // the events from earlier, complete flushes.
  dist::WireFlightFlush flush;
  FlightEvent ev;
  ev.kind = FlightKind::Commit;
  ev.set_label("mb0");
  for (int i = 0; i < 4; ++i) {
    ev.seq = static_cast<std::uint64_t>(i);
    flush.events.push_back(ev);
  }
  dist::Writer w;
  dist::write_flight_flush(w, flush);
  dist::Frame out;
  out.kind = dist::FrameKind::Telemetry;
  out.stage = 1;
  out.payload = w.take();

  // Serialize via a scratch pair to capture the exact on-wire bytes.
  dist::SocketPair scratch = dist::make_socket_pair();
  ASSERT_TRUE(dist::send_frame(scratch.a.get(), out));
  std::vector<std::uint8_t> bytes(36 + out.payload.size());
  ASSERT_EQ(dist::recv_all(scratch.b.get(), bytes.data(), bytes.size()),
            dist::IoStatus::Ok);

  dist::SocketPair pair = dist::make_socket_pair();
  ASSERT_TRUE(dist::send_all(pair.a.get(), bytes.data(),
                             36 + out.payload.size() / 2));
  pair.a.reset();
  dist::Frame in;
  EXPECT_EQ(dist::recv_frame(pair.b.get(), &in), dist::IoStatus::Torn);
}

TEST(FlightWireTest, TruncatedFlushPayloadThrowsNotReadsGarbage) {
  // Even if a corrupt-but-CRC-passing payload were possible, the Reader's
  // bounds checks fail loudly instead of fabricating events.
  dist::WireFlightFlush flush;
  FlightEvent ev;
  flush.events.push_back(ev);
  dist::Writer w;
  dist::write_flight_flush(w, flush);
  std::vector<std::uint8_t> bytes = w.take();
  bytes.resize(bytes.size() / 2);
  dist::Reader r(bytes);
  EXPECT_THROW(dist::read_flight_flush(r), std::logic_error);
}

TEST(FlightWireTest, FlowIdsDeterministicAndDistinct) {
  EXPECT_EQ(dist::wire_flow_id(0, false, 1, 2, 3),
            dist::wire_flow_id(0, false, 1, 2, 3));
  std::set<std::int64_t> ids;
  for (int attempt = 0; attempt < 2; ++attempt) {
    for (int backward = 0; backward < 2; ++backward) {
      for (int stage = 0; stage < 4; ++stage) {
        for (int mb = 0; mb < 4; ++mb) {
          for (int slice = 0; slice < 4; ++slice) {
            ids.insert(
                dist::wire_flow_id(attempt, backward != 0, stage, mb, slice));
          }
        }
      }
    }
  }
  EXPECT_EQ(ids.size(), 2u * 2u * 4u * 4u * 4u);
  // High base: never collides with Recorder::begin_flow's 0-based counter.
  EXPECT_GE(*ids.begin(), std::int64_t{1} << 56);
}

// ---------------------------------------------------------------------------
// Live snapshots: JSON round trip, Prometheus golden, terminal rendering.

LiveSnapshot sample_snapshot() {
  LiveSnapshot snap;
  snap.ts = 1.5;
  snap.phase = "running";
  snap.attempt = 2;
  snap.microbatches = 4;
  snap.merged_microbatches = 1;
  StageLive s0;
  s0.stage = 0;
  s0.pid = 4242;
  s0.state = "running";
  s0.beat_age_seconds = 0.025;
  s0.messages = 31;
  s0.done_f = 6;
  s0.want_f = 8;
  s0.done_b = 4;
  s0.want_b = 8;
  s0.live = 2;
  s0.live_cap = 4;
  s0.queue = 1;
  s0.deferred = 0;
  s0.committed = 1;
  s0.committed_total = 4;
  s0.frames_out = 12;
  s0.frames_in = 11;
  s0.bytes_out = 98304.0;
  s0.bytes_in = 90112.0;
  s0.crc_rejects = 0;
  s0.retries = 2;
  s0.arena_peak_bytes = 1 << 20;
  s0.clock_offset_seconds = 0.0015;
  s0.clock_uncertainty_seconds = 0.0002;
  s0.flight_events = 57;
  s0.respawns = 1;
  snap.stages.push_back(s0);
  StageLive s1 = s0;
  s1.stage = 1;
  s1.pid = 4243;
  s1.state = "killed by signal 9 (heartbeat deadline)";
  snap.stages.push_back(s1);
  return snap;
}

TEST(SnapshotJsonTest, RoundTripsThroughDumpAndParse) {
  const LiveSnapshot snap = sample_snapshot();
  const std::string text = snapshot_to_json(snap).dump(2);
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::parse(text, &parsed, &error)) << error;
  LiveSnapshot back;
  ASSERT_TRUE(snapshot_from_json(parsed, &back));
  EXPECT_EQ(back.ts, 1.5);
  EXPECT_EQ(back.phase, "running");
  EXPECT_EQ(back.attempt, 2);
  EXPECT_EQ(back.microbatches, 4);
  EXPECT_EQ(back.merged_microbatches, 1);
  ASSERT_EQ(back.stages.size(), 2u);
  EXPECT_EQ(back.stages[0].pid, 4242);
  EXPECT_EQ(back.stages[0].frames_out, 12);
  EXPECT_EQ(back.stages[0].bytes_in, 90112.0);
  EXPECT_EQ(back.stages[0].clock_offset_seconds, 0.0015);
  EXPECT_EQ(back.stages[0].flight_events, 57);
  EXPECT_EQ(back.stages[1].state, "killed by signal 9 (heartbeat deadline)");
  EXPECT_EQ(back.stages[1].respawns, 1);
}

TEST(SnapshotJsonTest, RejectsNonSnapshotJson) {
  JsonValue other = JsonValue::make_object();
  other.set("ts", JsonValue::make_number(1.0));  // no marker key
  LiveSnapshot out;
  EXPECT_FALSE(snapshot_from_json(other, &out));
  EXPECT_FALSE(snapshot_from_json(JsonValue::make_array(), &out));
  EXPECT_FALSE(snapshot_from_json(JsonValue::make_number(3.0), &out));
}

TEST(PrometheusTest, GoldenExpositionLines) {
  const std::string text = prometheus_text(sample_snapshot());
  const auto has_line = [&](const std::string& line) {
    return text.find("\n" + line + "\n") != std::string::npos ||
           text.rfind(line + "\n", 0) == 0;
  };
  // Header series.
  EXPECT_TRUE(has_line("# TYPE slimpipe_snapshot_ts_seconds gauge")) << text;
  EXPECT_TRUE(has_line("slimpipe_snapshot_ts_seconds 1.5")) << text;
  EXPECT_TRUE(has_line("slimpipe_attempt 2")) << text;
  EXPECT_TRUE(has_line("slimpipe_merged_microbatches 1")) << text;
  // Liveness gauge: stage 0 is in a worker-loop state, stage 1 shows the
  // supervisor's exit description and must read 0.
  EXPECT_TRUE(has_line("# TYPE slimpipe_stage_up gauge")) << text;
  EXPECT_TRUE(has_line("slimpipe_stage_up{stage=\"0\"} 1")) << text;
  EXPECT_TRUE(has_line("slimpipe_stage_up{stage=\"1\"} 0")) << text;
  // Cumulative counters carry the _total suffix and a TYPE of counter.
  EXPECT_TRUE(has_line("# TYPE slimpipe_stage_frames_out_total counter"))
      << text;
  EXPECT_TRUE(has_line("slimpipe_stage_frames_out_total{stage=\"0\"} 12"))
      << text;
  EXPECT_TRUE(has_line("slimpipe_stage_bytes_in_total{stage=\"1\"} 90112"))
      << text;
  EXPECT_TRUE(has_line("slimpipe_stage_flight_events_total{stage=\"0\"} 57"))
      << text;
  EXPECT_TRUE(has_line("slimpipe_stage_respawns_total{stage=\"1\"} 1"))
      << text;
  // Every series is announced: one HELP and one TYPE per name.
  for (const char* name :
       {"slimpipe_stage_beat_age_seconds", "slimpipe_stage_queue_depth",
        "slimpipe_stage_clock_offset_seconds",
        "slimpipe_stage_arena_peak_bytes"}) {
    EXPECT_NE(text.find(std::string("# HELP ") + name + " "),
              std::string::npos)
        << name;
    EXPECT_NE(text.find(std::string("# TYPE ") + name + " "),
              std::string::npos)
        << name;
  }
}

TEST(RenderTopTest, FrameCarriesPhaseProgressAndStates) {
  const std::string text = render_top(sample_snapshot());
  EXPECT_NE(text.find("running"), std::string::npos);
  EXPECT_NE(text.find("attempt 2"), std::string::npos);
  EXPECT_NE(text.find("merged 1/4"), std::string::npos);
  EXPECT_NE(text.find("4242"), std::string::npos);  // real worker pid
  EXPECT_NE(text.find("killed by signal 9"), std::string::npos);
  EXPECT_NE(text.find("6/8"), std::string::npos);  // fwd progress
  // No ANSI escapes: cursor control belongs to the tool, not the renderer.
  EXPECT_EQ(text.find('\033'), std::string::npos);
}

TEST(WriteAtomicTest, WritesAndReplacesWithoutTornReads) {
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp";
  const std::string path = dir + "/slimpipe_test_write_atomic.json";
  ASSERT_TRUE(write_atomic(path, "first"));
  ASSERT_TRUE(write_atomic(path, "second"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "second");
  // The temp sibling never lingers.
  EXPECT_EQ(std::fopen((path + ".tmp").c_str(), "rb"), nullptr);
  std::remove(path.c_str());
  // Unwritable directory fails cleanly instead of crashing.
  EXPECT_FALSE(write_atomic("/nonexistent-dir/x.json", "x"));
}

// ---------------------------------------------------------------------------
// StageMetrics: the transport/clock fields survive the report JSON.

TEST(MetricsJsonTest, TransportAndClockFieldsRoundTrip) {
  RunMetrics metrics;
  metrics.substrate = "dist";
  metrics.scheme = "slim";
  metrics.makespan = 0.5;
  StageMetrics s;
  s.device = 1;
  s.frames_sent = 16;
  s.frames_recv = 15;
  s.bytes_recv = 73728.0;
  s.crc_rejects = 1;
  s.send_retries = 4;
  s.clock_offset_seconds = -0.00231;
  s.clock_uncertainty_seconds = 0.00011;
  s.clock_samples = 9;
  metrics.stages.push_back(s);

  const std::string text = run_metrics_to_json(metrics).dump();
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::parse(text, &parsed, &error)) << error;
  RunMetrics back;
  ASSERT_TRUE(run_metrics_from_json(parsed, &back));
  ASSERT_EQ(back.stages.size(), 1u);
  EXPECT_EQ(back.stages[0].frames_sent, 16);
  EXPECT_EQ(back.stages[0].frames_recv, 15);
  EXPECT_EQ(back.stages[0].bytes_recv, 73728.0);
  EXPECT_EQ(back.stages[0].crc_rejects, 1);
  EXPECT_EQ(back.stages[0].send_retries, 4);
  EXPECT_EQ(back.stages[0].clock_offset_seconds, -0.00231);
  EXPECT_EQ(back.stages[0].clock_uncertainty_seconds, 0.00011);
  EXPECT_EQ(back.stages[0].clock_samples, 9);
}

}  // namespace
}  // namespace slim::obs

// Tests for the multi-process observability layer: the crash-surviving
// flight recorder and the heartbeat that carries its tail
// (obs/flight_recorder.hpp, dist/wire.hpp), the heartbeat's progress and
// metrics field by field on the wire and in the report JSON, and live
// telemetry snapshots — the snapshot JSON and the Prometheus exposition
// byte for byte, JSON round trips, and the one per-stage table with the
// slimpipe_top frame built on it (obs/telemetry.hpp).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/dist/socket.hpp"
#include "src/dist/wire.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/telemetry.hpp"
#include "src/runtime/stage_driver.hpp"

namespace slim::obs {
namespace {

// ---------------------------------------------------------------------------
// Flight recorder: a ring of the last 32 events, flushed whole into every
// status a worker sends.

TEST(FlightRecorderTest, FlushReturnsSuffixOldestFirst) {
  // Below capacity the tail is everything recorded, oldest first, with
  // seqs from 0; a later tail adds what was recorded since.
  FlightRecorder rec;
  EXPECT_TRUE(rec.tail().empty());
  rec.record(FlightKind::SpanBegin, 0.1, 0, 0, 0, "fwd");
  rec.record(FlightKind::Send, 0.2, 0, 0, 128, "fwd");
  std::vector<FlightEvent> tail = rec.tail();
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 0u);
  EXPECT_EQ(tail[0].kind, FlightKind::SpanBegin);
  EXPECT_EQ(tail[1].seq, 1u);
  EXPECT_EQ(tail[1].kind, FlightKind::Send);
  EXPECT_EQ(tail[1].value, 128);
  EXPECT_EQ(tail[1].label_str(), "fwd");

  rec.record(FlightKind::Commit, 0.3, 1, -1, 1, "");
  tail = rec.tail();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].kind, FlightKind::SpanBegin);
  EXPECT_EQ(tail[2].seq, 2u);
  EXPECT_EQ(tail[2].kind, FlightKind::Commit);
  EXPECT_EQ(tail[2].mb, 1);
}

TEST(FlightRecorderTest, WraparoundCountsDroppedEvents) {
  // Full, then one past full, then far past: always the newest 32, oldest
  // first, with consecutive seqs ending at the last one recorded, so the
  // first kept seq counts the events the ring has overwritten.
  ASSERT_EQ(FlightRecorder::kCapacity, 32u);
  FlightRecorder rec;
  for (int i = 0; i < 100; ++i) {
    rec.record(FlightKind::Mark, 0.01 * i, i, -1, i, "m");
    const std::vector<FlightEvent> tail = rec.tail();
    const std::uint64_t recorded = static_cast<std::uint64_t>(i) + 1;
    const std::uint64_t dropped = recorded > 32 ? recorded - 32 : 0;
    ASSERT_EQ(tail.size(), recorded - dropped);
    EXPECT_EQ(tail.front().seq, dropped) << "after " << i;
    EXPECT_EQ(tail.front().value, static_cast<std::int64_t>(dropped));
    EXPECT_EQ(tail.back().seq, recorded - 1);
    EXPECT_EQ(tail.back().mb, i);
    for (std::size_t k = 1; k < tail.size(); ++k) {
      EXPECT_EQ(tail[k].seq, tail[k - 1].seq + 1);
    }
  }
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
  FlightRecorder rec;
  rec.record(FlightKind::Send, 0.001, 2, 1, 4096, "fwd");
  rec.record(FlightKind::Commit, 0.002, 2, -1, 3, "");
  const std::string text = render_flight_tail(rec.tail());
  EXPECT_NE(text.find("send"), std::string::npos);
  EXPECT_NE(text.find("commit"), std::string::npos);
  EXPECT_NE(text.find("fwd"), std::string::npos);
  EXPECT_NE(text.find("4096"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The flight tail on the wire: a heartbeat's status payload, torn or cut.

/// A status whose flight tail holds `events` commit breadcrumbs.
StageStatus status_with_tail(int events) {
  StageStatus status;
  FlightEvent ev;
  ev.kind = FlightKind::Commit;
  ev.set_label("mb0");
  for (int i = 0; i < events; ++i) {
    ev.seq = static_cast<std::uint64_t>(i);
    status.flight.push_back(ev);
  }
  return status;
}

TEST(FlightWireTest, FlushRoundTrip) {
  // A heartbeat flushes the whole ring: a wrapped recorder's tail, sent as
  // a Heartbeat frame's status, arrives event for event, its long label as
  // truncated at record time.
  const std::string longer = "this label is much longer than fits";
  FlightRecorder rec;
  for (int i = 0; i < 40; ++i) {
    rec.record(i % 2 == 0 ? FlightKind::Recv : FlightKind::Send, 0.25 * i, i,
               i % 3 - 1, 64 * i, i == 39 ? std::string_view(longer) : "fwd");
  }
  StageStatus status;
  status.flight = rec.tail();
  dist::Writer w;
  dist::write_status(w, status);
  dist::Frame out;
  out.kind = dist::FrameKind::Heartbeat;
  out.stage = 2;
  out.payload = w.take();

  dist::SocketPair pair = dist::make_socket_pair();
  ASSERT_TRUE(dist::send_frame(pair.a.get(), out));
  dist::Frame in;
  ASSERT_EQ(dist::recv_frame(pair.b.get(), &in), dist::IoStatus::Ok);
  EXPECT_EQ(in.kind, dist::FrameKind::Heartbeat);
  EXPECT_EQ(in.stage, 2);
  dist::Reader r(in.payload);
  const StageStatus back = dist::read_status(r);
  EXPECT_TRUE(r.done());
  ASSERT_EQ(back.flight.size(), FlightRecorder::kCapacity);
  for (std::size_t k = 0; k < back.flight.size(); ++k) {
    const FlightEvent& sent = status.flight[k];
    const FlightEvent& got = back.flight[k];
    EXPECT_EQ(got.ts, sent.ts) << k;
    EXPECT_EQ(got.seq, sent.seq) << k;
    EXPECT_EQ(got.kind, sent.kind) << k;
    EXPECT_EQ(got.mb, sent.mb) << k;
    EXPECT_EQ(got.slice, sent.slice) << k;
    EXPECT_EQ(got.value, sent.value) << k;
    EXPECT_EQ(got.label_str(), sent.label_str()) << k;
  }
  EXPECT_EQ(back.flight.front().seq, 8u);
  EXPECT_EQ(back.flight.back().seq, 39u);
  EXPECT_EQ(back.flight.back().label_str(),
            longer.substr(0, FlightEvent::kLabelSize - 1));
}

TEST(FlightWireTest, TornHeartbeatDetected) {
  // A worker SIGKILLed mid-heartbeat leaves a truncated Heartbeat frame on
  // the control socket; the supervisor's reader must classify it Torn, so
  // the postmortem keeps the tail of the last complete heartbeat.
  dist::Writer w;
  dist::write_status(w, status_with_tail(4));
  dist::Frame out;
  out.kind = dist::FrameKind::Heartbeat;
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

TEST(FlightWireTest, TruncatedStatusPayloadThrowsNotReadsGarbage) {
  // Even if a corrupt-but-CRC-passing payload were possible, the Reader's
  // bounds checks fail loudly instead of fabricating events: a status cut
  // inside its flight tail's last label, between two events, or halfway.
  dist::Writer w;
  dist::write_status(w, status_with_tail(2));
  const std::vector<std::uint8_t> bytes = w.take();
  dist::Writer one;
  dist::write_status(one, status_with_tail(1));
  const std::size_t event_bytes = bytes.size() - one.take().size();
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() - event_bytes, bytes.size() / 2}) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(keep));
    dist::Reader r(cut);
    EXPECT_THROW(dist::read_status(r), std::logic_error) << keep;
  }
}

TEST(FlightWireTest, BadFlightCountsThrow) {
  // The flight tail is the status's last member, so its element count sits
  // 4 bytes before the end of a status without events. A negative count and
  // one far beyond the two events behind it must both fail the read.
  dist::Writer empty;
  dist::write_status(empty, status_with_tail(0));
  const std::size_t at = empty.take().size() - 4;
  dist::Writer w;
  dist::write_status(w, status_with_tail(2));
  const std::vector<std::uint8_t> bytes = w.take();
  for (const std::uint32_t count : {0xFFFFFFFFu, 0x7FFFFFFFu}) {
    std::vector<std::uint8_t> bad = bytes;
    for (std::size_t b = 0; b < 4; ++b) {
      bad[at + b] = static_cast<std::uint8_t>(count >> (8 * b));
    }
    dist::Reader r(bad);
    EXPECT_THROW(dist::read_status(r), std::logic_error) << count;
  }
}

// ---------------------------------------------------------------------------
// Field by field: every member of the heartbeat's progress and metrics, each
// set to its own non-default value, survives the wire and the report JSON.

StageProgress distinct_progress() {
  StageProgress p;
  p.state = StageState::Starved;
  p.messages = 101;
  p.done_f = 102;
  p.done_b = 103;
  p.due = 104;
  p.live = 105;
  p.cap = 106;
  p.queue = 107;
  p.committed = 108;
  p.microbatches = 109;
  p.last_mb = 110;
  p.at = 111.5;
  return p;
}

void expect_same_progress(const StageProgress& a,
                          const StageProgress& b) {
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.done_f, b.done_f);
  EXPECT_EQ(a.done_b, b.done_b);
  EXPECT_EQ(a.due, b.due);
  EXPECT_EQ(a.live, b.live);
  EXPECT_EQ(a.cap, b.cap);
  EXPECT_EQ(a.queue, b.queue);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.microbatches, b.microbatches);
  EXPECT_EQ(a.last_mb, b.last_mb);
  EXPECT_EQ(a.at, b.at);
}

StageMetrics distinct_metrics() {
  StageMetrics m;
  m.device = 201;
  m.compute_seconds = 202.5;
  m.comm_seconds = 203.5;
  m.idle_seconds = 204.5;
  m.bubble_fraction = 0.205;
  m.peak_live_slices = 206;
  m.p2p_messages = 207;
  m.p2p_bytes = 208.5;
  m.exchange_bytes = 209.5;
  m.blocked_recv_seconds = 210.5;
  m.peak_queue_depth = 211;
  m.peak_memory_bytes = 212.5;
  m.frames_sent = 213;
  m.frames_recv = 214;
  m.bytes_recv = 215.5;
  m.crc_rejects = 216;
  m.send_retries = 217;
  m.measured_peak_bytes = {218.5, 219.5};
  m.measured_peak_total = 220.5;
  return m;
}

void expect_same_metrics(const StageMetrics& a, const StageMetrics& b) {
  EXPECT_EQ(a.device, b.device);
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  EXPECT_EQ(a.comm_seconds, b.comm_seconds);
  EXPECT_EQ(a.idle_seconds, b.idle_seconds);
  EXPECT_EQ(a.bubble_fraction, b.bubble_fraction);
  EXPECT_EQ(a.peak_live_slices, b.peak_live_slices);
  EXPECT_EQ(a.p2p_messages, b.p2p_messages);
  EXPECT_EQ(a.p2p_bytes, b.p2p_bytes);
  EXPECT_EQ(a.exchange_bytes, b.exchange_bytes);
  EXPECT_EQ(a.blocked_recv_seconds, b.blocked_recv_seconds);
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.frames_recv, b.frames_recv);
  EXPECT_EQ(a.bytes_recv, b.bytes_recv);
  EXPECT_EQ(a.crc_rejects, b.crc_rejects);
  EXPECT_EQ(a.send_retries, b.send_retries);
  EXPECT_EQ(a.measured_peak_bytes, b.measured_peak_bytes);
  EXPECT_EQ(a.measured_peak_total, b.measured_peak_total);
}

TEST(FieldListTest, EveryProgressAndMetricsFieldSurvivesTheWire) {
  StageStatus status;
  status.progress = distinct_progress();
  status.metrics = distinct_metrics();
  dist::Writer w;
  dist::write_status(w, status);
  const std::vector<std::uint8_t> bytes = w.take();
  dist::Reader r(bytes);
  const StageStatus back = dist::read_status(r);
  EXPECT_TRUE(r.done());
  expect_same_progress(back.progress, status.progress);
  expect_same_metrics(back.metrics, status.metrics);
}

TEST(FieldListTest, EveryMetricsFieldSurvivesTheReportJson) {
  RunMetrics metrics;
  metrics.stages.push_back(distinct_metrics());
  const std::string text = run_metrics_to_json(metrics).dump();
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::parse(text, &parsed, &error)) << error;
  RunMetrics back;
  ASSERT_TRUE(run_metrics_from_json(parsed, &back));
  ASSERT_EQ(back.stages.size(), 1u);
  expect_same_metrics(back.stages[0], metrics.stages[0]);
}

TEST(FlightWireTest, FlowIdsDeterministicAndDistinct) {
  using rt::Message;
  const Message msg{Message::Kind::Forward, 2, 3, 1, {}};
  EXPECT_EQ(rt::flow_id(0, msg, 2), rt::flow_id(0, msg, 2));
  std::set<std::int64_t> ids;
  const Message::Kind kinds[] = {
      Message::Kind::Forward,    Message::Kind::Backward,
      Message::Kind::VocabWork,  Message::Kind::VocabStats,
      Message::Kind::VocabGlobal, Message::Kind::VocabDx};
  for (int attempt = 0; attempt < 2; ++attempt) {
    for (const Message::Kind kind : kinds) {
      for (int stage = 0; stage < 4; ++stage) {
        for (int dst = 0; dst < 4; ++dst) {
          for (int mb = 0; mb < 4; ++mb) {
            for (int slice = 0; slice < 4; ++slice) {
              ids.insert(rt::flow_id(attempt, {kind, mb, slice, stage, {}},
                                     dst));
            }
          }
        }
      }
    }
  }
  // Distinct per (attempt, kind, stage, destination, mb, slice): vocabulary
  // broadcasts to every shard and replayed sends never share an id.
  EXPECT_EQ(ids.size(), 2u * 6u * 4u * 4u * 4u * 4u);
  EXPECT_GE(*ids.begin(), 0);
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
  s0.progress.messages = 31;
  s0.progress.done_f = 6;
  s0.progress.due = 8;
  s0.progress.done_b = 4;
  s0.progress.live = 2;
  s0.progress.cap = 4;
  s0.progress.queue = 1;
  s0.progress.last_mb = 3;
  s0.progress.committed = 1;
  s0.progress.microbatches = 4;
  s0.metrics.frames_sent = 12;
  s0.metrics.frames_recv = 11;
  s0.metrics.p2p_bytes = 98304.0;
  s0.metrics.bytes_recv = 90112.0;
  s0.metrics.crc_rejects = 0;
  s0.metrics.send_retries = 2;
  s0.metrics.measured_peak_total = 1 << 20;
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
  EXPECT_EQ(back.stages[0].progress.last_mb, 3);
  EXPECT_EQ(back.stages[0].metrics.frames_sent, 12);
  EXPECT_EQ(back.stages[0].metrics.bytes_recv, 90112.0);
  EXPECT_EQ(back.stages[0].flight_events, 57);
  EXPECT_EQ(back.stages[1].state, "killed by signal 9 (heartbeat deadline)");
  EXPECT_EQ(back.stages[1].respawns, 1);
}

TEST(SnapshotJsonTest, GoldenDocument) {
  // The snapshot file, byte for byte: slimpipe_top and any other reader of
  // the file see these keys, in this order, with these number spellings.
  EXPECT_EQ(snapshot_to_json(sample_snapshot()).dump(2), R"json({
  "slimpipe_live_snapshot": 1,
  "ts": 1.5,
  "phase": "running",
  "attempt": 2,
  "microbatches": 4,
  "merged_microbatches": 1,
  "stages": [
    {
      "stage": 0,
      "pid": 4242,
      "state": "running",
      "beat_age_seconds": 0.025000000000000001,
      "messages": 31,
      "done_f": 6,
      "want_f": 8,
      "done_b": 4,
      "want_b": 8,
      "live": 2,
      "live_cap": 4,
      "queue": 1,
      "last_mb": 3,
      "committed": 1,
      "committed_total": 4,
      "frames_out": 12,
      "frames_in": 11,
      "bytes_out": 98304,
      "bytes_in": 90112,
      "crc_rejects": 0,
      "retries": 2,
      "arena_peak_bytes": 1048576,
      "flight_events": 57,
      "respawns": 1
    },
    {
      "stage": 1,
      "pid": 4243,
      "state": "killed by signal 9 (heartbeat deadline)",
      "beat_age_seconds": 0.025000000000000001,
      "messages": 31,
      "done_f": 6,
      "want_f": 8,
      "done_b": 4,
      "want_b": 8,
      "live": 2,
      "live_cap": 4,
      "queue": 1,
      "last_mb": 3,
      "committed": 1,
      "committed_total": 4,
      "frames_out": 12,
      "frames_in": 11,
      "bytes_out": 98304,
      "bytes_in": 90112,
      "crc_rejects": 0,
      "retries": 2,
      "arena_peak_bytes": 1048576,
      "flight_events": 57,
      "respawns": 1
    }
  ]
})json");
}

TEST(SnapshotJsonTest, RejectsNonSnapshotJson) {
  JsonValue other = JsonValue::make_object();
  other.set("ts", JsonValue::make_number(1.0));  // no marker key
  LiveSnapshot out;
  EXPECT_FALSE(snapshot_from_json(other, &out));
  EXPECT_FALSE(snapshot_from_json(JsonValue::make_array(), &out));
  EXPECT_FALSE(snapshot_from_json(JsonValue::make_number(3.0), &out));
}

TEST(SnapshotJsonTest, RejectsFractionalOrOutOfRangeIntegers) {
  auto decodes = [](const std::string& members) {
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(JsonValue::parse("{\"slimpipe_live_snapshot\":1" + members +
                                     "}",
                                 &doc, &error))
        << error;
    LiveSnapshot out;
    return snapshot_from_json(doc, &out);
  };
  EXPECT_TRUE(decodes(",\"attempt\":1,\"stages\":[{\"stage\":2,\"pid\":4242}]"));
  EXPECT_FALSE(decodes(",\"attempt\":1e30,\"microbatches\":2.5,"
                       "\"stages\":[{\"stage\":-7e20,\"pid\":1e300}]"));
  EXPECT_FALSE(decodes(",\"attempt\":1e30"));
  EXPECT_FALSE(decodes(",\"microbatches\":2.5"));
  EXPECT_FALSE(decodes(",\"stages\":[{\"stage\":-7e20}]"));
  EXPECT_FALSE(decodes(",\"stages\":[{\"pid\":1e300}]"));
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
        "slimpipe_stage_arena_peak_bytes"}) {
    EXPECT_NE(text.find(std::string("# HELP ") + name + " "),
              std::string::npos)
        << name;
    EXPECT_NE(text.find(std::string("# TYPE ") + name + " "),
              std::string::npos)
        << name;
  }
}

TEST(PrometheusTest, GoldenExposition) {
  // The whole exposition, byte for byte: every series' HELP and TYPE
  // headers, names, labels and values, in scrape order.
  EXPECT_EQ(prometheus_text(sample_snapshot()),
            R"(# HELP slimpipe_snapshot_ts_seconds Run-clock time of this snapshot.
# TYPE slimpipe_snapshot_ts_seconds gauge
slimpipe_snapshot_ts_seconds 1.5
# HELP slimpipe_attempt Respawn attempt index.
# TYPE slimpipe_attempt gauge
slimpipe_attempt 2
# HELP slimpipe_merged_microbatches Microbatches committed on every stage.
# TYPE slimpipe_merged_microbatches gauge
slimpipe_merged_microbatches 1
# HELP slimpipe_stage_up Worker liveness (1 = worker-loop state).
# TYPE slimpipe_stage_up gauge
slimpipe_stage_up{stage="0"} 1
slimpipe_stage_up{stage="1"} 0
# HELP slimpipe_stage_beat_age_seconds Run-clock seconds since the stage's last heartbeat.
# TYPE slimpipe_stage_beat_age_seconds gauge
slimpipe_stage_beat_age_seconds{stage="0"} 0.025000000000000001
slimpipe_stage_beat_age_seconds{stage="1"} 0.025000000000000001
# HELP slimpipe_stage_messages_total Frames processed by the worker loop.
# TYPE slimpipe_stage_messages_total counter
slimpipe_stage_messages_total{stage="0"} 31
slimpipe_stage_messages_total{stage="1"} 31
# HELP slimpipe_stage_forward_slices_total Forward slice passes completed.
# TYPE slimpipe_stage_forward_slices_total counter
slimpipe_stage_forward_slices_total{stage="0"} 6
slimpipe_stage_forward_slices_total{stage="1"} 6
# HELP slimpipe_stage_backward_slices_total Backward slice passes completed.
# TYPE slimpipe_stage_backward_slices_total counter
slimpipe_stage_backward_slices_total{stage="0"} 4
slimpipe_stage_backward_slices_total{stage="1"} 4
# HELP slimpipe_stage_committed_microbatches Microbatch gradients committed by this stage.
# TYPE slimpipe_stage_committed_microbatches gauge
slimpipe_stage_committed_microbatches{stage="0"} 1
slimpipe_stage_committed_microbatches{stage="1"} 1
# HELP slimpipe_stage_live_slices Live slices held (paper Eq.1 window).
# TYPE slimpipe_stage_live_slices gauge
slimpipe_stage_live_slices{stage="0"} 2
slimpipe_stage_live_slices{stage="1"} 2
# HELP slimpipe_stage_queue_depth Inbox queue depth.
# TYPE slimpipe_stage_queue_depth gauge
slimpipe_stage_queue_depth{stage="0"} 1
slimpipe_stage_queue_depth{stage="1"} 1
# HELP slimpipe_stage_frames_out_total Wire frames sent on data links.
# TYPE slimpipe_stage_frames_out_total counter
slimpipe_stage_frames_out_total{stage="0"} 12
slimpipe_stage_frames_out_total{stage="1"} 12
# HELP slimpipe_stage_frames_in_total Wire frames received on data links.
# TYPE slimpipe_stage_frames_in_total counter
slimpipe_stage_frames_in_total{stage="0"} 11
slimpipe_stage_frames_in_total{stage="1"} 11
# HELP slimpipe_stage_bytes_out_total Payload bytes sent on data links.
# TYPE slimpipe_stage_bytes_out_total counter
slimpipe_stage_bytes_out_total{stage="0"} 98304
slimpipe_stage_bytes_out_total{stage="1"} 98304
# HELP slimpipe_stage_bytes_in_total Payload bytes received on data links.
# TYPE slimpipe_stage_bytes_in_total counter
slimpipe_stage_bytes_in_total{stage="0"} 90112
slimpipe_stage_bytes_in_total{stage="1"} 90112
# HELP slimpipe_stage_crc_rejects_total Frames rejected by CRC/framing checks.
# TYPE slimpipe_stage_crc_rejects_total counter
slimpipe_stage_crc_rejects_total{stage="0"} 0
slimpipe_stage_crc_rejects_total{stage="1"} 0
# HELP slimpipe_stage_send_retries_total Retransmits after injected frame drops.
# TYPE slimpipe_stage_send_retries_total counter
slimpipe_stage_send_retries_total{stage="0"} 2
slimpipe_stage_send_retries_total{stage="1"} 2
# HELP slimpipe_stage_arena_peak_bytes Concurrent arena memory high-water, bytes.
# TYPE slimpipe_stage_arena_peak_bytes gauge
slimpipe_stage_arena_peak_bytes{stage="0"} 1048576
slimpipe_stage_arena_peak_bytes{stage="1"} 1048576
# HELP slimpipe_stage_flight_events_total Flight-recorder events recorded by the worker.
# TYPE slimpipe_stage_flight_events_total counter
slimpipe_stage_flight_events_total{stage="0"} 57
slimpipe_stage_flight_events_total{stage="1"} 57
# HELP slimpipe_stage_respawns_total Times this stage was respawned.
# TYPE slimpipe_stage_respawns_total counter
slimpipe_stage_respawns_total{stage="0"} 1
slimpipe_stage_respawns_total{stage="1"} 1
)");
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

TEST(RenderTopTest, GoldenFrame) {
  // slimpipe_top's frame of the snapshot file: the header line, then the
  // one per-stage table: stage and state first (the columns the blocked-on
  // table's readers parse), the stage's own progress and metrics after, the
  // last picked microbatch among them.
  LiveSnapshot from_file;
  ASSERT_TRUE(
      snapshot_from_json(snapshot_to_json(sample_snapshot()), &from_file));
  EXPECT_EQ(render_top(from_file), R"(slimpipe running  t=1.50s  attempt 2  merged 1/4 mb
+-------+-----------------------------------------+------+--------+----------+-----+-----+------+-------+---------+--------+---------+---------+-----+-------+--------+
| stage | state                                   | pid  | age ms | messages | fwd | bwd | live | queue | last mb | commit | out     | in      | crc | retry | arena  |
+-------+-----------------------------------------+------+--------+----------+-----+-----+------+-------+---------+--------+---------+---------+-----+-------+--------+
| 0     | running                                 | 4242 | 25     | 31       | 6/8 | 4/8 | 2/4  | 1     | 3       | 1/4    | 96.0KiB | 88.0KiB | 0   | 2     | 1.0MiB |
| 1     | killed by signal 9 (heartbeat deadline) | 4243 | 25     | 31       | 6/8 | 4/8 | 2/4  | 1     | 3       | 1/4    | 96.0KiB | 88.0KiB | 0   | 2     | 1.0MiB |
+-------+-----------------------------------------+------+--------+----------+-----+-----+------+-------+---------+--------+---------+---------+-----+-------+--------+
)");
}

TEST(StageTableTest, ThreadRowShowsNoPidAndItsLastMicrobatch) {
  // A stage thread's row, as the threaded watchdog prints it: no pid of its
  // own, and the microbatch of the last picked message.
  StageLive row;
  row.stage = 1;
  row.state = "hung";
  row.beat_age_seconds = 0.2014;
  row.respawns = 1;
  row.progress.messages = 3;
  row.progress.done_f = 2;
  row.progress.due = 8;
  row.progress.live = 2;
  row.progress.cap = 6;
  row.progress.queue = 1;
  row.progress.microbatches = 2;
  row.progress.last_mb = 0;
  row.metrics.p2p_bytes = 768.0;
  row.metrics.bytes_recv = 1536.0;
  EXPECT_EQ(stage_table({row}), R"(+-------+-------+-----+--------+----------+-----+-----+------+-------+---------+--------+------+--------+-----+-------+-------+
| stage | state | pid | age ms | messages | fwd | bwd | live | queue | last mb | commit | out  | in     | crc | retry | arena |
+-------+-------+-----+--------+----------+-----+-----+------+-------+---------+--------+------+--------+-----+-------+-------+
| 1     | hung  | -   | 201    | 3        | 2/8 | 0/8 | 2/6  | 1     | 0       | 0/2    | 768B | 1.5KiB | 0   | 0     | 0.0B  |
+-------+-------+-----+--------+----------+-----+-----+------+-------+---------+--------+------+--------+-----+-------+-------+
)");
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

TEST(WriteAtomicTest, WritesSpecialFilesInPlace) {
  // A path naming something other than a regular file (here a FIFO; a
  // device such as /dev/null alike) is written through, never renamed over.
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp";
  const std::string path =
      dir + "/slimpipe_test_write_atomic_" + std::to_string(::getpid()) +
      ".fifo";
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << path;
  // Held open read-write, so opening it for writing does not block.
  const int fd = ::open(path.c_str(), O_RDWR | O_NONBLOCK);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(write_atomic(path, "snapshot"));
  struct stat st {};
  ASSERT_EQ(::lstat(path.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode));
  char buf[64] = {};
  const ssize_t n = ::read(fd, buf, sizeof buf);
  EXPECT_EQ(std::string(buf, n > 0 ? static_cast<std::size_t>(n) : 0),
            "snapshot");
  ::close(fd);
  // With nobody reading, the write fails at once instead of blocking, and
  // the FIFO stays.
  EXPECT_FALSE(write_atomic(path, "snapshot"));
  ASSERT_EQ(::lstat(path.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode));
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ---------------------------------------------------------------------------
// StageMetrics: the transport fields survive the report JSON.

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
}

}  // namespace
}  // namespace slim::obs

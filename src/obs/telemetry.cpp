#include "src/obs/telemetry.hpp"

#include <cstdio>
#include <sstream>

#include "src/util/table.hpp"

namespace slim::obs {

namespace {

JsonValue stage_to_json(const StageLive& s) {
  JsonValue v = JsonValue::make_object();
  v.set("stage", JsonValue::make_number(s.stage));
  v.set("pid", JsonValue::make_number(static_cast<double>(s.pid)));
  v.set("state", JsonValue::make_string(s.state));
  v.set("beat_age_seconds", JsonValue::make_number(s.beat_age_seconds));
  v.set("messages", JsonValue::make_number(static_cast<double>(s.messages)));
  v.set("done_f", JsonValue::make_number(s.done_f));
  v.set("want_f", JsonValue::make_number(s.want_f));
  v.set("done_b", JsonValue::make_number(s.done_b));
  v.set("want_b", JsonValue::make_number(s.want_b));
  v.set("live", JsonValue::make_number(s.live));
  v.set("live_cap", JsonValue::make_number(s.live_cap));
  v.set("queue", JsonValue::make_number(s.queue));
  v.set("committed", JsonValue::make_number(s.committed));
  v.set("committed_total", JsonValue::make_number(s.committed_total));
  v.set("frames_out",
        JsonValue::make_number(static_cast<double>(s.frames_out)));
  v.set("frames_in", JsonValue::make_number(static_cast<double>(s.frames_in)));
  v.set("bytes_out", JsonValue::make_number(s.bytes_out));
  v.set("bytes_in", JsonValue::make_number(s.bytes_in));
  v.set("crc_rejects",
        JsonValue::make_number(static_cast<double>(s.crc_rejects)));
  v.set("retries", JsonValue::make_number(static_cast<double>(s.retries)));
  v.set("arena_peak_bytes", JsonValue::make_number(s.arena_peak_bytes));
  v.set("flight_events",
        JsonValue::make_number(static_cast<double>(s.flight_events)));
  v.set("respawns", JsonValue::make_number(static_cast<double>(s.respawns)));
  return v;
}

StageLive stage_from_json(const JsonValue& v) {
  StageLive s;
  s.stage = static_cast<int>(v.number_or("stage", 0.0));
  s.pid = static_cast<std::int64_t>(v.number_or("pid", 0.0));
  s.state = v.string_or("state", "");
  s.beat_age_seconds = v.number_or("beat_age_seconds", 0.0);
  s.messages = static_cast<std::int64_t>(v.number_or("messages", 0.0));
  s.done_f = static_cast<std::int32_t>(v.number_or("done_f", 0.0));
  s.want_f = static_cast<std::int32_t>(v.number_or("want_f", 0.0));
  s.done_b = static_cast<std::int32_t>(v.number_or("done_b", 0.0));
  s.want_b = static_cast<std::int32_t>(v.number_or("want_b", 0.0));
  s.live = static_cast<std::int32_t>(v.number_or("live", 0.0));
  s.live_cap = static_cast<std::int32_t>(v.number_or("live_cap", 0.0));
  s.queue = static_cast<std::int32_t>(v.number_or("queue", 0.0));
  s.committed = static_cast<std::int32_t>(v.number_or("committed", 0.0));
  s.committed_total =
      static_cast<std::int32_t>(v.number_or("committed_total", 0.0));
  s.frames_out = static_cast<std::int64_t>(v.number_or("frames_out", 0.0));
  s.frames_in = static_cast<std::int64_t>(v.number_or("frames_in", 0.0));
  s.bytes_out = v.number_or("bytes_out", 0.0);
  s.bytes_in = v.number_or("bytes_in", 0.0);
  s.crc_rejects = static_cast<std::int64_t>(v.number_or("crc_rejects", 0.0));
  s.retries = static_cast<std::int64_t>(v.number_or("retries", 0.0));
  s.arena_peak_bytes = v.number_or("arena_peak_bytes", 0.0);
  s.flight_events =
      static_cast<std::int64_t>(v.number_or("flight_events", 0.0));
  s.respawns = static_cast<std::int64_t>(v.number_or("respawns", 0.0));
  return s;
}

struct Series {
  const char* name;
  const char* help;
  const char* type;  // "gauge" or "counter"
  double (*value)(const StageLive&);
};

// One table drives both the exposition and its golden test. Cumulative
// counters get the conventional _total suffix.
constexpr Series kStageSeries[] = {
    // A dead worker's state is the supervisor's exit description ("killed by
    // signal 9 (...)", "exited with code 2"), so liveness is membership in
    // the worker-loop state set, not a "dead" sentinel.
    {"slimpipe_stage_up", "Worker liveness (1 = worker-loop state).", "gauge",
     [](const StageLive& s) {
       return s.state == "running" || s.state == "waiting" ||
                      s.state == "done" || s.state == "starved" ||
                      s.state == "hung"
                  ? 1.0
                  : 0.0;
     }},
    {"slimpipe_stage_beat_age_seconds",
     "Run-clock seconds since the stage's last heartbeat.", "gauge",
     [](const StageLive& s) { return s.beat_age_seconds; }},
    {"slimpipe_stage_messages_total",
     "Frames processed by the worker loop.", "counter",
     [](const StageLive& s) { return static_cast<double>(s.messages); }},
    {"slimpipe_stage_forward_slices_total",
     "Forward slice passes completed.", "counter",
     [](const StageLive& s) { return static_cast<double>(s.done_f); }},
    {"slimpipe_stage_backward_slices_total",
     "Backward slice passes completed.", "counter",
     [](const StageLive& s) { return static_cast<double>(s.done_b); }},
    {"slimpipe_stage_committed_microbatches",
     "Microbatch gradients committed by this stage.", "gauge",
     [](const StageLive& s) { return static_cast<double>(s.committed); }},
    {"slimpipe_stage_live_slices", "Live slices held (paper Eq.1 window).",
     "gauge", [](const StageLive& s) { return static_cast<double>(s.live); }},
    {"slimpipe_stage_queue_depth", "Inbox queue depth.", "gauge",
     [](const StageLive& s) { return static_cast<double>(s.queue); }},
    {"slimpipe_stage_frames_out_total", "Wire frames sent on data links.",
     "counter",
     [](const StageLive& s) { return static_cast<double>(s.frames_out); }},
    {"slimpipe_stage_frames_in_total", "Wire frames received on data links.",
     "counter",
     [](const StageLive& s) { return static_cast<double>(s.frames_in); }},
    {"slimpipe_stage_bytes_out_total", "Payload bytes sent on data links.",
     "counter", [](const StageLive& s) { return s.bytes_out; }},
    {"slimpipe_stage_bytes_in_total", "Payload bytes received on data links.",
     "counter", [](const StageLive& s) { return s.bytes_in; }},
    {"slimpipe_stage_crc_rejects_total",
     "Frames rejected by CRC/framing checks.", "counter",
     [](const StageLive& s) { return static_cast<double>(s.crc_rejects); }},
    {"slimpipe_stage_send_retries_total",
     "Retransmits after injected frame drops.", "counter",
     [](const StageLive& s) { return static_cast<double>(s.retries); }},
    {"slimpipe_stage_arena_peak_bytes",
     "Concurrent arena memory high-water, bytes.", "gauge",
     [](const StageLive& s) { return s.arena_peak_bytes; }},
    {"slimpipe_stage_flight_events_total",
     "Flight-recorder events recorded by the worker.", "counter",
     [](const StageLive& s) { return static_cast<double>(s.flight_events); }},
    {"slimpipe_stage_respawns_total", "Times this stage was respawned.",
     "counter",
     [](const StageLive& s) { return static_cast<double>(s.respawns); }},
};

std::string human_bytes(double bytes) {
  const char* unit = "B";
  double v = bytes;
  if (v >= 1024.0 * 1024.0) {
    v /= 1024.0 * 1024.0;
    unit = "MiB";
  } else if (v >= 1024.0) {
    v /= 1024.0;
    unit = "KiB";
  }
  return fmt(v, v >= 100 ? 0 : 1) + unit;
}

}  // namespace

JsonValue snapshot_to_json(const LiveSnapshot& snap) {
  JsonValue root = JsonValue::make_object();
  root.set("slimpipe_live_snapshot", JsonValue::make_number(1));
  root.set("ts", JsonValue::make_number(snap.ts));
  root.set("phase", JsonValue::make_string(snap.phase));
  root.set("attempt", JsonValue::make_number(snap.attempt));
  root.set("microbatches", JsonValue::make_number(snap.microbatches));
  root.set("merged_microbatches",
           JsonValue::make_number(snap.merged_microbatches));
  JsonValue stages = JsonValue::make_array();
  for (const StageLive& s : snap.stages) stages.push_back(stage_to_json(s));
  root.set("stages", std::move(stages));
  return root;
}

bool snapshot_from_json(const JsonValue& value, LiveSnapshot* out) {
  if (!value.is_object() || out == nullptr) return false;
  if (value.find("slimpipe_live_snapshot") == nullptr) return false;
  LiveSnapshot snap;
  snap.ts = value.number_or("ts", 0.0);
  snap.phase = value.string_or("phase", "");
  snap.attempt = static_cast<int>(value.number_or("attempt", 0.0));
  snap.microbatches = static_cast<int>(value.number_or("microbatches", 0.0));
  snap.merged_microbatches =
      static_cast<int>(value.number_or("merged_microbatches", 0.0));
  const JsonValue* stages = value.find("stages");
  if (stages != nullptr) {
    if (!stages->is_array()) return false;
    for (const JsonValue& item : stages->array()) {
      if (!item.is_object()) return false;
      snap.stages.push_back(stage_from_json(item));
    }
  }
  *out = std::move(snap);
  return true;
}

std::string prometheus_text(const LiveSnapshot& snap) {
  std::ostringstream out;
  out << "# HELP slimpipe_snapshot_ts_seconds Run-clock time of this "
         "snapshot.\n";
  out << "# TYPE slimpipe_snapshot_ts_seconds gauge\n";
  out << "slimpipe_snapshot_ts_seconds " << json_number(snap.ts) << "\n";
  out << "# HELP slimpipe_attempt Respawn attempt index.\n";
  out << "# TYPE slimpipe_attempt gauge\n";
  out << "slimpipe_attempt " << snap.attempt << "\n";
  out << "# HELP slimpipe_merged_microbatches Microbatches committed on "
         "every stage.\n";
  out << "# TYPE slimpipe_merged_microbatches gauge\n";
  out << "slimpipe_merged_microbatches " << snap.merged_microbatches << "\n";
  for (const Series& series : kStageSeries) {
    out << "# HELP " << series.name << " " << series.help << "\n";
    out << "# TYPE " << series.name << " " << series.type << "\n";
    for (const StageLive& s : snap.stages) {
      out << series.name << "{stage=\"" << s.stage << "\"} "
          << json_number(series.value(s)) << "\n";
    }
  }
  return out.str();
}

std::string render_top(const LiveSnapshot& snap) {
  std::ostringstream out;
  out << "slimpipe " << snap.phase << "  t=" << fmt(snap.ts, 2) << "s"
      << "  attempt " << snap.attempt << "  merged "
      << snap.merged_microbatches << "/" << snap.microbatches << " mb\n";
  Table table({"stage", "pid", "state", "beat ms", "fwd", "bwd", "commit",
               "live", "queue", "out", "in", "crc", "retry", "arena"});
  for (const StageLive& s : snap.stages) {
    table.add_row(
        {fmt(static_cast<std::int64_t>(s.stage)),
         fmt(static_cast<std::int64_t>(s.pid)), s.state,
         fmt(s.beat_age_seconds * 1e3, 0),
         fmt(static_cast<std::int64_t>(s.done_f)) + "/" +
             fmt(static_cast<std::int64_t>(s.want_f)),
         fmt(static_cast<std::int64_t>(s.done_b)) + "/" +
             fmt(static_cast<std::int64_t>(s.want_b)),
         fmt(static_cast<std::int64_t>(s.committed)) + "/" +
             fmt(static_cast<std::int64_t>(s.committed_total)),
         fmt(static_cast<std::int64_t>(s.live)) + "/" +
             fmt(static_cast<std::int64_t>(s.live_cap)),
         fmt(static_cast<std::int64_t>(s.queue)),
         human_bytes(s.bytes_out), human_bytes(s.bytes_in),
         fmt(s.crc_rejects), fmt(s.retries),
         human_bytes(s.arena_peak_bytes)});
  }
  out << table.to_string();
  return out.str();
}

bool write_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written =
      content.empty() ? 0 : std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = (std::fclose(f) == 0) && written == content.size();
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace slim::obs

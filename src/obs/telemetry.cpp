#include "src/obs/telemetry.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>

#include "src/util/fields.hpp"
#include "src/util/table.hpp"

namespace slim::obs {

// Field lists of the snapshot records (src/util/fields.hpp). A row's keys
// name the stage's own progress and metrics members in the file's terms.

template <MaybeConst<StageLive> S, class Visit>
void fields(S& s, Visit&& visit) {
  auto& p = s.progress;
  auto& m = s.metrics;
  visit("stage", s.stage);
  visit("pid", s.pid);
  visit("state", s.state);
  visit("beat_age_seconds", s.beat_age_seconds);
  visit("messages", p.messages);
  visit("done_f", p.done_f);
  visit("want_f", p.due);
  visit("done_b", p.done_b);
  visit("want_b", p.due);
  visit("live", p.live);
  visit("live_cap", p.cap);
  visit("queue", p.queue);
  visit("last_mb", p.last_mb);
  visit("committed", p.committed);
  visit("committed_total", p.microbatches);
  visit("frames_out", m.frames_sent);
  visit("frames_in", m.frames_recv);
  visit("bytes_out", m.p2p_bytes);
  visit("bytes_in", m.bytes_recv);
  visit("crc_rejects", m.crc_rejects);
  visit("retries", m.send_retries);
  visit("arena_peak_bytes", m.measured_peak_total);
  visit("flight_events", s.flight_events);
  visit("respawns", s.respawns);
}

template <MaybeConst<LiveSnapshot> S, class Visit>
void fields(S& s, Visit&& visit) {
  visit("ts", s.ts);
  visit("phase", s.phase);
  visit("attempt", s.attempt);
  visit("microbatches", s.microbatches);
  visit("merged_microbatches", s.merged_microbatches);
  visit("stages", s.stages);
}

namespace {

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
     [](const StageLive& s) -> double { return s.progress.messages; }},
    {"slimpipe_stage_forward_slices_total",
     "Forward slice passes completed.", "counter",
     [](const StageLive& s) -> double { return s.progress.done_f; }},
    {"slimpipe_stage_backward_slices_total",
     "Backward slice passes completed.", "counter",
     [](const StageLive& s) -> double { return s.progress.done_b; }},
    {"slimpipe_stage_committed_microbatches",
     "Microbatch gradients committed by this stage.", "gauge",
     [](const StageLive& s) -> double { return s.progress.committed; }},
    {"slimpipe_stage_live_slices", "Live slices held (paper Eq.1 window).",
     "gauge", [](const StageLive& s) -> double { return s.progress.live; }},
    {"slimpipe_stage_queue_depth", "Inbox queue depth.", "gauge",
     [](const StageLive& s) -> double { return s.progress.queue; }},
    {"slimpipe_stage_frames_out_total", "Wire frames sent on data links.",
     "counter",
     [](const StageLive& s) -> double { return s.metrics.frames_sent; }},
    {"slimpipe_stage_frames_in_total", "Wire frames received on data links.",
     "counter",
     [](const StageLive& s) -> double { return s.metrics.frames_recv; }},
    {"slimpipe_stage_bytes_out_total", "Payload bytes sent on data links.",
     "counter", [](const StageLive& s) { return s.metrics.p2p_bytes; }},
    {"slimpipe_stage_bytes_in_total", "Payload bytes received on data links.",
     "counter", [](const StageLive& s) { return s.metrics.bytes_recv; }},
    {"slimpipe_stage_crc_rejects_total",
     "Frames rejected by CRC/framing checks.", "counter",
     [](const StageLive& s) -> double { return s.metrics.crc_rejects; }},
    {"slimpipe_stage_send_retries_total",
     "Retransmits after injected frame drops.", "counter",
     [](const StageLive& s) -> double { return s.metrics.send_retries; }},
    {"slimpipe_stage_arena_peak_bytes",
     "Concurrent arena memory high-water, bytes.", "gauge",
     [](const StageLive& s) { return s.metrics.measured_peak_total; }},
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

// The marker member, first in the file, tells a snapshot from other JSON.
JsonValue snapshot_to_json(const LiveSnapshot& snap) {
  JsonValue root = JsonValue::make_object();
  root.set("slimpipe_live_snapshot", JsonValue::make_number(1));
  fields(snap, JsonWriter(root));
  return root;
}

bool snapshot_from_json(const JsonValue& value, LiveSnapshot* out) {
  return value.find("slimpipe_live_snapshot") != nullptr &&
         from_json(value, out);
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

std::string stage_table(const std::vector<StageLive>& rows) {
  auto count = [](std::int64_t n) { return fmt(n); };
  auto ratio = [](std::int64_t done, std::int64_t of) {
    return fmt(done) + "/" + fmt(of);
  };
  Table table({"stage", "state", "pid", "age ms", "messages", "fwd", "bwd",
               "live", "queue", "last mb", "commit", "out", "in", "crc",
               "retry", "arena"});
  for (const StageLive& s : rows) {
    const StageProgress& p = s.progress;
    const StageMetrics& m = s.metrics;
    table.add_row({count(s.stage), s.state,
                   s.pid > 0 ? count(s.pid) : "-",
                   fmt(s.beat_age_seconds * 1e3, 0), count(p.messages),
                   ratio(p.done_f, p.due), ratio(p.done_b, p.due),
                   ratio(p.live, p.cap), count(p.queue),
                   p.last_mb < 0 ? "-" : count(p.last_mb),
                   ratio(p.committed, p.microbatches),
                   human_bytes(m.p2p_bytes), human_bytes(m.bytes_recv),
                   count(m.crc_rejects), count(m.send_retries),
                   human_bytes(m.measured_peak_total)});
  }
  return table.to_string();
}

std::string render_top(const LiveSnapshot& snap) {
  std::ostringstream out;
  out << "slimpipe " << snap.phase << "  t=" << fmt(snap.ts, 2) << "s"
      << "  attempt " << snap.attempt << "  merged "
      << snap.merged_microbatches << "/" << snap.microbatches << " mb\n";
  out << stage_table(snap.stages);
  return out.str();
}

bool write_atomic(const std::string& path, const std::string& content) {
  // Only a regular file (or nothing) is replaced by a rename: renaming over
  // a FIFO or a device such as /dev/null would swap the node for a file.
  // Those are written in place, opened without blocking so that a FIFO
  // nobody reads fails at once instead of stalling the caller.
  struct stat st {};
  const bool in_place = ::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
  const std::string target = in_place ? path : path + ".tmp";
  const int fd = ::open(target.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC |
                            (in_place ? O_NONBLOCK : 0),
                        0666);
  if (fd < 0) return false;
  if (in_place) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  std::FILE* f = ::fdopen(fd, "wb");
  if (f == nullptr) {
    ::close(fd);
    return false;
  }
  const std::size_t written =
      content.empty() ? 0 : std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = (std::fclose(f) == 0) && written == content.size();
  if (in_place) return ok;
  if (!ok) {
    std::remove(target.c_str());
    return false;
  }
  return std::rename(target.c_str(), path.c_str()) == 0;
}

}  // namespace slim::obs

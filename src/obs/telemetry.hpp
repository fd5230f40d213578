#pragma once

// A runtime stage's status and the live views built from it.
//
// Every stage reports one StageStatus (progress, metrics, injected delay,
// flight tail): a process worker in each heartbeat and its Done frame, the
// threaded runtime from its run record; the replay loop folds it. A
// StageLive row adds what only the supervisor knows, and one table,
// stage_table, prints the rows for the threaded watchdog, the process
// postmortem and `slimpipe_top`. The multi-process supervisor publishes
// its rows as a LiveSnapshot on a fixed cadence:
//
//   * a JSON snapshot file (atomic rename) that `slimpipe_top` tails for a
//     live terminal view, and
//   * a Prometheus-style text exposition (# HELP/# TYPE + one series per
//     stage) for scrape-based monitoring.
//
// Timestamps are seconds on the run's monotonic epoch (obs/clock.hpp).

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/flight_recorder.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"

namespace slim::obs {

/// What one stage reports about itself: a heartbeat's and a Done frame's
/// payload, and what the replay loop folds for each stage and attempt.
struct StageStatus {
  StageProgress progress;  // as last published
  StageMetrics metrics;    // this attempt's so far
  double injected_delay_seconds = 0.0;  // transport delay the plan injected
  std::vector<FlightEvent> flight;      // the flight recorder's tail
};

/// One stage's row of the per-stage table and of a live snapshot: the
/// stage's own progress and metrics beside what the supervisor adds.
struct StageLive {
  int stage = 0;
  std::int64_t pid = 0;           // 0: a thread of this process
  std::string state;              // a StageState name, or how a worker exited
  double beat_age_seconds = 0.0;  // run-clock seconds since its last status
  std::int64_t flight_events = 0;  // flight-recorder events recorded so far
  std::int64_t respawns = 0;       // times this stage was respawned
  StageProgress progress;
  StageMetrics metrics;
};

struct LiveSnapshot {
  double ts = 0.0;      // run-clock seconds
  std::string phase;    // "running" | "draining" | "done" | "failed"
  int attempt = 0;      // respawn attempt index
  int microbatches = 0;
  int merged_microbatches = 0;  // committed across all stages (min over)
  std::vector<StageLive> stages;
};

JsonValue snapshot_to_json(const LiveSnapshot& snap);
bool snapshot_from_json(const JsonValue& value, LiveSnapshot* out);

/// Prometheus text exposition format, version 0.0.4: `# HELP`/`# TYPE`
/// headers plus one `slimpipe_*{stage="N"}` series per stage per metric.
std::string prometheus_text(const LiveSnapshot& snap);

/// The per-stage table: one row per StageLive, stage and state first, then
/// pid, status age and the stage's own progress and metrics.
std::string stage_table(const std::vector<StageLive>& rows);

/// One terminal frame for the `slimpipe_top` live view (plain text: a
/// header line and the per-stage table; no ANSI escapes — the tool owns
/// cursor control).
std::string render_top(const LiveSnapshot& snap);

/// Writes `content` to `path` via a sibling temp file + rename so readers
/// never observe a torn snapshot. A path that names something other than a
/// regular file (a FIFO, a device such as /dev/null) is written in place
/// instead, so the node stays what it is. Returns false on any I/O failure.
bool write_atomic(const std::string& path, const std::string& content);

}  // namespace slim::obs

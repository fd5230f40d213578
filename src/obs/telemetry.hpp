#pragma once

// Live telemetry snapshots for the multi-process runtime.
//
// The supervisor folds every worker's heartbeat counters (per-channel
// bytes/frames/CRC rejects/retries, queue depths, committed-microbatch
// progress, arena peaks) into a LiveSnapshot and publishes it two ways on a
// fixed cadence:
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

#include "src/obs/json.hpp"

namespace slim::obs {

/// Per-stage live state, as of the worker's most recent heartbeat.
struct StageLive {
  int stage = 0;
  std::int64_t pid = 0;
  std::string state;             // worker-reported loop state
  double beat_age_seconds = 0.0; // run-clock seconds since the last beat
  std::int64_t messages = 0;     // frames processed by the worker loop

  // Progress.
  std::int32_t done_f = 0, want_f = 0;  // forward slices done / total
  std::int32_t done_b = 0, want_b = 0;  // backward slices done / total
  std::int32_t live = 0, live_cap = 0;  // live slices vs Eq.1 cap
  std::int32_t queue = 0;               // inbox depth
  std::int32_t committed = 0, committed_total = 0;  // microbatches

  // Per-channel wire counters, summed over the worker's links.
  std::int64_t frames_out = 0, frames_in = 0;
  double bytes_out = 0.0, bytes_in = 0.0;
  std::int64_t crc_rejects = 0, retries = 0;

  double arena_peak_bytes = 0.0;  // concurrent arena high-water

  std::int64_t flight_events = 0;  // flight-recorder events recorded so far
  std::int64_t respawns = 0;       // times this stage was respawned
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

/// One terminal frame for the `slimpipe_top` live view (plain text, aligned
/// table + header line; no ANSI escapes — the tool owns cursor control).
std::string render_top(const LiveSnapshot& snap);

/// Writes `content` to `path` via a sibling temp file + rename so readers
/// never observe a torn snapshot. Returns false on any I/O failure.
bool write_atomic(const std::string& path, const std::string& content);

}  // namespace slim::obs

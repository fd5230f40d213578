#pragma once

// Unified tracing model shared by both execution substrates.
//
// A Trace is a flat collection of spans (timed intervals on a track),
// instants (point markers: faults, commits, recoveries), counter samples
// (queue depths) and flow points (cross-track send→recv links). The
// simulator converts an executed OpGraph into a Trace (trace_from_sim); the
// threaded runtime fills one live through the thread-safe Recorder. One
// exporter (chrome_trace_json) renders either to Chrome/catapult JSON for
// chrome://tracing, with flow arrows between devices and fault/recovery
// markers on the timeline.
//
// Track convention: pipeline device/stage d uses track d; auxiliary
// resources (communication channels, NICs, PCIe engines) use
// kAuxTrackBase + resource id so they never collide with compute rows.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/fault/fault_plan.hpp"
#include "src/obs/clock.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/graph.hpp"

namespace slim::obs {

inline constexpr int kAuxTrackBase = 1000;

/// Event categories (Chrome "cat" field; also used by the metrics layer to
/// classify spans).
inline constexpr const char* kCatCompute = "compute";
inline constexpr const char* kCatComm = "comm";
inline constexpr const char* kCatHost = "host";
inline constexpr const char* kCatFault = "fault";
inline constexpr const char* kCatCommit = "commit";

struct TraceSpan {
  int track = 0;
  double start = 0.0;  // seconds
  double end = 0.0;
  std::string name;
  std::string cat;
  std::int32_t microbatch = -1;
  std::int32_t slice = -1;
  std::int32_t stage = -1;
};

struct TraceInstant {
  int track = 0;
  double ts = 0.0;
  std::string name;
  std::string cat;
  std::string detail;  // exported as args.detail when non-empty
};

struct TraceCounter {
  int track = 0;
  double ts = 0.0;
  std::string name;
  double value = 0.0;
};

/// One endpoint of a flow arrow; a flow id must appear with begin=true
/// exactly once and begin=false at least once for the arrow to render.
struct TraceFlowPoint {
  std::int64_t id = -1;
  int track = 0;
  double ts = 0.0;
  bool begin = true;
  std::string name;
};

struct Trace {
  std::map<int, std::string> track_names;
  // Multi-process runs map each track to the OS process that produced it so
  // the Chrome exporter renders real per-process groups (Perfetto collapses
  // everything sharing a pid into one process lane). Tracks without an entry
  // default to pid 0 — the recording (supervisor) process.
  std::map<int, std::int64_t> track_pids;
  std::map<std::int64_t, std::string> process_names;
  std::vector<TraceSpan> spans;
  std::vector<TraceInstant> instants;
  std::vector<TraceCounter> counters;
  std::vector<TraceFlowPoint> flows;

  /// Chrome pid for a track (0 unless set_track_pid said otherwise).
  std::int64_t pid_of(int track) const {
    auto it = track_pids.find(track);
    return it == track_pids.end() ? 0 : it->second;
  }

  bool empty() const {
    return spans.empty() && instants.empty() && counters.empty() &&
           flows.empty();
  }
};

/// Thread-safe event recorder for both runtimes. All mutations take one
/// mutex; callers gate every call on a plain pointer check so a disabled
/// trace costs nothing. Timestamps are seconds since construction on the
/// MonoClock (see obs/clock.hpp — this epoch is THE run epoch, which forked
/// stage workers inherit), matching the simulator's zero-based timeline.
class Recorder {
 public:
  Recorder();

  /// Seconds elapsed since the recorder was constructed.
  double now() const;
  /// The run epoch: the recorder's construction time.
  MonoClock::time_point epoch() const { return epoch_; }

  void set_track_name(int track, std::string name);
  void set_track_pid(int track, std::int64_t pid);
  void set_process_name(std::int64_t pid, std::string name);
  void span(int track, std::string name, std::string cat, double start,
            double end, std::int32_t microbatch = -1, std::int32_t slice = -1,
            std::int32_t stage = -1);
  /// An instant at now(); instant_at takes a caller-stamped time (e.g. a
  /// stage worker's record, already on the run clock).
  void instant(int track, std::string name, std::string cat,
               std::string detail = {});
  void instant_at(int track, double ts, std::string name, std::string cat,
                  std::string detail = {});
  void counter(int track, std::string name, double value);

  /// Opens a flow arrow at (track, now); returns the id the receiving side
  /// passes to end_flow. Ids are unique per recorder.
  std::int64_t begin_flow(int track, std::string name);
  void end_flow(std::int64_t id, int track, double ts);

  /// Adds a flow endpoint with a caller-chosen id and timestamp. Used by the
  /// multi-process supervisor, where both endpoints derive the same id
  /// deterministically (dist::wire_flow_id) without coordinating — explicit
  /// ids start at a high base so they never collide with begin_flow's.
  void flow_point(std::int64_t id, int track, double ts, bool begin,
                  std::string name);

  /// Moves the accumulated trace out (the recorder keeps running).
  Trace take();

  /// Copies the accumulated trace (e.g. to export mid-run).
  Trace snapshot() const;

 private:
  mutable std::mutex mutex_;
  Trace trace_;
  std::atomic<std::int64_t> next_flow_{0};
  MonoClock::time_point epoch_;
};

/// Converts an executed simulator graph into a Trace: compute ops become
/// spans on their device track, transfers become spans on per-resource
/// channel/NIC tracks plus flow arrows from the transfer to every dependent
/// op on the receiving device, PCIe copies land on host tracks.
Trace trace_from_sim(const sim::OpGraph& graph, const sim::ExecResult& result);

/// Appends fault/recovery events as instant markers. Events carry the
/// simulated time where the substrate recorded one (crashes); events without
/// a meaningful time (plan-wide stragglers) are pinned at t=0 on the
/// affected device's track.
void append_fault_events(Trace& trace,
                         const std::vector<fault::FaultEvent>& events);

/// Chrome trace event JSON ("catapult" format). Every string goes through
/// json_escape; spans emit "X" events with mb/slice/stage args, instants
/// "i", counters "C", flows "s"/"f", track names thread_name metadata and
/// process names process_name metadata. Every event carries the pid of the
/// process that produced its track (Trace::pid_of), so multi-process runs
/// render as separate process groups in Perfetto.
std::string chrome_trace_json(const Trace& trace);

}  // namespace slim::obs

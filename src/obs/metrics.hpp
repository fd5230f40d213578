#pragma once

// Metrics registry: one per-stage/per-device record shape (StageMetrics)
// filled by BOTH execution substrates — from an executed simulator OpGraph
// (metrics_from_sim) and, in the threaded and multi-process runtimes, by
// rt::drive_stage and its transport link, one record per attempt, folded
// with StageMetrics::fold. sched::ScheduleResult and rt::PipelineStats both
// carry a RunMetrics so the same analysis/report code consumes either.
// Beside it, a runtime stage's progress (StageProgress), which the same
// loop publishes after every message; obs/telemetry.hpp pairs the two as
// the stage's status.

#include <cstdint>
#include <string>
#include <vector>

#include "src/memory/tracker.hpp"
#include "src/obs/json.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/graph.hpp"
#include "src/util/fields.hpp"

namespace slim::obs {

/// Lifecycle of one runtime stage, thread or process: the state column of
/// the per-stage table.
enum class StageState : int {
  Running = 0,
  Waiting,  // blocked waiting for arrivals
  Done,
  Starved,  // the watchdog fired, or the next row's sender is gone
  Hung,     // injected hang: parked
  Crashed,  // a worker thread threw
  Aborted,  // a worker thread unwound by channel poisoning
};

const char* stage_state_name(StageState state);

/// One runtime stage's progress, published after every message.
struct StageProgress {
  StageState state = StageState::Running;
  std::int64_t messages = 0;  // rows and vocabulary messages picked
  int done_f = 0, done_b = 0;
  int due = 0;             // forward (= backward) slices this stage runs
  int live = 0, cap = 0;   // live slices vs the table's Eq. 1 peak
  int queue = 0;           // arrivals waiting for their row
  int committed = 0, microbatches = 0;
  int last_mb = -1;        // microbatch of the last picked message
  double at = 0.0;         // run-clock seconds of the publish
};

/// Per-device (== per-pipeline-stage) breakdown for one iteration.
/// Discrete fields (peak_live_slices, p2p_messages) are schedule-shape
/// invariants and match exactly between substrates; timing fields follow
/// each substrate's own clock (cost model vs wall clock).
struct StageMetrics {
  int device = 0;

  double compute_seconds = 0.0;       // busy on fwd/bwd/recompute/vocab/optim
  double comm_seconds = 0.0;          // p2p/exchange/collective occupancy
  double idle_seconds = 0.0;          // makespan - compute (the bubble)
  double bubble_fraction = 0.0;       // idle / makespan

  int peak_live_slices = 0;           // paper Eq.1 bound: n + 2(p-1-r)
  std::int64_t p2p_messages = 0;      // cross-device messages sent
  double p2p_bytes = 0.0;             // payload volume sent
  double exchange_bytes = 0.0;        // context-exchange share of p2p_bytes

  double blocked_recv_seconds = 0.0;  // runtime: time blocked inside recv
  int peak_queue_depth = 0;           // runtime: arrival-FIFO high-water
  double peak_memory_bytes = 0.0;     // memory high-water (sim replay)

  // Transport-level counters (filled by both runtime backends so the two
  // substrates stay comparable: wire frames over sockets for src/dist,
  // channel messages for the threaded runtime; zero in the simulator).
  std::int64_t frames_sent = 0;
  std::int64_t frames_recv = 0;
  double bytes_recv = 0.0;            // payload volume received
  std::int64_t crc_rejects = 0;       // corrupt frames discarded (dist only)
  std::int64_t send_retries = 0;      // injected-drop retransmits (dist only)

  // Runtime-measured arena high-water marks, one slot per mem::Category
  // (empty when arenas were not enabled). measured_peak_total is the true
  // concurrent high-water across all of the stage's arenas, not the sum of
  // per-category peaks.
  std::vector<double> measured_peak_bytes;
  double measured_peak_total = 0.0;

  /// Folds one runtime attempt's record into this one: seconds, counts and
  /// volumes add up, peaks take the maximum. Idle time and the bubble
  /// fraction are left alone (RunMetrics::set_idle_from_makespan derives
  /// them once every attempt is in).
  void fold(const StageMetrics& attempt);
};

struct RunMetrics {
  std::string substrate;  // "sim" or "runtime"
  std::string scheme;     // schedule scheme label
  double makespan = 0.0;  // seconds (simulated or wall-clock)
  std::vector<StageMetrics> stages;

  double mean_bubble_fraction() const;
  /// Measured runtimes: every stage's idle time (makespan minus compute,
  /// floored at zero) and bubble fraction of the wall-clock makespan.
  void set_idle_from_makespan();
  std::int64_t total_p2p_messages() const;
};

/// StageMetrics' field list (src/util/fields.hpp), walked by the worker
/// wire (src/dist/wire.cpp) and by the run metrics JSON. The JSON carries
/// the arena peaks only when they were measured.
template <MaybeConst<StageMetrics> M, class Visit>
void fields(M& m, Visit&& visit) {
  visit("device", m.device);
  visit("compute_seconds", m.compute_seconds);
  visit("comm_seconds", m.comm_seconds);
  visit("idle_seconds", m.idle_seconds);
  visit("bubble_fraction", m.bubble_fraction);
  visit("peak_live_slices", m.peak_live_slices);
  visit("p2p_messages", m.p2p_messages);
  visit("p2p_bytes", m.p2p_bytes);
  visit("exchange_bytes", m.exchange_bytes);
  visit("blocked_recv_seconds", m.blocked_recv_seconds);
  visit("peak_queue_depth", m.peak_queue_depth);
  visit("peak_memory_bytes", m.peak_memory_bytes);
  visit("frames_sent", m.frames_sent);
  visit("frames_recv", m.frames_recv);
  visit("bytes_recv", m.bytes_recv);
  visit("crc_rejects", m.crc_rejects);
  visit("send_retries", m.send_retries);
  const InJson measured{!m.measured_peak_bytes.empty()};
  visit("measured_peak_bytes", m.measured_peak_bytes, measured);
  visit("measured_peak_total", m.measured_peak_total, measured);
}

/// RunMetrics' field list: the run metrics JSON, also nested in every
/// bench report run.
template <MaybeConst<RunMetrics> R, class Visit>
void fields(R& r, Visit&& visit) {
  visit("substrate", r.substrate);
  visit("scheme", r.scheme);
  visit("makespan", r.makespan);
  visit("stages", r.stages);
}

/// Computes per-device metrics from an executed simulator graph. Comm
/// seconds attribute channel occupancy to the *sending* device. Peak live
/// slices replays forward-start (+1) / first-backward-end (-1) per
/// (device, microbatch, slice). `memory` optionally supplies the per-device
/// high-water marks from a mem::replay_memory pass.
RunMetrics metrics_from_sim(const sim::OpGraph& graph,
                            const sim::ExecResult& result, int num_devices,
                            const mem::MemoryReport* memory = nullptr);

JsonValue run_metrics_to_json(const RunMetrics& metrics);
bool run_metrics_from_json(const JsonValue& value, RunMetrics* out);

}  // namespace slim::obs

#pragma once

// Metrics registry: one per-stage/per-device record shape (StageMetrics)
// filled by BOTH execution substrates — from an executed simulator OpGraph
// (metrics_from_sim) and, in the threaded and multi-process runtimes, from
// the probes each stage owns. sched::ScheduleResult and rt::PipelineStats
// both carry a RunMetrics so the same analysis/report code consumes either.

#include <string>
#include <vector>

#include "src/memory/tracker.hpp"
#include "src/obs/json.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/graph.hpp"

namespace slim::obs {

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
  int peak_queue_depth = 0;           // runtime: inbox high-water mark
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
};

struct RunMetrics {
  std::string substrate;  // "sim" or "runtime"
  std::string scheme;     // schedule scheme label
  double makespan = 0.0;  // seconds (simulated or wall-clock)
  std::vector<StageMetrics> stages;

  double mean_bubble_fraction() const;
  int max_peak_live_slices() const;
  /// Measured runtimes: every stage's idle time (makespan minus compute,
  /// floored at zero) and bubble fraction of the wall-clock makespan.
  void set_idle_from_makespan();
  std::int64_t total_p2p_messages() const;
  double total_p2p_bytes() const;
};

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

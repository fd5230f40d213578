#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>

namespace slim::obs {

const char* stage_state_name(StageState state) {
  switch (state) {
    case StageState::Running: return "running";
    case StageState::Waiting: return "waiting";
    case StageState::Done: return "done";
    case StageState::Starved: return "starved";
    case StageState::Hung: return "hung";
    case StageState::Crashed: return "crashed";
    case StageState::Aborted: return "aborted";
  }
  return "?";
}

void StageMetrics::fold(const StageMetrics& attempt) {
  compute_seconds += attempt.compute_seconds;
  comm_seconds += attempt.comm_seconds;
  blocked_recv_seconds += attempt.blocked_recv_seconds;
  p2p_messages += attempt.p2p_messages;
  p2p_bytes += attempt.p2p_bytes;
  exchange_bytes += attempt.exchange_bytes;
  frames_sent += attempt.frames_sent;
  frames_recv += attempt.frames_recv;
  bytes_recv += attempt.bytes_recv;
  crc_rejects += attempt.crc_rejects;
  send_retries += attempt.send_retries;
  peak_live_slices = std::max(peak_live_slices, attempt.peak_live_slices);
  peak_queue_depth = std::max(peak_queue_depth, attempt.peak_queue_depth);
  peak_memory_bytes = std::max(peak_memory_bytes, attempt.peak_memory_bytes);
  if (measured_peak_bytes.size() < attempt.measured_peak_bytes.size()) {
    measured_peak_bytes.resize(attempt.measured_peak_bytes.size(), 0.0);
  }
  for (std::size_t c = 0; c < attempt.measured_peak_bytes.size(); ++c) {
    measured_peak_bytes[c] =
        std::max(measured_peak_bytes[c], attempt.measured_peak_bytes[c]);
  }
  measured_peak_total =
      std::max(measured_peak_total, attempt.measured_peak_total);
}

double RunMetrics::mean_bubble_fraction() const {
  if (stages.empty()) return 0.0;
  double sum = 0.0;
  for (const StageMetrics& s : stages) sum += s.bubble_fraction;
  return sum / static_cast<double>(stages.size());
}

void RunMetrics::set_idle_from_makespan() {
  for (StageMetrics& s : stages) {
    s.idle_seconds = std::max(0.0, makespan - s.compute_seconds);
    s.bubble_fraction = makespan > 0.0 ? s.idle_seconds / makespan : 0.0;
  }
}

std::int64_t RunMetrics::total_p2p_messages() const {
  std::int64_t total = 0;
  for (const StageMetrics& s : stages) total += s.p2p_messages;
  return total;
}

namespace {

bool is_forward_class(sim::OpClass cls) {
  return cls == sim::OpClass::Forward;
}

bool is_backward_release_class(sim::OpClass cls) {
  // A slice's activations/KV die when its backward (or the input-grad half
  // under ZB-V splitting) completes; BackwardWeight reuses saved tensors
  // but does not extend the slice's liveness window here.
  return cls == sim::OpClass::Backward || cls == sim::OpClass::BackwardInput;
}

/// Replays live-slice counts per device: +1 at each forward start, -1 at the
/// matching backward end (first release op per (device, mb, slice)). At equal
/// timestamps releases apply before acquisitions — the steady-state 1F1B
/// handoff frees before it allocates.
std::vector<int> peak_live_slices(const sim::OpGraph& graph,
                                  const sim::ExecResult& result,
                                  int num_devices) {
  struct Ev {
    double t;
    int device;
    int delta;  // -1 sorts before +1 at equal t
  };
  std::vector<Ev> events;
  std::map<std::tuple<int, std::int32_t, std::int32_t>, bool> released;
  for (const sim::Op& op : graph.ops()) {
    if (op.device < 0 || op.device >= num_devices) continue;
    if (op.microbatch < 0 || op.slice < 0) continue;
    const sim::OpTiming& t = result.timings[static_cast<std::size_t>(op.id)];
    if (is_forward_class(op.cls)) {
      events.push_back({t.start, op.device, +1});
    } else if (is_backward_release_class(op.cls)) {
      bool& done = released[{op.device, op.microbatch, op.slice}];
      if (!done) {
        done = true;
        events.push_back({t.end, op.device, -1});
      }
    }
  }
  std::sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.delta < b.delta;
  });
  std::vector<int> live(static_cast<std::size_t>(num_devices), 0);
  std::vector<int> peak(static_cast<std::size_t>(num_devices), 0);
  for (const Ev& ev : events) {
    live[static_cast<std::size_t>(ev.device)] += ev.delta;
    peak[static_cast<std::size_t>(ev.device)] =
        std::max(peak[static_cast<std::size_t>(ev.device)],
                 live[static_cast<std::size_t>(ev.device)]);
  }
  return peak;
}

}  // namespace

RunMetrics metrics_from_sim(const sim::OpGraph& graph,
                            const sim::ExecResult& result, int num_devices,
                            const mem::MemoryReport* memory) {
  RunMetrics metrics;
  metrics.substrate = "sim";
  metrics.makespan = result.makespan;
  metrics.stages.resize(static_cast<std::size_t>(num_devices));
  for (int d = 0; d < num_devices; ++d) {
    metrics.stages[static_cast<std::size_t>(d)].device = d;
  }

  for (const sim::Op& op : graph.ops()) {
    if (op.device < 0 || op.device >= num_devices) continue;
    StageMetrics& stage = metrics.stages[static_cast<std::size_t>(op.device)];
    const sim::OpTiming& t = result.timings[static_cast<std::size_t>(op.id)];
    const double dur = t.end - t.start;
    if (sim::is_compute_class(op.cls)) {
      stage.compute_seconds += dur;
    } else if (op.cls == sim::OpClass::Send ||
               op.cls == sim::OpClass::ExchangeSend ||
               op.cls == sim::OpClass::Collective) {
      stage.comm_seconds += dur;
      if (op.peer >= 0) {
        stage.p2p_messages += 1;
        stage.p2p_bytes += op.bytes;
        if (op.cls == sim::OpClass::ExchangeSend) {
          stage.exchange_bytes += op.bytes;
        }
      }
    }
  }

  const std::vector<int> peaks = peak_live_slices(graph, result, num_devices);
  for (int d = 0; d < num_devices; ++d) {
    StageMetrics& stage = metrics.stages[static_cast<std::size_t>(d)];
    stage.peak_live_slices = peaks[static_cast<std::size_t>(d)];
    stage.idle_seconds =
        std::max(0.0, result.makespan - stage.compute_seconds);
    stage.bubble_fraction =
        result.makespan > 0.0 ? stage.idle_seconds / result.makespan : 0.0;
    if (memory != nullptr &&
        d < static_cast<int>(memory->devices.size())) {
      stage.peak_memory_bytes =
          memory->devices[static_cast<std::size_t>(d)].peak;
    }
  }
  return metrics;
}

JsonValue run_metrics_to_json(const RunMetrics& metrics) {
  return to_json(metrics);
}

bool run_metrics_from_json(const JsonValue& value, RunMetrics* out) {
  return from_json(value, out);
}

}  // namespace slim::obs

#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>

namespace slim::obs {

double RunMetrics::mean_bubble_fraction() const {
  if (stages.empty()) return 0.0;
  double sum = 0.0;
  for (const StageMetrics& s : stages) sum += s.bubble_fraction;
  return sum / static_cast<double>(stages.size());
}

int RunMetrics::max_peak_live_slices() const {
  int peak = 0;
  for (const StageMetrics& s : stages) {
    peak = std::max(peak, s.peak_live_slices);
  }
  return peak;
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

double RunMetrics::total_p2p_bytes() const {
  double total = 0.0;
  for (const StageMetrics& s : stages) total += s.p2p_bytes;
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

RunMetrics metrics_from_trace(const Trace& trace, int num_devices) {
  RunMetrics metrics;
  metrics.substrate = "runtime";
  metrics.stages.resize(static_cast<std::size_t>(num_devices));
  for (int d = 0; d < num_devices; ++d) {
    metrics.stages[static_cast<std::size_t>(d)].device = d;
  }

  double makespan = 0.0;
  for (const TraceSpan& span : trace.spans) {
    makespan = std::max(makespan, span.end);
    const int device =
        span.track >= kAuxTrackBase ? -1 : span.track;
    if (device < 0 || device >= num_devices) continue;
    StageMetrics& stage = metrics.stages[static_cast<std::size_t>(device)];
    const double dur = std::max(0.0, span.end - span.start);
    if (span.cat == kCatComm) {
      stage.comm_seconds += dur;
    } else if (span.cat == kCatCompute || span.cat == kCatCommit) {
      stage.compute_seconds += dur;
    }
  }
  metrics.makespan = makespan;
  for (StageMetrics& stage : metrics.stages) {
    stage.idle_seconds = std::max(0.0, makespan - stage.compute_seconds);
    stage.bubble_fraction =
        makespan > 0.0 ? stage.idle_seconds / makespan : 0.0;
  }
  return metrics;
}

JsonValue run_metrics_to_json(const RunMetrics& metrics) {
  JsonValue root = JsonValue::make_object();
  root.set("substrate", JsonValue::make_string(metrics.substrate));
  root.set("scheme", JsonValue::make_string(metrics.scheme));
  root.set("makespan", JsonValue::make_number(metrics.makespan));
  JsonValue stages = JsonValue::make_array();
  for (const StageMetrics& s : metrics.stages) {
    JsonValue stage = JsonValue::make_object();
    stage.set("device", JsonValue::make_number(s.device));
    stage.set("compute_seconds", JsonValue::make_number(s.compute_seconds));
    stage.set("comm_seconds", JsonValue::make_number(s.comm_seconds));
    stage.set("idle_seconds", JsonValue::make_number(s.idle_seconds));
    stage.set("bubble_fraction", JsonValue::make_number(s.bubble_fraction));
    stage.set("peak_live_slices", JsonValue::make_number(s.peak_live_slices));
    stage.set("p2p_messages",
              JsonValue::make_number(static_cast<double>(s.p2p_messages)));
    stage.set("p2p_bytes", JsonValue::make_number(s.p2p_bytes));
    stage.set("exchange_bytes", JsonValue::make_number(s.exchange_bytes));
    stage.set("blocked_recv_seconds",
              JsonValue::make_number(s.blocked_recv_seconds));
    stage.set("peak_queue_depth",
              JsonValue::make_number(s.peak_queue_depth));
    stage.set("peak_memory_bytes",
              JsonValue::make_number(s.peak_memory_bytes));
    stage.set("frames_sent",
              JsonValue::make_number(static_cast<double>(s.frames_sent)));
    stage.set("frames_recv",
              JsonValue::make_number(static_cast<double>(s.frames_recv)));
    stage.set("bytes_recv", JsonValue::make_number(s.bytes_recv));
    stage.set("crc_rejects",
              JsonValue::make_number(static_cast<double>(s.crc_rejects)));
    stage.set("send_retries",
              JsonValue::make_number(static_cast<double>(s.send_retries)));
    stage.set("clock_offset_seconds",
              JsonValue::make_number(s.clock_offset_seconds));
    stage.set("clock_uncertainty_seconds",
              JsonValue::make_number(s.clock_uncertainty_seconds));
    stage.set("clock_samples",
              JsonValue::make_number(static_cast<double>(s.clock_samples)));
    if (!s.measured_peak_bytes.empty()) {
      JsonValue measured = JsonValue::make_array();
      for (const double b : s.measured_peak_bytes) {
        measured.push_back(JsonValue::make_number(b));
      }
      stage.set("measured_peak_bytes", std::move(measured));
      stage.set("measured_peak_total",
                JsonValue::make_number(s.measured_peak_total));
    }
    stages.push_back(std::move(stage));
  }
  root.set("stages", std::move(stages));
  return root;
}

bool run_metrics_from_json(const JsonValue& value, RunMetrics* out) {
  if (!value.is_object() || out == nullptr) return false;
  RunMetrics metrics;
  metrics.substrate = value.string_or("substrate", "");
  metrics.scheme = value.string_or("scheme", "");
  metrics.makespan = value.number_or("makespan", 0.0);
  const JsonValue* stages = value.find("stages");
  if (stages != nullptr && stages->is_array()) {
    for (const JsonValue& item : stages->array()) {
      if (!item.is_object()) return false;
      StageMetrics s;
      s.device = static_cast<int>(item.number_or("device", 0.0));
      s.compute_seconds = item.number_or("compute_seconds", 0.0);
      s.comm_seconds = item.number_or("comm_seconds", 0.0);
      s.idle_seconds = item.number_or("idle_seconds", 0.0);
      s.bubble_fraction = item.number_or("bubble_fraction", 0.0);
      s.peak_live_slices =
          static_cast<int>(item.number_or("peak_live_slices", 0.0));
      s.p2p_messages =
          static_cast<std::int64_t>(item.number_or("p2p_messages", 0.0));
      s.p2p_bytes = item.number_or("p2p_bytes", 0.0);
      s.exchange_bytes = item.number_or("exchange_bytes", 0.0);
      s.blocked_recv_seconds = item.number_or("blocked_recv_seconds", 0.0);
      s.peak_queue_depth =
          static_cast<int>(item.number_or("peak_queue_depth", 0.0));
      s.peak_memory_bytes = item.number_or("peak_memory_bytes", 0.0);
      s.frames_sent =
          static_cast<std::int64_t>(item.number_or("frames_sent", 0.0));
      s.frames_recv =
          static_cast<std::int64_t>(item.number_or("frames_recv", 0.0));
      s.bytes_recv = item.number_or("bytes_recv", 0.0);
      s.crc_rejects =
          static_cast<std::int64_t>(item.number_or("crc_rejects", 0.0));
      s.send_retries =
          static_cast<std::int64_t>(item.number_or("send_retries", 0.0));
      s.clock_offset_seconds = item.number_or("clock_offset_seconds", 0.0);
      s.clock_uncertainty_seconds =
          item.number_or("clock_uncertainty_seconds", 0.0);
      s.clock_samples =
          static_cast<std::int64_t>(item.number_or("clock_samples", 0.0));
      const JsonValue* measured = item.find("measured_peak_bytes");
      if (measured != nullptr && measured->is_array()) {
        for (const JsonValue& b : measured->array()) {
          if (!b.is_number()) return false;
          s.measured_peak_bytes.push_back(b.number());
        }
        s.measured_peak_total = item.number_or("measured_peak_total", 0.0);
      }
      metrics.stages.push_back(s);
    }
  }
  *out = std::move(metrics);
  return true;
}

}  // namespace slim::obs

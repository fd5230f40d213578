#include "src/obs/trace.hpp"

#include <iterator>
#include <sstream>
#include <utility>

#include "src/obs/json.hpp"

namespace slim::obs {

namespace {

std::string op_span_name(const sim::Op& op) {
  std::ostringstream name;
  name << sim::op_class_name(op.cls);
  if (op.microbatch >= 0) name << " mb" << op.microbatch;
  if (op.slice >= 0) name << " s" << op.slice;
  if (op.stage >= 0) name << " st" << op.stage;
  return name.str();
}

bool is_transfer_class(sim::OpClass cls) {
  return cls == sim::OpClass::Send || cls == sim::OpClass::ExchangeSend ||
         cls == sim::OpClass::Collective;
}

}  // namespace

Recorder::Recorder() : Recorder(MonoClock::now()) {}

Recorder::Recorder(MonoClock::time_point epoch) : epoch_(epoch) {}

double Recorder::now() const {
  return std::chrono::duration<double>(MonoClock::now() - epoch_).count();
}

void Recorder::set_track_name(int track, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_.track_names[track] = std::move(name);
}

void Recorder::set_track_pid(int track, std::int64_t pid) {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_.track_pids[track] = pid;
}

void Recorder::set_process_name(std::int64_t pid, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_.process_names[pid] = std::move(name);
}

void Recorder::span(int track, std::string name, std::string cat, double start,
                    double end, std::int32_t microbatch, std::int32_t slice,
                    std::int32_t stage) {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_.spans.push_back({track, start, end, std::move(name), std::move(cat),
                          microbatch, slice, stage});
}

void Recorder::instant(int track, std::string name, std::string cat,
                       std::string detail) {
  const double ts = now();
  std::lock_guard<std::mutex> lock(mutex_);
  trace_.instants.push_back(
      {track, ts, std::move(name), std::move(cat), std::move(detail)});
}

void Recorder::flow_point(std::int64_t id, int track, double ts, bool begin,
                          std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_.flows.push_back({id, track, ts, begin, std::move(name)});
}

void Recorder::append(Trace trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto move_into = [](auto& to, auto& from) {
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
  };
  move_into(trace_.spans, trace.spans);
  move_into(trace_.instants, trace.instants);
  move_into(trace_.flows, trace.flows);
}

Trace Recorder::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(trace_, Trace{});
}

Trace Recorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return trace_;
}

Trace trace_from_sim(const sim::OpGraph& graph, const sim::ExecResult& result) {
  Trace trace;
  const std::vector<sim::Op>& ops = graph.ops();

  // Compute rows first so devices stay on low track ids.
  int num_devices = 0;
  for (const sim::Op& op : ops) {
    num_devices = std::max(num_devices, op.device + 1);
  }
  for (int d = 0; d < num_devices; ++d) {
    trace.track_names[d] = "dev " + std::to_string(d);
  }

  for (const sim::Op& op : ops) {
    const sim::OpTiming& t = result.timings[static_cast<std::size_t>(op.id)];
    TraceSpan span;
    span.start = t.start;
    span.end = t.end;
    span.name = op_span_name(op);
    span.microbatch = op.microbatch;
    span.slice = op.slice;
    span.stage = op.stage;
    if (sim::is_compute_class(op.cls)) {
      span.track = op.device;
      span.cat = kCatCompute;
    } else {
      // Channels / NICs / PCIe engines are FIFO resources, so one track per
      // resource renders without overlapping slices.
      span.track = kAuxTrackBase + op.resource;
      span.cat = is_transfer_class(op.cls) ? kCatComm : kCatHost;
      auto it = trace.track_names.find(span.track);
      if (it == trace.track_names.end()) {
        std::string name =
            op.peer >= 0
                ? "ch d" + std::to_string(op.device) + "->d" +
                      std::to_string(op.peer)
                : (op.cls == sim::OpClass::Other
                       ? "pcie d" + std::to_string(op.device)
                       : "aux d" + std::to_string(op.device));
        trace.track_names.emplace(span.track, std::move(name));
      }
    }
    trace.spans.push_back(std::move(span));
  }

  // Flow arrows: each cross-device transfer links its span to the start of
  // every dependent op on the receiving device. Dependents are found by a
  // single reverse sweep over the explicit edges.
  for (const sim::Op& op : ops) {
    for (const sim::OpId dep : op.deps) {
      const sim::Op& producer = graph.op(dep);
      if (!is_transfer_class(producer.cls) || producer.peer < 0) continue;
      const sim::OpTiming& pt =
          result.timings[static_cast<std::size_t>(producer.id)];
      const sim::OpTiming& ct = result.timings[static_cast<std::size_t>(op.id)];
      const std::int64_t id = static_cast<std::int64_t>(producer.id);
      const std::string name = sim::op_class_name(producer.cls);
      trace.flows.push_back(
          {id, kAuxTrackBase + producer.resource, pt.start, true, name});
      const int dst_track = sim::is_compute_class(op.cls)
                                ? op.device
                                : kAuxTrackBase + op.resource;
      trace.flows.push_back({id, dst_track, ct.start, false, name});
    }
  }
  return trace;
}

void append_fault_events(Trace& trace,
                         const std::vector<fault::FaultEvent>& events) {
  for (const fault::FaultEvent& event : events) {
    TraceInstant instant;
    instant.track = std::max(0, event.device);
    instant.ts = std::max(0.0, event.time);
    instant.name = fault::event_kind_name(event.kind);
    instant.cat = kCatFault;
    instant.detail = event.detail;
    trace.instants.push_back(std::move(instant));
  }
}

std::string chrome_trace_json(const Trace& trace) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  for (const auto& [pid, name] : trace.process_names) {
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":" << json_quote(name) << "}}";
  }
  for (const auto& [track, name] : trace.track_names) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
        << trace.pid_of(track) << ",\"tid\":" << track
        << ",\"args\":{\"name\":" << json_quote(name) << "}}";
  }
  for (const TraceSpan& span : trace.spans) {
    sep();
    out << "{\"name\":" << json_quote(span.name)
        << ",\"cat\":" << json_quote(span.cat) << ",\"ph\":\"X\",\"ts\":"
        << json_number(span.start * 1e6)
        << ",\"dur\":" << json_number((span.end - span.start) * 1e6)
        << ",\"pid\":" << trace.pid_of(span.track) << ",\"tid\":" << span.track;
    if (span.microbatch >= 0 || span.slice >= 0 || span.stage >= 0) {
      out << ",\"args\":{\"mb\":" << span.microbatch
          << ",\"slice\":" << span.slice << ",\"stage\":" << span.stage << "}";
    }
    out << "}";
  }
  for (const TraceInstant& instant : trace.instants) {
    sep();
    out << "{\"name\":" << json_quote(instant.name)
        << ",\"cat\":" << json_quote(instant.cat)
        << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << json_number(instant.ts * 1e6)
        << ",\"pid\":" << trace.pid_of(instant.track)
        << ",\"tid\":" << instant.track;
    if (!instant.detail.empty()) {
      out << ",\"args\":{\"detail\":" << json_quote(instant.detail) << "}";
    }
    out << "}";
  }
  for (const TraceFlowPoint& flow : trace.flows) {
    sep();
    out << "{\"name\":" << json_quote(flow.name.empty() ? "flow" : flow.name)
        << ",\"cat\":\"flow\",\"ph\":\"" << (flow.begin ? 's' : 'f') << "\"";
    if (!flow.begin) out << ",\"bp\":\"e\"";
    out << ",\"id\":" << flow.id << ",\"ts\":" << json_number(flow.ts * 1e6)
        << ",\"pid\":" << trace.pid_of(flow.track)
        << ",\"tid\":" << flow.track << "}";
  }
  out << "\n]\n";
  return out.str();
}

}  // namespace slim::obs

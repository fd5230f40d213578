#include "src/obs/flight_recorder.hpp"

#include <algorithm>
#include <cstring>

#include "src/util/table.hpp"

namespace slim::obs {

const char* flight_kind_name(FlightKind kind) {
  switch (kind) {
    case FlightKind::SpanBegin: return "span-begin";
    case FlightKind::SpanEnd: return "span-end";
    case FlightKind::Send: return "send";
    case FlightKind::Recv: return "recv";
    case FlightKind::Commit: return "commit";
    case FlightKind::Fault: return "fault";
    case FlightKind::Mark: return "mark";
  }
  return "?";
}

void FlightEvent::set_label(std::string_view text) {
  const std::size_t n = std::min(text.size(), kLabelSize - 1);
  std::memcpy(label, text.data(), n);
  std::memset(label + n, 0, kLabelSize - n);
}

std::string FlightEvent::label_str() const {
  return std::string(label, strnlen(label, kLabelSize));
}

void FlightRecorder::record(FlightKind kind, double ts, std::int32_t mb,
                            std::int32_t slice, std::int64_t value,
                            std::string_view label) {
  FlightEvent& slot = ring_[next_seq_ % kCapacity];
  slot.ts = ts;
  slot.seq = next_seq_;
  slot.kind = kind;
  slot.mb = mb;
  slot.slice = slice;
  slot.value = value;
  slot.set_label(label);
  ++next_seq_;
}

std::vector<FlightEvent> FlightRecorder::tail() const {
  const std::uint64_t first = next_seq_ > kCapacity ? next_seq_ - kCapacity : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(next_seq_ - first));
  for (std::uint64_t seq = first; seq < next_seq_; ++seq) {
    out.push_back(ring_[seq % kCapacity]);
  }
  return out;
}

std::string render_flight_tail(const std::vector<FlightEvent>& events) {
  Table table({"seq", "t ms", "kind", "mb", "slice", "value", "label"});
  for (const FlightEvent& ev : events) {
    table.add_row({fmt(static_cast<std::int64_t>(ev.seq)),
                   fmt(ev.ts * 1e3, 3), flight_kind_name(ev.kind),
                   fmt(static_cast<std::int64_t>(ev.mb)),
                   fmt(static_cast<std::int64_t>(ev.slice)),
                   fmt(ev.value), ev.label_str()});
  }
  return table.to_string();
}

}  // namespace slim::obs

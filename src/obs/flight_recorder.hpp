#pragma once

// Crash-surviving flight recorder.
//
// A stage worker is a forked single-threaded process: when the supervisor
// SIGKILLs it (heartbeat deadline, kill torture) everything in its address
// space is gone. The flight recorder makes the last moments recoverable: the
// worker appends compact POD events to a fixed ring of the last kCapacity
// events on every interesting step (span begin/end, commit, send/recv with
// byte counts, fault hooks), and every status it sends the supervisor — each
// heartbeat and the Done frame — carries the whole ring, oldest first. The
// worker heartbeats right before every Commit frame and when it parks on a
// hang, so the supervisor's copy of a dead stage's tail shows what it was
// doing, not just that it died.
//
// Single writer, no locks: the worker is single-threaded by construction and
// the supervisor only ever sees serialized copies.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace slim::obs {

enum class FlightKind : std::uint8_t {
  SpanBegin = 1,  // value = slice payload hint (unused), label = op name
  SpanEnd = 2,
  Send = 3,  // value = payload bytes, label = "fwd"/"bwd"
  Recv = 4,  // value = payload bytes
  Commit = 5,  // value = committed microbatch count so far
  Fault = 6,   // label = fault hook name
  Mark = 7,    // free-form breadcrumb
};

const char* flight_kind_name(FlightKind kind);

/// One breadcrumb. `ts` is seconds on the run clock (see obs/clock.hpp): a
/// stage worker inherits the run epoch, so the supervisor reads it as is.
struct FlightEvent {
  static constexpr std::size_t kLabelSize = 24;

  double ts = 0.0;
  std::uint64_t seq = 0;  // assigned by the recorder, strictly increasing
  FlightKind kind = FlightKind::Mark;
  std::int32_t mb = -1;
  std::int32_t slice = -1;
  std::int64_t value = 0;
  char label[kLabelSize] = {};

  void set_label(std::string_view text);
  std::string label_str() const;
};

class FlightRecorder {
 public:
  /// Events kept: the postmortem shows a dead worker's last kCapacity.
  static constexpr std::size_t kCapacity = 32;

  void record(FlightKind kind, double ts, std::int32_t mb, std::int32_t slice,
              std::int64_t value, std::string_view label);

  /// The ring, oldest first: the last min(recorded, kCapacity) events, with
  /// consecutive seqs. The last one's seq + 1 counts every event recorded.
  std::vector<FlightEvent> tail() const;

 private:
  std::array<FlightEvent, kCapacity> ring_{};
  std::uint64_t next_seq_ = 0;
};

/// Renders events as an aligned postmortem table ("seq  t(ms)  kind  mb
/// slice  value  label"), oldest first.
std::string render_flight_tail(const std::vector<FlightEvent>& events);

}  // namespace slim::obs

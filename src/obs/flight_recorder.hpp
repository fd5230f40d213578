#pragma once

// Crash-surviving flight recorder.
//
// A stage worker is a forked single-threaded process: when the supervisor
// SIGKILLs it (heartbeat deadline, kill torture) everything in its address
// space is gone. The flight recorder makes the last moments recoverable: the
// worker appends compact POD events to a fixed-capacity ring buffer on every
// interesting step (span begin/end, commit, send/recv with byte counts,
// fault hooks) and periodically flushes the unflushed suffix over the
// control socket as a Telemetry wire frame. The supervisor keeps the last K
// events per worker, so a postmortem can show what a dead stage was doing —
// not just that it died.
//
// Single writer, no locks: the worker is single-threaded by construction and
// the supervisor only ever sees serialized copies.

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
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void record(FlightKind kind, double ts, std::int32_t mb, std::int32_t slice,
              std::int64_t value, std::string_view label);

  /// Total events ever recorded (== next seq to be assigned).
  std::uint64_t recorded() const { return next_seq_; }

  /// Events recorded since the previous flush, oldest first. Events the ring
  /// already overwrote before they could be flushed are counted in
  /// `dropped` — the wire carries that count so the supervisor knows the
  /// stream has a gap rather than silently missing history.
  struct Flush {
    std::uint64_t dropped = 0;
    std::vector<FlightEvent> events;
  };
  Flush flush();

  /// Last min(k, size) events currently in the ring, oldest first. Used for
  /// the worker's own Error-frame postmortem; the supervisor-side tail of a
  /// SIGKILLed worker comes from previously flushed Telemetry frames.
  std::vector<FlightEvent> tail(std::size_t k) const;

  std::size_t capacity() const { return ring_.size(); }

 private:
  std::vector<FlightEvent> ring_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t flushed_ = 0;  // every seq < flushed_ has been flushed
};

/// Renders events as an aligned postmortem table ("seq  t(ms)  kind  mb
/// slice  value  label"), oldest first.
std::string render_flight_tail(const std::vector<FlightEvent>& events);

}  // namespace slim::obs

#pragma once

// The loop around one stage's rt::StageMachine, shared by both training
// runtimes.
//
// drive_stage owns everything that does not depend on the transport: pick,
// run, send, retire; the wait for arrivals under the starvation watchdog;
// the fault plan's crash, hang and delay rules, keyed on the pick count;
// busy and blocked timing; compute and recv spans, commit instants and flow
// points; and the stage's own records, obs::StageProgress (published after
// every message) and this attempt's obs::StageMetrics, which both runtimes
// report as the stage's obs::StageStatus (src/obs/telemetry.hpp). A
// StageLink supplies only what differs by transport — the threaded runtime
// moves messages over Channels (pipeline_runtime.cpp), a process worker
// over its data sockets (src/dist/stage_worker.cpp), the unit tests over a
// scripted fake — so per-stage busy and blocked seconds, fault events and
// trace records mean the same on both runtimes.

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/fault/fault_plan.hpp"
#include "src/numerics/arena.hpp"
#include "src/obs/clock.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/stage_machine.hpp"

namespace slim::rt {

/// Flow-arrow id of one cross-stage message, derived independently by its
/// sender and its receiver (`dst`): attempt, kind, global stage,
/// destination, microbatch and slice, so vocabulary broadcasts, interleaved
/// chunks and replayed sends all get distinct ids.
std::int64_t flow_id(int attempt, const Message& msg, int dst);

/// Thrown by drive_stage when its stage could neither run nor receive
/// anything for the starvation timeout.
struct StageStarved : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One stage's drive: what drive_stage needs besides the machine and the
/// link, and what it leaves behind for the runtime. Cache-line aligned: the
/// threaded runtime keeps one per stage thread in a vector, and each thread
/// writes its progress and metrics after every message while reading its
/// rules and clock, so two records sharing a line made a step's time depend
/// on where the heap put the vector.
struct alignas(64) StageRun {
  int stage = 0;
  int attempt = 0;  // folded into flow ids
  fault::StageRules rules;  // the plan's hooks; default-constructed = none
  std::chrono::milliseconds starvation_timeout{30000};
  obs::MonoClock::time_point epoch;  // the run clock's zero
  obs::Recorder* recorder = nullptr;      // spans, instants, flow points
  obs::FlightRecorder* flight = nullptr;  // breadcrumbs (process workers)
  const num::ArenaStats* arena = nullptr;  // the machine's arena sink

  obs::StageProgress progress;  // as last published
  obs::StageMetrics metrics;    // this attempt's probes, driver and link
  std::vector<fault::FaultEvent> events;

  /// Seconds on the run clock.
  double now() const;
  /// Logs a fault event at now(), and an instant when tracing.
  void fault(fault::FaultEvent::Kind kind, const char* name,
             std::string detail);
  /// Appends a flight-recorder breadcrumb (no-op without one).
  void crumb(obs::FlightKind kind, int mb, int slice, std::int64_t value,
             std::string_view label);
};

/// What a transport supplies to drive_stage.
class StageLink {
 public:
  virtual ~StageLink() = default;
  /// Appends every arrival ready now to `arrivals`; when none is, first
  /// waits up to `wait` for one (zero: never waits), or until a link closes.
  virtual void receive(std::vector<Message>& arrivals,
                       std::chrono::milliseconds wait) = 0;
  /// True once everything `device` will ever send has arrived (its link
  /// closed). Channels never close.
  virtual bool closed(int /*device*/) const { return false; }
  /// Moves one message to another stage.
  virtual void send(Outgoing out) = 0;
  /// Hands microbatch `mb`, just retired by `machine`, to its commit point.
  virtual void retire(StageMachine& machine, int mb) = 0;
  /// Shares the progress record the driver just updated.
  virtual void publish(const obs::StageProgress& progress) = 0;
  /// The plan's crash and hang rules: neither returns.
  [[noreturn]] virtual void crash() = 0;
  [[noreturn]] virtual void hang() = 0;
};

/// Runs `machine` to completion over `link`, publishing Done at the end.
/// Returns early, publishing Starved, when the next row waits on a device
/// whose link closed: that row can never run. Throws StageStarved from the
/// watchdog, and whatever the machine or the link throws.
void drive_stage(StageMachine& machine, StageLink& link, StageRun& run);

}  // namespace slim::rt

#pragma once

// One pipeline stage running inside a forked worker process.
//
// The worker inherits the PipelineModel (its parameter snapshot) and the
// iteration inputs through fork-time memory; everything it produces leaves
// only through its sockets: data frames to its neighbours, and three frame
// kinds to the supervisor — Heartbeats (progress, metrics and the flight
// recorder's tail), one Commit per retired microbatch, and one Done frame
// with its final status, fault events, trace and, when it failed, the
// error message. The worker is strictly single-threaded (fork from a
// threaded parent means no inherited locks may be touched, and TSan
// instruments nothing it can't see), sends heartbeats from its main loop,
// runs its kernels serially, and exits via _exit so inherited atexit
// handlers and stdio buffers never run twice.
//
// The stage discipline is rt::StageMachine (src/runtime/stage_machine.hpp)
// and the loop around it rt::drive_stage (src/runtime/stage_driver.hpp) —
// the same machine and loop as the threaded runtime's, running this
// stage's rows of the SlimPipe table. This worker supplies only a socket
// link: arrivals from and sends to the two data sockets (heartbeating while
// it waits), a heartbeat then a Commit frame when the machine retires a
// microbatch, heartbeats carrying the driver's progress and metrics, and
// SIGKILL or a parked process for the plan's crash and hang rules. The
// table fixes the order whatever the two neighbors' traffic does, which is
// what makes the recovered gradients bit-identical to the threaded
// backend's. It also fixes where a survivor stops after a neighbour dies:
// at the first row that waits on the dead neighbour's closed socket,
// reporting `starved`.

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/fault/fault_plan.hpp"
#include "src/obs/clock.hpp"
#include "src/runtime/stage_machine.hpp"

namespace slim::dist {

/// Fault-plan rules resolved for one stage, mapped onto the real transport:
/// crashes are raise(SIGKILL), hangs park the process (heartbeats stop),
/// delays and drops act on actual socket writes.
struct WorkerFaults {
  fault::StageRules stage;  // crash -> raise(SIGKILL), hang -> park
  /// KillSpec: raise(SIGKILL) once this many Commit frames are sent — 0
  /// (PreForward) at the worker's start, before it sends anything; -1:
  /// never.
  int kill_after_commits = -1;
  double link_extra_latency = 0.0;  // per data-frame send (LinkFault)
  struct Drop {
    std::int64_t every = 1;
    int count = 1;
    int max_retries = 3;
  };
  std::vector<Drop> drops;
  struct Delay {
    std::int64_t every = 1;
    double seconds = 0.0;
  };
  std::vector<Delay> socket_delays;
};

struct WorkerConfig {
  /// The model, batch and slice layouts, inherited through fork-time memory
  /// — never serialized.
  rt::StageInputs inputs;
  int stage = 0;
  /// Supervisor respawn attempt index; folded into flow-arrow ids
  /// (rt::flow_id) so replayed sends never collide with originals.
  int attempt = 0;
  /// Microbatches of this attempt (ascending); slice weights still use the
  /// full iteration's microbatch count, so replayed contributions match
  /// the fault-free ones bit for bit.
  std::vector<int> mbs;
  int prev_fd = -1;     // upstream data socket (-1 on stage 0)
  int next_fd = -1;     // downstream data socket (-1 on the last stage)
  int control_fd = -1;  // heartbeats, commits and done to the supervisor
  /// The run epoch (obs/clock.hpp), inherited through fork: the worker's
  /// Recorder and every time it reports — spans, instants, flow points,
  /// flight-recorder events, fault events — are on the supervisor's clock.
  obs::MonoClock::time_point epoch;
  std::chrono::milliseconds heartbeat_interval{25};
  std::chrono::milliseconds starvation_timeout{30000};
  bool trace = false;  // record a trace, shipped in the Done frame
  /// Flight recorder (obs/flight_recorder.hpp): always-on ring of the last
  /// FlightRecorder::kCapacity breadcrumbs, carried whole by every
  /// heartbeat and the Done frame. Off only for overhead measurement.
  bool flight = true;
  WorkerFaults faults;
};

/// Runs the stage to completion, or until its next row waits on a
/// neighbour whose socket closed. Returns the process exit code: 0 with a
/// Done frame sent (its state `done` or `starved`), 2 on a structured
/// failure (a Done frame with the error message sent). Never throws and
/// never returns via exceptions — the caller passes the result straight to
/// _exit.
int run_stage_worker(const WorkerConfig& config);

}  // namespace slim::dist

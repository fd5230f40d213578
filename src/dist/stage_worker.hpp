#pragma once

// One pipeline stage running inside a forked worker process.
//
// The worker inherits the PipelineModel (its parameter snapshot) and the
// iteration inputs through fork-time memory; everything it produces —
// heartbeats, retired-microbatch gradient commits, fault events, metrics,
// trace records — leaves only through its sockets. The worker is strictly
// single-threaded (fork from a threaded parent means no inherited locks
// may be touched, and TSan instruments nothing it can't see), sends
// heartbeats from its main loop, runs its kernels serially, and exits via
// _exit so inherited atexit handlers and stdio buffers never run twice.
//
// The stage discipline is rt::StageMachine (src/runtime/stage_machine.hpp),
// the same machine the threaded runtime drives, running this stage's rows
// of the SlimPipe table: this worker only moves its messages over the two
// data sockets, applies the fault hooks, and writes a Commit frame when
// the machine retires a microbatch. The table fixes the order whatever the
// two neighbors' traffic does, which is what makes the recovered
// gradients bit-identical to the threaded backend's.

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
  /// KillSpec MidCommit/PostCommit: raise(SIGKILL) right after sending this
  /// many Commit frames (0: never).
  int kill_after_commits = 0;
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
  /// Supervisor respawn attempt index; folded into cross-process flow-arrow
  /// ids (wire_flow_id) so replayed sends never collide with originals.
  int attempt = 0;
  /// Microbatches of this attempt (ascending); slice weights still use the
  /// full iteration's microbatch count, so replayed contributions match
  /// the fault-free ones bit for bit.
  std::vector<int> mbs;
  int prev_fd = -1;     // upstream data socket (-1 on stage 0)
  int next_fd = -1;     // downstream data socket (-1 on the last stage)
  int control_fd = -1;  // heartbeats/commits/events/done to the supervisor
  /// The run epoch (obs/clock.hpp), inherited through fork: every time the
  /// worker records — spans, instants, flow points, flight-recorder events,
  /// fault events — is seconds since it, on the supervisor's clock.
  obs::MonoClock::time_point epoch;
  std::chrono::milliseconds heartbeat_interval{25};
  std::chrono::milliseconds starvation_timeout{30000};
  bool trace = false;  // collect spans/instants/flows into the Done frame
  /// Flight recorder (obs/flight_recorder.hpp): always-on breadcrumb ring
  /// of FlightRecorder::kDefaultCapacity events, flushed to the supervisor
  /// as Telemetry frames on the heartbeat cadence and before every Commit.
  /// Off only for overhead measurement.
  bool flight = true;
  WorkerFaults faults;
};

/// Runs the stage to completion. Returns the process exit code: 0 on
/// success (Done frame sent), 2 on a structured failure (Error frame
/// sent). Never throws and never returns via exceptions — the caller
/// passes the result straight to _exit.
int run_stage_worker(const WorkerConfig& config);

}  // namespace slim::dist

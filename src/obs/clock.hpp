#pragma once

// The run clock.
//
// Every event timestamp in the observability layer — recorder spans,
// instants and flow points, flight-recorder events, fault events, live
// snapshots — is seconds on the MONOTONIC clock (std::chrono::steady_clock,
// aliased MonoClock below) since ONE epoch per run: the parent Recorder's
// construction time, or the iteration start when tracing is off.
// system_clock never appears in event timestamps; NTP steps it.
//
// Forked stage workers run on the same host, where the monotonic clock is
// system-wide, so they inherit the epoch through fork and stamp every
// record on the run clock themselves. The supervisor records them verbatim:
// there is no per-process offset to estimate.

#include <chrono>

namespace slim::obs {

/// The one event-timestamp clock. Do not time events with system_clock.
using MonoClock = std::chrono::steady_clock;

}  // namespace slim::obs

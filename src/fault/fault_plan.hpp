#pragma once

// Deterministic fault injection plans (robustness north star).
//
// A FaultPlan is a seeded, declarative description of cluster misbehaviour:
// persistent or transient straggler slowdowns per device and op class, link
// bandwidth/latency degradation, device crashes with checkpoint-restart
// recovery, and — for the threaded mini-runtime — stage crashes, stage
// hangs and message delays. The same plan drives both execution substrates:
// the discrete-event simulator scales op durations and models recovery
// cost, and the threaded runtime injects the faults between messages. All
// randomness (jitter) derives from the plan's seed, so a (seed, plan) pair
// replays identically.
//
// Every observed fault surfaces as a structured FaultReport, never as a
// bare terminate: the report lists the injected events, the recovery cost
// and — for runtime deadlocks — the per-stage blocked-on table.

#include <cstdint>
#include <string>
#include <vector>

namespace slim::fault {

/// Which simulated ops a straggler applies to.
enum class OpFilter : std::uint8_t {
  Any,       // every op on the device (compute and communication)
  Forward,   // forward / recompute / vocabulary-forward compute
  Backward,  // backward halves / vocabulary-backward compute
  Comm,      // P2P sends, exchange traffic, collectives
};

const char* op_filter_name(OpFilter filter);

/// Multiplies the duration of matching ops. `from_op`/`to_op` select a
/// window of the device's op sequence (inclusive, -1 = open end), which
/// models transient slowdowns; the default window is persistent.
struct Straggler {
  int device = -1;  // -1: every device
  OpFilter ops = OpFilter::Any;
  double factor = 1.0;  // duration multiplier, >= 1
  double jitter = 0.0;  // uniform +-fraction of (factor-1), seeded
  std::int64_t from_op = 0;
  std::int64_t to_op = -1;  // inclusive; -1 = until the end
};

/// Degrades every message whose *sender* is `src` (-1: all links): the
/// transfer time is multiplied by `slowdown` and `extra_latency` seconds
/// are added per message.
struct LinkFault {
  int src = -1;
  double slowdown = 1.0;  // >= 1
  double extra_latency = 0.0;  // seconds
};

/// Simulator crash: the device fails when its `at_op`-th compute op
/// retires. Recovery is checkpoint-restart from the last iteration
/// boundary: all in-flight work since the iteration start is lost and
/// replayed after `restart_cost` seconds of respawn time.
struct Crash {
  int device = 0;
  std::int64_t at_op = 0;  // index into the device's compute-op sequence
  double restart_cost = 1.0;  // seconds
};

/// Threaded-runtime crash: the stage worker throws after processing
/// `after_messages` messages. With recovery enabled the runtime respawns
/// the stage from the parameter snapshot and replays unretired
/// microbatches.
struct StageCrash {
  int stage = 0;
  std::int64_t after_messages = 1;
};

/// Threaded-runtime hang: the stage worker stops making progress after
/// `after_messages` messages (it parks until shutdown). Peers starve and
/// the watchdog produces the deadlock report.
struct StageHang {
  int stage = 0;
  std::int64_t after_messages = 1;
};

/// Threaded-runtime straggler: the stage sleeps `seconds` after every
/// `every`-th message (-1: every stage).
struct MessageDelay {
  int stage = -1;
  std::int64_t every = 1;
  double seconds = 0.0;
};

/// Multi-process transport: every `every`-th data frame sent by `stage`
/// (-1: every stage) is dropped on the wire before delivery; the sender
/// detects the loss and retries up to `max_retries` times per frame. At
/// most `count` drops fire in total — a retry budget smaller than a
/// persistent drop rate turns this into a structured send failure.
struct SocketDrop {
  int stage = -1;
  std::int64_t every = 1;
  int count = 1;
  int max_retries = 3;
};

/// Multi-process transport: establishing the data transport adjacent to
/// `stage` fails `failures` times before succeeding; setup retries with
/// backoff and records a ConnectRetry event per failure.
struct SocketConnectFail {
  int stage = 0;
  int failures = 1;
};

/// Multi-process transport: every `every`-th data frame sent by `stage`
/// (-1: every stage) is delivered `seconds` late — the sender genuinely
/// sleeps before the write, so the added latency is measurable in the
/// receiver-side wall clock and the recorded obs trace.
struct SocketDelay {
  int stage = -1;
  std::int64_t every = 1;
  double seconds = 0.0;
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<Straggler> stragglers;
  std::vector<LinkFault> links;
  std::vector<Crash> crashes;            // simulator substrate
  std::vector<StageCrash> stage_crashes; // threaded-runtime substrate
  std::vector<StageHang> stage_hangs;
  std::vector<MessageDelay> delays;
  std::vector<SocketDrop> socket_drops;  // multi-process transport (src/dist)
  std::vector<SocketConnectFail> socket_connect_fails;
  std::vector<SocketDelay> socket_delays;

  bool empty() const {
    return stragglers.empty() && links.empty() && crashes.empty() &&
           stage_crashes.empty() && stage_hangs.empty() && delays.empty() &&
           socket_drops.empty() && socket_connect_fails.empty() &&
           socket_delays.empty();
  }
};

// ---------------------------------------------------------------------------
// Validation (test_analysis style: one stable rule id per invariant).

struct PlanIssue {
  std::string rule_id;   // e.g. "fault-straggler-factor"
  std::string location;  // "straggler 2" / "crash 0"
  std::string message;
};

/// Semantic validation. `world_size` bounds device/stage indices when
/// positive; -1 skips the range checks (plan not yet bound to a cluster).
std::vector<PlanIssue> validate(const FaultPlan& plan, int world_size = -1);

bool has_rule(const std::vector<PlanIssue>& issues, const std::string& rule_id);
std::string render(const std::vector<PlanIssue>& issues);

/// The runtime rules of a plan that act on one pipeline stage, as both
/// runtimes apply them to the messages the stage picks: crash or hang once
/// `after` messages were picked (-1: never), sleep `delay_seconds` after
/// every `delay_every`-th message (0: never). Later rules win.
struct StageRules {
  std::int64_t crash_after = -1;
  std::int64_t hang_after = -1;
  std::int64_t delay_every = 0;
  double delay_seconds = 0.0;
};

StageRules stage_rules(const FaultPlan& plan, int stage);

// ---------------------------------------------------------------------------
// Text round-trip: one fault per line, "kind key=value ...". '#' comments
// and blank lines ignored. parse_plan throws (SLIM_CHECK) on structurally
// malformed input, including a value that is not one whole number token or
// an integer outside its field's type; semantic problems are left to
// validate().
//
//   seed 42
//   straggler device=1 ops=forward factor=1.5 jitter=0.1 from=0 to=-1
//   link src=0 slowdown=2.0 extra_latency=1e-5
//   crash device=2 at_op=37 restart_cost=2.5
//   stage_crash stage=1 after_messages=9
//   stage_hang stage=2 after_messages=4
//   delay stage=0 every=3 seconds=0.002
//   socket_drop stage=1 every=3 count=2 max_retries=5
//   socket_connect stage=1 failures=2
//   socket_delay stage=0 every=2 seconds=0.001

FaultPlan parse_plan(const std::string& text);
std::string to_text(const FaultPlan& plan);

// ---------------------------------------------------------------------------
// Structured fault report, shared by both substrates.

struct FaultEvent {
  enum class Kind : std::uint8_t {
    Straggler,
    LinkDegraded,
    Crash,
    Hang,
    Delay,
    Watchdog,   // starvation probe fired; blocked-on table attached
    Recovery,   // stage respawned, microbatches replayed
    SocketDrop,    // data frame dropped on the wire (sender retried)
    SocketDelay,   // data frame delivered late (injected socket latency)
    ConnectRetry,  // transient transport setup failure, retried
  };
  Kind kind = Kind::Straggler;
  int device = -1;          // device (simulator) or stage (runtime)
  double time = 0.0;        // simulated seconds; 0 when not applicable
  std::int64_t index = -1;  // op index / message count at the event
  std::string detail;
};

const char* event_kind_name(FaultEvent::Kind kind);

struct FaultReport {
  std::vector<FaultEvent> events;
  /// Extra seconds injected into op durations (simulator substrate).
  double injected_seconds = 0.0;
  /// Checkpoint-restart cost: lost in-flight work + restart time.
  double recovery_overhead = 0.0;
  /// Training runtimes: the microbatches the first respawn replayed.
  std::vector<int> replayed_microbatches;
  /// Watchdog deadlock report: per-stage blocked-on state table.
  std::string blocked_table;

  bool has_kind(FaultEvent::Kind kind) const;
  /// Aligned table of the events plus the summary lines.
  std::string render() const;
};

}  // namespace slim::fault

#include "src/dist/stage_worker.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/dist/wire.hpp"
#include "src/obs/clock.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/pipeline_runtime.hpp"
#include "src/util/logging.hpp"

namespace slim::dist {

namespace {

/// Structured worker failure: turned into an Error frame, never into an
/// uncaught exception (the process must reach _exit, not std::terminate).
struct WorkerError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Everything mutable the stage loop tracks, grouped so the Error/Done
/// serialization sees one coherent snapshot.
struct WorkerContext {
  const WorkerConfig* cfg = nullptr;
  obs::MonoClock::time_point start;  // the worker's clock epoch
  WireStatus status;
  double busy_seconds = 0.0;
  double comm_seconds = 0.0;
  double blocked_recv_seconds = 0.0;
  std::int64_t p2p_messages = 0;
  double p2p_bytes = 0.0;
  int peak_queue = 0;
  std::vector<fault::FaultEvent> events;
  std::vector<WireSpan> spans;
  std::vector<WireInstant> instants;
  std::vector<WireFlow> flows;
  obs::FlightRecorder flight;
  bool prev_dead = false;
  bool next_dead = false;
  bool control_dead = false;
  obs::MonoClock::time_point last_beat;
  std::int64_t data_sends = 0;  // SocketDrop / SocketDelay rule counter
  std::vector<int> drops_fired;  // per SocketDrop rule

  double now() const {
    return std::chrono::duration<double>(obs::MonoClock::now() - start)
        .count();
  }

  void instant(const std::string& name, const std::string& category,
               const std::string& detail = "") {
    if (cfg->trace) instants.push_back({now(), name, category, detail});
  }

  void span(double span_start, const std::string& name,
            const std::string& category, int mb = -1, int slice = -1,
            int stage = -1) {
    if (cfg->trace) {
      spans.push_back({span_start, now(), name, category, mb, slice, stage});
    }
  }

  /// Ships a frame to the supervisor. A dead control socket means the
  /// supervisor is gone; the worker keeps running (it will be reaped) but
  /// stops talking.
  void send_control(const Frame& frame) {
    if (control_dead) return;
    if (!send_frame(cfg->control_fd, frame)) control_dead = true;
  }

  /// Appends one flight-recorder breadcrumb (no-op with flight disabled).
  void record(obs::FlightKind kind, std::int32_t mb, std::int32_t slice,
              std::int64_t value, std::string_view label) {
    if (cfg->flight) flight.record(kind, now(), mb, slice, value, label);
  }

  /// Ships the unflushed flight-recorder suffix as one Telemetry frame.
  /// Called on the heartbeat cadence and right before every Commit frame,
  /// so by the time the supervisor sees a commit it already holds the
  /// breadcrumbs leading up to it (same FIFO socket).
  void flush_flight() {
    if (!cfg->flight || control_dead) return;
    obs::FlightRecorder::Flush flush = flight.flush();
    if (flush.events.empty() && flush.dropped == 0) return;
    Frame frame;
    frame.kind = FrameKind::Telemetry;
    frame.stage = cfg->stage;
    Writer w;
    write_flight_flush(w, {flush.dropped, std::move(flush.events)});
    frame.payload = w.take();
    send_control(frame);
  }

  /// Answers any supervisor->worker control traffic waiting on the socket.
  /// Today that is only clock-alignment Pings: reply immediately so the
  /// round trip stays tight (theta's error bound is rtt/2).
  void drain_control() {
    if (control_dead || cfg->control_fd < 0) return;
    while (poll_readable(cfg->control_fd, 0)) {
      Frame frame;
      const IoStatus io = recv_frame(cfg->control_fd, &frame);
      if (io == IoStatus::Eof) {
        control_dead = true;
        return;
      }
      if (io != IoStatus::Ok || frame.kind != FrameKind::Ping) continue;
      Reader reader(frame.payload);
      const double t1 = reader.f64();
      const double t2 = now();
      Frame pong;
      pong.kind = FrameKind::Pong;
      pong.stage = cfg->stage;
      Writer w;
      w.f64(t1);
      w.f64(t2);
      w.f64(now());  // t3
      pong.payload = w.take();
      send_control(pong);
    }
  }

  void heartbeat_now() {
    status.flight_recorded = static_cast<std::int64_t>(flight.recorded());
    Frame beat;
    beat.kind = FrameKind::Heartbeat;
    beat.stage = cfg->stage;
    Writer w;
    write_status(w, status);
    beat.payload = w.take();
    send_control(beat);
    flush_flight();
    last_beat = obs::MonoClock::now();
  }

  void maybe_heartbeat() {
    drain_control();
    if (obs::MonoClock::now() - last_beat >= cfg->heartbeat_interval) {
      heartbeat_now();
    }
  }
};

void park_forever(WorkerContext& ctx) {
  // Injected hang: the stage silently stops making progress. Heartbeats
  // stop with it — that is exactly the signal the supervisor's
  // missed-heartbeat deadline exists to catch. Parked until SIGKILLed.
  // The breadcrumb escapes in a last flush so the postmortem tail ends at
  // the hang, not just before it.
  ctx.status.state = static_cast<int>(rt::StageState::Hung);
  ctx.record(obs::FlightKind::Fault, -1, -1, ctx.status.messages, "hang");
  ctx.flush_flight();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

/// Applies SocketDrop / SocketDelay / LinkFault rules to one data-frame
/// send, then writes it. Returns false when the peer is gone.
bool send_data(WorkerContext& ctx, int fd, const Frame& frame) {
  const WorkerFaults& faults = ctx.cfg->faults;
  WireChannelStats& link =
      fd == ctx.cfg->next_fd ? ctx.status.next : ctx.status.prev;
  ++ctx.data_sends;
  const double send_start = ctx.now();

  // Drop with bounded retry: the affected transmit attempts are lost on
  // the wire; the sender backs off briefly and retransmits. A drop burst
  // longer than the retry budget is a structured send failure.
  for (std::size_t r = 0; r < faults.drops.size(); ++r) {
    const WorkerFaults::Drop& rule = faults.drops[r];
    if (rule.every < 1 || ctx.data_sends % rule.every != 0) continue;
    if (ctx.drops_fired[r] >= rule.count) continue;
    const int burst = std::min(rule.count - ctx.drops_fired[r],
                               rule.max_retries + 1);
    const bool exhausted = rule.count - ctx.drops_fired[r] > rule.max_retries;
    ctx.drops_fired[r] += burst;
    const std::string detail =
        "data frame " + std::to_string(ctx.data_sends) + " dropped " +
        std::to_string(burst) + "x" +
        (exhausted ? ", retry budget (" + std::to_string(rule.max_retries) +
                         ") exhausted"
                   : ", delivered on retry " + std::to_string(burst));
    ctx.events.push_back({fault::FaultEvent::Kind::SocketDrop, ctx.cfg->stage,
                          ctx.now(), ctx.data_sends, detail});
    ctx.instant("socket drop", obs::kCatFault, detail);
    link.retries += burst;
    ctx.record(obs::FlightKind::Fault, frame.mb, frame.slice, burst, "drop");
    if (exhausted) {
      throw WorkerError("stage " + std::to_string(ctx.cfg->stage) + ": " +
                        detail);
    }
    for (int attempt = 0; attempt < burst; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Injected latency: the sender genuinely sleeps before the write, so the
  // delay is measurable in the receiver's wall clock and the trace.
  double delay = 0.0;
  for (const WorkerFaults::Delay& rule : faults.socket_delays) {
    if (rule.every >= 1 && ctx.data_sends % rule.every == 0) {
      delay += rule.seconds;
    }
  }
  delay += faults.link_extra_latency;
  if (delay > 0.0) {
    if (ctx.status.injected_delay_seconds == 0.0) {
      const std::string detail = "socket sends delayed (injected latency)";
      ctx.events.push_back({fault::FaultEvent::Kind::SocketDelay,
                            ctx.cfg->stage, ctx.now(), ctx.data_sends,
                            detail});
      ctx.instant("socket delay", obs::kCatFault, detail);
    }
    ctx.status.injected_delay_seconds += delay;
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }

  ++ctx.p2p_messages;
  ctx.p2p_bytes += static_cast<double>(frame.payload.size());
  const bool backward = frame.kind == FrameKind::Backward;
  ctx.record(obs::FlightKind::Send, frame.mb, frame.slice,
             static_cast<std::int64_t>(frame.payload.size()),
             backward ? "bwd" : "fwd");
  if (ctx.cfg->trace) {
    // Send-side flow endpoint; the receiver derives the same id.
    ctx.flows.push_back({wire_flow_id(ctx.cfg->attempt, backward,
                                      ctx.cfg->stage, frame.mb, frame.slice),
                         ctx.now(), /*begin=*/1,
                         static_cast<std::uint8_t>(backward ? 1 : 0)});
  }
  const bool ok = send_frame(fd, frame);
  link.frames_out += 1;
  link.bytes_out += static_cast<std::int64_t>(frame.payload.size());
  ctx.comm_seconds += ctx.now() - send_start;
  ctx.span(send_start,
           std::string("send ") + frame_kind_name(frame.kind) + " mb" +
               std::to_string(frame.mb) + " s" + std::to_string(frame.slice),
           obs::kCatComm, frame.mb, frame.slice, ctx.cfg->stage);
  return ok;
}

int run_stage_worker_impl(const WorkerConfig& cfg, WorkerContext& ctx) {
  const int stage = cfg.stage;
  // The worker's parameter snapshot: a stage machine built from the
  // fork-inherited weights, arena-tracked so the supervisor can reconcile
  // measured peaks.
  num::ArenaStats arena_stats;
  rt::StageMachine machine(cfg.inputs, stage, cfg.mbs, &arena_stats);

  auto publish = [&] {
    ctx.status.messages = machine.messages();
    ctx.status.last_mb = machine.last_mb();
    ctx.status.done_f = machine.forwards_done();
    ctx.status.done_b = machine.backwards_done();
    ctx.status.live = machine.live();
    ctx.status.queue = machine.queued();
    ctx.status.deferred = machine.deferred();
    ctx.status.committed = machine.committed();
    ctx.peak_queue = std::max(ctx.peak_queue, machine.queued());
  };

  // Delivers whatever the neighbor sockets have ready right now to the
  // machine (keeps senders unblocked — AF_UNIX buffers are finite).
  auto drain_sockets = [&]() {
    for (int which = 0; which < 2; ++which) {
      const int fd = which == 0 ? cfg.prev_fd : cfg.next_fd;
      bool& dead = which == 0 ? ctx.prev_dead : ctx.next_dead;
      WireChannelStats& link =
          which == 0 ? ctx.status.prev : ctx.status.next;
      if (fd < 0 || dead) continue;
      while (poll_readable(fd, 0)) {
        Frame frame;
        const IoStatus io = recv_frame(fd, &frame);
        if (io == IoStatus::Ok) {
          link.frames_in += 1;
          link.bytes_in += static_cast<std::int64_t>(frame.payload.size());
          const bool backward = frame.kind == FrameKind::Backward;
          if (!backward && frame.kind != FrameKind::Forward) {
            throw WorkerError("stage " + std::to_string(stage) +
                              ": unexpected data frame kind " +
                              std::string(frame_kind_name(frame.kind)));
          }
          ctx.record(obs::FlightKind::Recv, frame.mb, frame.slice,
                     static_cast<std::int64_t>(frame.payload.size()),
                     backward ? "bwd" : "fwd");
          if (cfg.trace) {
            // Receive-side flow endpoint: same id the sender derived.
            const int src = backward ? stage + 1 : stage - 1;
            ctx.flows.push_back(
                {wire_flow_id(cfg.attempt, backward, src, frame.mb,
                              frame.slice),
                 ctx.now(), /*begin=*/0,
                 static_cast<std::uint8_t>(backward ? 1 : 0)});
          }
          Reader reader(frame.payload);
          machine.deliver({backward ? rt::Message::Kind::Backward
                                    : rt::Message::Kind::Forward,
                           frame.mb, frame.slice, frame.stage,
                           reader.tensor()});
          continue;
        }
        // Eof: the neighbor exited (cleanly or was killed between frames).
        // Torn/Corrupt: it died mid-frame — the partial message is
        // discarded, its microbatch simply stays unretired here. Either
        // way this worker keeps finishing what it can locally; the
        // supervisor owns the verdict.
        dead = true;
        if (io != IoStatus::Eof) {
          link.crc_rejects += 1;
          const std::string detail =
              std::string("neighbor link ") + io_status_name(io) +
              " (peer died mid-frame); tail discarded";
          ctx.instant("link lost", obs::kCatFault, detail);
          ctx.record(obs::FlightKind::Fault, frame.mb, frame.slice, 0,
                     io_status_name(io));
        }
        break;
      }
    }
  };

  // Runtime fault hooks fire on every picked message, like the threaded
  // backend's.
  const fault::StageRules& rules = cfg.faults.stage;
  auto on_pick = [&](const rt::Message& msg) {
    publish();
    const std::int64_t count = machine.messages();
    if (count == rules.hang_after) park_forever(ctx);
    if (count == rules.crash_after) {
      // A real crash: the process dies instantly, mid-protocol. No frame,
      // no cleanup — detection is the supervisor's problem. The breadcrumb
      // below never escapes (that's the point: only what was already
      // flushed survives into the postmortem tail).
      ctx.record(obs::FlightKind::Fault, msg.mb, msg.slice, count, "crash");
      ::raise(SIGKILL);
    }
    if (rules.delay_every > 0 && count % rules.delay_every == 0 &&
        rules.delay_seconds > 0.0) {
      if (ctx.events.empty() ||
          ctx.events.back().kind != fault::FaultEvent::Kind::Delay) {
        const std::string detail =
            "sleeping " + std::to_string(rules.delay_seconds) + " s every " +
            std::to_string(rules.delay_every) + " messages";
        ctx.events.push_back({fault::FaultEvent::Kind::Delay, stage,
                              ctx.now(), count, detail});
        ctx.instant("delay", obs::kCatFault, detail);
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(rules.delay_seconds));
    }
  };

  ctx.heartbeat_now();  // Hello already announced the transport; first beat

  std::vector<rt::Outgoing> sends;
  bool waiting = false;
  auto wait_start = obs::MonoClock::now();
  while (!machine.finished()) {
    drain_sockets();
    rt::Message msg;
    if (!machine.pick(msg, on_pick)) {
      // Nothing local and nothing on the wire: block (in heartbeat-sized
      // slices so the supervisor keeps hearing from us) until traffic
      // arrives or the starvation watchdog fires.
      if (!waiting) {
        waiting = true;
        wait_start = obs::MonoClock::now();
        ctx.status.state = static_cast<int>(rt::StageState::Waiting);
      }
      ctx.maybe_heartbeat();
      if (obs::MonoClock::now() - wait_start >= cfg.starvation_timeout) {
        ctx.status.state = static_cast<int>(rt::StageState::Starved);
        const std::string detail = "starved: " + machine.progress();
        ctx.instant("watchdog", obs::kCatFault, detail);
        ctx.events.push_back({fault::FaultEvent::Kind::Watchdog, stage,
                              ctx.now(), machine.messages(), detail});
        throw WorkerError("pipeline stage " + std::to_string(stage) +
                          " starved for " +
                          std::to_string(cfg.starvation_timeout.count()) +
                          " ms (" + detail + ")");
      }
      const double recv_start = ctx.now();
      const auto block_start = obs::MonoClock::now();
      std::vector<int> fds = {ctx.prev_dead ? -1 : cfg.prev_fd,
                              ctx.next_dead ? -1 : cfg.next_fd};
      const int slice_ms = static_cast<int>(std::min<std::int64_t>(
          cfg.heartbeat_interval.count(),
          std::max<std::int64_t>(1, cfg.starvation_timeout.count())));
      poll_readable_many(fds, slice_ms);
      ctx.blocked_recv_seconds +=
          std::chrono::duration<double>(obs::MonoClock::now() - block_start)
              .count();
      ctx.span(recv_start, "recv", obs::kCatComm);
      continue;
    }
    waiting = false;
    ctx.status.state = static_cast<int>(rt::StageState::Running);

    const double span_start = ctx.now();
    const auto busy_start = obs::MonoClock::now();
    const char* kind = rt::message_kind_name(msg.kind);
    const int mb = msg.mb, slice = msg.slice;
    ctx.record(obs::FlightKind::SpanBegin, mb, slice, 0, kind);
    const int retired = machine.run(std::move(msg), sends);
    for (rt::Outgoing& out : sends) {
      // The sockets link neighbours only.
      const bool downstream = out.dst == stage + 1;
      SLIM_CHECK(downstream || out.dst == stage - 1,
                 "process workers exchange messages with neighbours only");
      Frame frame;
      frame.kind = out.msg.kind == rt::Message::Kind::Forward
                       ? FrameKind::Forward
                       : FrameKind::Backward;
      frame.stage = out.msg.stage;
      frame.mb = out.msg.mb;
      frame.slice = out.msg.slice;
      Writer writer;
      writer.tensor(out.msg.payload);
      frame.payload = writer.take();
      bool& dead = downstream ? ctx.next_dead : ctx.prev_dead;
      if (!dead &&
          !send_data(ctx, downstream ? cfg.next_fd : cfg.prev_fd, frame)) {
        dead = true;
      }
    }
    sends.clear();
    if (retired >= 0) {
      // Microbatch retired on this stage: the staged gradients are final.
      // The Commit frame IS the commit point — sent exactly once, and a
      // SIGKILL before or during the send leaves the supervisor's slot
      // incomplete (replayed), never half-applied.
      publish();
      ctx.record(obs::FlightKind::Commit, retired, -1, machine.committed(),
                 "commit");
      // Flush BEFORE the Commit frame: the control socket is FIFO, so
      // whoever sees the commit already holds the breadcrumbs that led to
      // it — the postmortem tail of a worker killed at mid-commit is
      // deterministic, not heartbeat-cadence lottery.
      ctx.flush_flight();
      Frame commit;
      commit.kind = FrameKind::Commit;
      commit.stage = stage;
      commit.mb = retired;
      Writer writer;
      write_commit(writer, machine.commit(retired));
      commit.payload = writer.take();
      ctx.send_control(commit);
      ctx.instant("commit mb" + std::to_string(retired), obs::kCatCommit);
      // KillSpec MidCommit/PostCommit: die at this exact protocol point.
      if (machine.committed() == cfg.faults.kill_after_commits) {
        ::raise(SIGKILL);
      }
    }

    ctx.busy_seconds +=
        std::chrono::duration<double>(obs::MonoClock::now() - busy_start)
            .count();
    ctx.record(obs::FlightKind::SpanEnd, mb, slice, 0, kind);
    ctx.span(span_start,
             std::string(kind) + " mb" + std::to_string(mb) + " s" +
                 std::to_string(slice) + " st" + std::to_string(stage),
             obs::kCatCompute, mb, slice, stage);
    publish();
    ctx.maybe_heartbeat();
  }

  // All work retired: final status + metrics + trace in one Done frame.
  ctx.status.state = static_cast<int>(rt::StageState::Done);
  publish();
  WireStageDone done;
  done.status = ctx.status;
  done.busy_seconds = ctx.busy_seconds;
  done.comm_seconds = ctx.comm_seconds;
  done.blocked_recv_seconds = ctx.blocked_recv_seconds;
  done.p2p_messages = ctx.p2p_messages;
  done.p2p_bytes = ctx.p2p_bytes;
  done.peak_queue = ctx.peak_queue;
  done.peak_live = machine.peak_live();
  for (int c = 0; c < mem::kNumCategories; ++c) {
    done.arena_peak_bytes.push_back(arena_stats.peak_bytes(c));
  }
  done.arena_peak_total = arena_stats.total_peak_bytes();
  done.events = ctx.events;
  done.spans = ctx.spans;
  done.instants = ctx.instants;
  done.flows = ctx.flows;
  ctx.record(obs::FlightKind::Mark, -1, -1, ctx.status.committed, "done");
  ctx.flush_flight();
  Frame frame;
  frame.kind = FrameKind::Done;
  frame.stage = stage;
  Writer writer;
  write_stage_done(writer, done);
  frame.payload = writer.take();
  ctx.send_control(frame);
  return 0;
}

}  // namespace

int run_stage_worker(const WorkerConfig& config) {
  WorkerContext ctx;
  ctx.cfg = &config;
  ctx.start = obs::MonoClock::now();
  ctx.last_beat = ctx.start;
  ctx.flight = obs::FlightRecorder(
      static_cast<std::size_t>(std::max(1, config.flight_capacity)));
  ctx.drops_fired.assign(config.faults.drops.size(), 0);
  try {
    Frame hello;
    hello.kind = FrameKind::Hello;
    hello.stage = config.stage;
    ctx.send_control(hello);
    ctx.record(obs::FlightKind::Mark, -1, -1, config.attempt, "start");
    return run_stage_worker_impl(config, ctx);
  } catch (const std::exception& error) {
    // Structured failure: everything the supervisor needs for the
    // postmortem — final status, message, fault events — in one Error
    // frame, then exit(2). Never an uncaught throw (this process must not
    // run the parent's terminate handler or atexit chain).
    ctx.record(obs::FlightKind::Fault, -1, -1, ctx.status.messages,
               "error");
    ctx.flush_flight();
    Frame frame;
    frame.kind = FrameKind::Error;
    frame.stage = config.stage;
    Writer writer;
    write_status(writer, ctx.status);
    writer.str(error.what());
    writer.i32(static_cast<std::int32_t>(ctx.events.size()));
    for (const fault::FaultEvent& event : ctx.events) {
      write_event(writer, event);
    }
    frame.payload = writer.take();
    ctx.send_control(frame);
    return 2;
  } catch (...) {
    return 2;
  }
}

}  // namespace slim::dist

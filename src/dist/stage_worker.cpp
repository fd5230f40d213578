#include "src/dist/stage_worker.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/dist/wire.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/stage_driver.hpp"
#include "src/util/logging.hpp"

namespace slim::dist {

namespace {

/// Structured worker failure: reported in the Done frame, never as an
/// uncaught exception (the process must reach _exit, not std::terminate).
struct WorkerError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The process transport of one stage: arrivals from the two data sockets,
/// sends onto them under the plan's socket rules, Commit frames at
/// retirement, progress, metrics and the flight tail in heartbeats over the
/// control socket.
/// A crash is raise(SIGKILL); a hang parks the process, so its heartbeats
/// stop.
class SocketLink final : public rt::StageLink {
 public:
  SocketLink(const WorkerConfig& cfg, rt::StageRun& run)
      : cfg_(cfg),
        run_(run),
        prev_{cfg.prev_fd},
        next_{cfg.next_fd},
        last_beat_(obs::MonoClock::now()),
        drops_fired_(cfg.faults.drops.size(), 0) {}

  void receive(std::vector<rt::Message>& arrivals,
               std::chrono::milliseconds wait) override {
    const auto deadline = obs::MonoClock::now() + wait;
    for (;;) {
      // A link that closes ends the wait too: the driver then checks
      // whether its next row waited on that neighbour.
      const bool closed_now = drain(arrivals);
      const auto left = deadline - obs::MonoClock::now();
      if (!arrivals.empty() || closed_now || left <= left.zero()) return;
      // Block in heartbeat-sized slices so the supervisor keeps hearing
      // from us.
      maybe_heartbeat();
      const auto slice = std::min<std::chrono::milliseconds>(
          cfg_.heartbeat_interval,
          std::chrono::ceil<std::chrono::milliseconds>(left));
      poll_readable_many({prev_.closed ? -1 : prev_.fd,
                          next_.closed ? -1 : next_.fd},
                         static_cast<int>(std::max<std::int64_t>(
                             1, slice.count())));
    }
  }

  bool closed(int device) const override {
    if (device == cfg_.stage - 1) return prev_.closed;
    return device == cfg_.stage + 1 && next_.closed;
  }

  void send(rt::Outgoing out) override {
    // The sockets link neighbours only.
    const bool downstream = out.dst == cfg_.stage + 1;
    SLIM_CHECK(downstream || out.dst == cfg_.stage - 1,
               "process workers exchange messages with neighbours only");
    Peer& peer = downstream ? next_ : prev_;
    if (peer.broken) return;
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
    const bool sent = send_data(peer.fd, frame);
    // Both links count a tensor's bytes (the wire adds a 16-byte shape).
    ++run_.metrics.frames_sent;
    run_.metrics.p2p_bytes += static_cast<double>(out.msg.payload.size()) * 4.0;
    if (!sent) peer.broken = true;
  }

  void retire(rt::StageMachine& machine, int mb) override {
    // The Commit frame IS the commit point — sent exactly once, and a
    // SIGKILL before or during the send leaves the supervisor's slot
    // incomplete (replayed), never half-applied. Heartbeat BEFORE it: the
    // control socket is FIFO, so whoever sees the commit already holds the
    // flight tail that ends at its breadcrumb — the postmortem of a worker
    // killed at mid-commit is deterministic, not heartbeat-cadence lottery.
    heartbeat_now();
    Frame commit;
    commit.kind = FrameKind::Commit;
    commit.stage = cfg_.stage;
    commit.mb = mb;
    Writer writer;
    write_commit(writer, machine.commit(mb));
    commit.payload = writer.take();
    send_control(commit);
    // KillSpec MidCommit/PostCommit: die at this exact protocol point.
    if (machine.committed() == cfg_.faults.kill_after_commits) {
      ::raise(SIGKILL);
    }
  }

  void publish(const obs::StageProgress&) override { maybe_heartbeat(); }

  [[noreturn]] void crash() override {
    // A real crash: the process dies instantly, mid-protocol. No frame, no
    // cleanup — detection is the supervisor's problem; the postmortem tail
    // is the one the last heartbeat carried.
    ::raise(SIGKILL);
    std::_Exit(EXIT_FAILURE);  // not reached
  }

  [[noreturn]] void hang() override {
    // Heartbeats stop with the stage — exactly the signal the supervisor's
    // missed-heartbeat deadline exists to catch. A last heartbeat carries
    // the hang breadcrumb, so the postmortem tail ends at the hang. Parked
    // until SIGKILLed.
    heartbeat_now();
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  /// The worker's status as its heartbeats and Done frame carry it.
  obs::StageStatus status() const {
    return {run_.progress, run_.metrics, injected_delay_seconds_,
            run_.flight != nullptr ? run_.flight->tail()
                                   : std::vector<obs::FlightEvent>{}};
  }

  /// Ships a frame to the supervisor. A dead control socket means the
  /// supervisor is gone; the worker keeps running (it will be reaped) but
  /// stops talking.
  void send_control(const Frame& frame) {
    if (control_dead_) return;
    if (!send_frame(cfg_.control_fd, frame)) control_dead_ = true;
  }

  void heartbeat_now() {
    Frame beat;
    beat.kind = FrameKind::Heartbeat;
    beat.stage = cfg_.stage;
    Writer w;
    write_status(w, status());
    beat.payload = w.take();
    send_control(beat);
    last_beat_ = obs::MonoClock::now();
  }

 private:
  void maybe_heartbeat() {
    if (obs::MonoClock::now() - last_beat_ >= cfg_.heartbeat_interval) {
      heartbeat_now();
    }
  }

  /// Appends whatever the neighbour sockets have ready right now (keeps
  /// senders unblocked — AF_UNIX buffers are finite). Returns true when a
  /// socket closed.
  bool drain(std::vector<rt::Message>& arrivals) {
    bool closed_now = false;
    for (Peer* peer : {&prev_, &next_}) {
      if (peer->fd < 0 || peer->closed) continue;
      while (poll_readable(peer->fd, 0)) {
        Frame frame;
        const IoStatus io = recv_frame(peer->fd, &frame);
        if (io == IoStatus::Ok) {
          const bool backward = frame.kind == FrameKind::Backward;
          if (!backward && frame.kind != FrameKind::Forward) {
            throw WorkerError("stage " + std::to_string(cfg_.stage) +
                              ": unexpected data frame kind " +
                              std::string(frame_kind_name(frame.kind)));
          }
          Reader reader(frame.payload);
          arrivals.push_back({backward ? rt::Message::Kind::Backward
                                       : rt::Message::Kind::Forward,
                              frame.mb, frame.slice, frame.stage,
                              reader.tensor()});
          ++run_.metrics.frames_recv;
          run_.metrics.bytes_recv +=
              static_cast<double>(arrivals.back().payload.size()) * 4.0;
          continue;
        }
        // Eof: the neighbour exited (cleanly or was killed between frames).
        // Torn/Corrupt: it died mid-frame — the partial message is
        // discarded, its microbatch simply stays unretired here. Either
        // way this worker keeps finishing what it can locally; the
        // supervisor owns the verdict.
        peer->closed = true;
        closed_now = true;
        if (io != IoStatus::Eof) {
          ++run_.metrics.crc_rejects;
          const std::string detail =
              std::string("neighbor link ") + io_status_name(io) +
              " (peer died mid-frame); tail discarded";
          if (run_.recorder != nullptr) {
            run_.recorder->instant(cfg_.stage, "link lost", obs::kCatFault,
                                   detail);
          }
          run_.crumb(obs::FlightKind::Fault, frame.mb, frame.slice, 0,
                     io_status_name(io));
        }
        break;
      }
    }
    return closed_now;
  }

  /// Applies SocketDrop / SocketDelay / LinkFault rules to one data-frame
  /// send, then writes it. Returns false when the peer is gone.
  bool send_data(int fd, const Frame& frame) {
    const WorkerFaults& faults = cfg_.faults;
    ++data_sends_;

    // Drop with bounded retry: the affected transmit attempts are lost on
    // the wire; the sender backs off briefly and retransmits. A drop burst
    // longer than the retry budget is a structured send failure.
    for (std::size_t r = 0; r < faults.drops.size(); ++r) {
      const WorkerFaults::Drop& rule = faults.drops[r];
      if (rule.every < 1 || data_sends_ % rule.every != 0) continue;
      if (drops_fired_[r] >= rule.count) continue;
      const int burst =
          std::min(rule.count - drops_fired_[r], rule.max_retries + 1);
      const bool exhausted = rule.count - drops_fired_[r] > rule.max_retries;
      drops_fired_[r] += burst;
      const std::string detail =
          "data frame " + std::to_string(data_sends_) + " dropped " +
          std::to_string(burst) + "x" +
          (exhausted ? ", retry budget (" + std::to_string(rule.max_retries) +
                           ") exhausted"
                     : ", delivered on retry " + std::to_string(burst));
      run_.fault(fault::FaultEvent::Kind::SocketDrop, "socket drop", detail);
      run_.metrics.send_retries += burst;
      run_.crumb(obs::FlightKind::Fault, frame.mb, frame.slice, burst, "drop");
      if (exhausted) {
        throw WorkerError("stage " + std::to_string(cfg_.stage) + ": " +
                          detail);
      }
      for (int attempt = 0; attempt < burst; ++attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }

    // Injected latency: the sender genuinely sleeps before the write, so
    // the delay is measurable in the receiver's wall clock and the trace.
    double delay = 0.0;
    for (const WorkerFaults::Delay& rule : faults.socket_delays) {
      if (rule.every >= 1 && data_sends_ % rule.every == 0) {
        delay += rule.seconds;
      }
    }
    delay += faults.link_extra_latency;
    if (delay > 0.0) {
      if (injected_delay_seconds_ == 0.0) {
        run_.fault(fault::FaultEvent::Kind::SocketDelay, "socket delay",
                   "socket sends delayed (injected latency)");
      }
      injected_delay_seconds_ += delay;
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }

    return send_frame(fd, frame);
  }

  /// A data socket: `closed` once its EOF was read (all the neighbour sent
  /// has arrived), `broken` once a send to it failed (later sends drop).
  struct Peer {
    int fd = -1;
    bool closed = false, broken = false;
  };

  const WorkerConfig& cfg_;
  rt::StageRun& run_;
  Peer prev_, next_;
  bool control_dead_ = false;
  obs::MonoClock::time_point last_beat_;
  std::int64_t data_sends_ = 0;   // SocketDrop / SocketDelay rule counter
  std::vector<int> drops_fired_;  // per SocketDrop rule
  double injected_delay_seconds_ = 0.0;
};

}  // namespace

int run_stage_worker(const WorkerConfig& config) {
  // KillSpec PreForward: die before doing anything.
  if (config.faults.kill_after_commits == 0) ::raise(SIGKILL);
  rt::StageRun run;
  run.stage = config.stage;
  run.attempt = config.attempt;
  run.rules = config.faults.stage;
  run.starvation_timeout = config.starvation_timeout;
  run.epoch = config.epoch;
  obs::Recorder recorder(config.epoch);
  if (config.trace) run.recorder = &recorder;
  obs::FlightRecorder flight;
  if (config.flight) run.flight = &flight;
  // The arena sink outlives the machine whose layers report into it.
  num::ArenaStats arena;
  run.arena = &arena;
  SocketLink link(config, run);
  // The final report: status, fault events, trace and, on a failure, the
  // error message, in one Done frame.
  auto report = [&](const std::string& error) {
    Frame frame;
    frame.kind = FrameKind::Done;
    frame.stage = config.stage;
    Writer writer;
    write_stage_done(writer,
                     {link.status(), run.events, recorder.take(), error});
    frame.payload = writer.take();
    link.send_control(frame);
  };
  try {
    // The first heartbeat: alive, transport up.
    run.crumb(obs::FlightKind::Mark, -1, -1, config.attempt, "start");
    link.heartbeat_now();
    // The worker's parameter snapshot: a stage machine built from the
    // fork-inherited weights, arena-tracked so the supervisor can reconcile
    // measured peaks.
    rt::StageMachine machine(config.inputs, config.stage, config.mbs, &arena);
    rt::drive_stage(machine, link, run);

    // All work retired, or the next row waits on a neighbour that is gone
    // (starved, not a failure).
    run.crumb(obs::FlightKind::Mark, -1, -1, run.progress.committed,
              obs::stage_state_name(run.progress.state));
    report("");
    return 0;
  } catch (const std::exception& error) {
    // Structured failure: the same report with the message, then exit(2).
    // Never an uncaught throw (this process must not run the parent's
    // terminate handler or atexit chain).
    run.crumb(obs::FlightKind::Fault, -1, -1, run.progress.messages, "error");
    report(error.what());
    return 2;
  } catch (...) {
    return 2;
  }
}

}  // namespace slim::dist

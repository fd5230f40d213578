#include "src/dist/process_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include <sys/wait.h>
#include <unistd.h>

#include "src/dist/stage_worker.hpp"
#include "src/dist/wire.hpp"
#include "src/obs/clock.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/telemetry.hpp"
#include "src/runtime/replay.hpp"
#include "src/util/logging.hpp"
#include "src/util/thread_pool.hpp"

namespace slim::dist {

namespace {

// Every supervisor timestamp is on the run's monotonic clock (obs/clock.hpp).
using Clock = obs::MonoClock;

/// Workers beat this many times per heartbeat deadline.
constexpr int kBeatsPerDeadline = 40;

/// Supervisor-side view of one worker process.
struct WorkerHandle {
  int stage = -1;
  pid_t pid = -1;
  Fd control;  // parent end of the control socketpair
  obs::StageStatus status;  // the last heartbeat's, or the Done frame's
  Clock::time_point last_heard;
  bool control_eof = false;
  bool done = false;  // Done frame received
  bool exited = false;
  bool killed = false;  // SIGKILLed by the supervisor's verdict
  bool signaled = false;
  int exit_code = 0;
  int term_signal = 0;
  WireStageDone done_info;  // the Done frame, once `done`
};

/// Kills and reaps whatever is still alive when an attempt unwinds — no
/// exit path may leak a worker process.
struct Reaper {
  std::vector<WorkerHandle>* workers;
  ~Reaper() {
    if (workers == nullptr) return;
    for (WorkerHandle& w : *workers) {
      if (w.pid > 0 && !w.exited) {
        ::kill(w.pid, SIGKILL);
        int wstatus = 0;
        while (::waitpid(w.pid, &wstatus, 0) < 0 && errno == EINTR) {
        }
        w.exited = true;
      }
    }
  }
};

std::string describe_exit(const WorkerHandle& w) {
  if (w.signaled) {
    return std::string("killed by signal ") + std::to_string(w.term_signal) +
           " (" + ::strsignal(w.term_signal) + ")";
  }
  return "exited with code " + std::to_string(w.exit_code);
}

/// True when the worker's Done frame carries no error: it reported all it
/// had, so its reap is not judged, even if it then dies by signal.
bool reported(const WorkerHandle& w) {
  return w.done && w.done_info.error.empty();
}

/// The state column: how the worker exited if it died or failed, else its
/// own.
std::string state_of(const WorkerHandle& w) {
  return w.exited && !reported(w)
             ? describe_exit(w)
             : obs::stage_state_name(w.status.progress.state);
}

/// True when the worker ran every row (a starved one's Done frame says so).
bool finished(const WorkerHandle& w) {
  return reported(w) && w.status.progress.state == obs::StageState::Done;
}

/// Resolves the fault plan's runtime rules for one stage onto the real
/// transport (null on a replay: nothing armed).
WorkerFaults resolve_faults(const fault::FaultPlan* plan, int stage) {
  WorkerFaults faults;
  if (plan == nullptr) return faults;
  faults.stage = fault::stage_rules(*plan, stage);
  for (const fault::LinkFault& link : plan->links) {
    if (link.src == -1 || link.src == stage) {
      faults.link_extra_latency += link.extra_latency;
    }
  }
  for (const fault::SocketDrop& drop : plan->socket_drops) {
    if (drop.stage == -1 || drop.stage == stage) {
      faults.drops.push_back({drop.every, drop.count, drop.max_retries});
    }
  }
  for (const fault::SocketDelay& delay : plan->socket_delays) {
    if (delay.stage == -1 || delay.stage == stage) {
      faults.socket_delays.push_back({delay.every, delay.seconds});
    }
  }
  return faults;
}

}  // namespace

ProcessPipeline::ProcessPipeline(num::BlockDims dims, std::int64_t vocab,
                                 int layers_total, int stages, Rng& rng)
    : model_(rt::PipelineModel::build(dims, vocab, layers_total, stages, rng,
                                      /*chunks_per_stage=*/1)) {}

ProcessPipeline::Result ProcessPipeline::run_iteration(
    const std::vector<std::vector<std::int64_t>>& tokens,
    const std::vector<std::vector<std::int64_t>>& targets, int n_slices) {
  ProcessOptions options;
  options.n_slices = n_slices;
  return run_iteration(tokens, targets, options);
}

ProcessPipeline::Result ProcessPipeline::run_reference(
    const std::vector<std::vector<std::int64_t>>& tokens,
    const std::vector<std::vector<std::int64_t>>& targets) {
  return rt::reference_run(model_, tokens, targets);
}

ProcessPipeline::Result ProcessPipeline::run_iteration(
    const std::vector<std::vector<std::int64_t>>& tokens,
    const std::vector<std::vector<std::int64_t>>& targets,
    const ProcessOptions& options) {
  const int m = static_cast<int>(tokens.size());
  const int p = model_.stages;
  obs::Recorder* const rec = options.recorder;
  if (rec != nullptr) {
    rec->set_process_name(static_cast<std::int64_t>(::getpid()), "supervisor");
  }

  // Live telemetry state: each attempt refreshes last_snapshot on the
  // telemetry cadence; the iteration's tail writes the terminal phase.
  const bool telemetry_on = !options.telemetry_json_path.empty() ||
                            !options.telemetry_prom_path.empty();
  obs::LiveSnapshot last_snapshot;
  auto publish_snapshot = [&](const obs::LiveSnapshot& snap) {
    if (!options.telemetry_json_path.empty()) {
      obs::write_atomic(options.telemetry_json_path,
                        obs::snapshot_to_json(snap).dump(2));
    }
    if (!options.telemetry_prom_path.empty()) {
      obs::write_atomic(options.telemetry_prom_path,
                        obs::prometheus_text(snap));
    }
  };
  Clock::time_point run_epoch;  // the replay loop's run clock

  // KillSpec arming: once overall, or on every attempt when persistent.
  int kills_left = options.kill.phase == KillSpec::Phase::None ||
                           options.kill.stage < 0 || options.kill.stage >= p
                       ? 0
                       : (options.kill.persistent
                              ? std::numeric_limits<int>::max()
                              : 1);

  // ---- one attempt: fork, supervise and reap a worker per stage ----
  auto run_attempt = [&](const rt::Attempt& attempt) -> rt::AttemptEnd {
    run_epoch = attempt.epoch;
    const int mk = static_cast<int>(attempt.mbs.size());
    rt::AttemptEnd end;

    // Transport setup: one socketpair per adjacent stage boundary, with
    // bounded retry over injected transient connect failures.
    std::vector<SocketPair> boundaries;
    for (int b = 0; b + 1 < p; ++b) {
      int fail_first = 0;
      int rule_stage = -1;
      if (attempt.faults != nullptr) {
        for (const fault::SocketConnectFail& rule :
             attempt.faults->socket_connect_fails) {
          // A rule names the stage whose adjacent transport flaps; that is
          // the boundary upstream of the stage (downstream for stage 0).
          const int affected = std::min(rule.stage, p - 2);
          if (affected == b) {
            fail_first = std::max(fail_first, rule.failures);
            rule_stage = rule.stage;
          }
        }
      }
      boundaries.push_back(connect_with_retry(
          fail_first, [&](int retry) {
            const std::string detail =
                "transport stage " + std::to_string(b) + "<->" +
                std::to_string(b + 1) + " connect failed (attempt " +
                std::to_string(retry) + "), retrying";
            end.events.push_back({fault::FaultEvent::Kind::ConnectRetry,
                                  rule_stage, attempt.now(), retry, detail});
            if (rec != nullptr) {
              rec->instant(std::max(0, rule_stage), "connect retry",
                           obs::kCatFault, detail);
            }
          }));
    }
    std::vector<SocketPair> controls;
    for (int s = 0; s < p; ++s) controls.push_back(make_socket_pair());
    // Raw parent-end fds, snapshotted before any Fd is moved into a
    // WorkerHandle — later children must still close earlier parent ends.
    std::vector<int> parent_control_fds;
    for (const SocketPair& pair : controls) {
      parent_control_fds.push_back(pair.a.get());
    }

    std::vector<WorkerHandle> workers(static_cast<std::size_t>(p));
    Reaper reaper{&workers};

    const bool kill_armed = kills_left > 0;
    const KillSpec& kill = options.kill;

    for (int s = 0; s < p; ++s) {
      WorkerHandle& w = workers[static_cast<std::size_t>(s)];
      w.stage = s;
      WorkerConfig cfg;
      cfg.inputs = attempt.inputs;
      cfg.stage = s;
      cfg.mbs = attempt.mbs;
      cfg.prev_fd = s > 0 ? boundaries[static_cast<std::size_t>(s - 1)].b.get()
                          : -1;
      cfg.next_fd =
          s + 1 < p ? boundaries[static_cast<std::size_t>(s)].a.get() : -1;
      cfg.control_fd = controls[static_cast<std::size_t>(s)].b.get();
      cfg.epoch = attempt.epoch;
      cfg.heartbeat_interval = options.heartbeat_timeout / kBeatsPerDeadline;
      cfg.starvation_timeout = options.starvation_timeout;
      cfg.trace = rec != nullptr;
      cfg.attempt = attempt.index;
      cfg.flight = options.flight;
      cfg.faults = resolve_faults(attempt.faults, s);
      if (kill_armed && kill.stage == s) {
        // The worker raises SIGKILL itself at an exact protocol point, like
        // stage_crash: at its start (PreForward), or right after sending its
        // first (MidCommit) or last (PostCommit) Commit frame. A SIGKILL sent
        // from here after the fork would race the worker it kills.
        cfg.faults.kill_after_commits =
            kill.phase == KillSpec::Phase::PreForward  ? 0
            : kill.phase == KillSpec::Phase::MidCommit ? 1
                                                       : mk;
        --kills_left;
      }

      // fork() while holding the kernel pool's lock: the child inherits
      // the pool in a known state, reinitializes it, runs the stage
      // single-threaded and leaves only via _exit — the parent's atexit
      // chain, stdio buffers and terminate handler never run twice.
      pid_t pid = -1;
      util::ThreadPool::global().run_locked([&] {
        pid = ::fork();
        SLIM_CHECK(pid >= 0,
                   std::string("fork failed: ") + std::strerror(errno));
        if (pid == 0) {
          util::ThreadPool::global().child_after_fork();
          // Keep only this stage's three sockets; close every other end so
          // EOF propagates correctly when peers die.
          for (int b = 0; b + 1 < p; ++b) {
            if (b != s - 1) ::close(boundaries[static_cast<std::size_t>(b)].b.get());
            if (b != s) ::close(boundaries[static_cast<std::size_t>(b)].a.get());
          }
          for (int c = 0; c < p; ++c) {
            ::close(parent_control_fds[static_cast<std::size_t>(c)]);
            if (c != s) ::close(controls[static_cast<std::size_t>(c)].b.get());
          }
          ::_exit(run_stage_worker(cfg));
        }
      });
      w.pid = pid;
      w.last_heard = Clock::now();
      w.control = std::move(controls[static_cast<std::size_t>(s)].a);
      if (rec != nullptr) {
        rec->set_track_pid(s, static_cast<std::int64_t>(pid));
        rec->set_process_name(static_cast<std::int64_t>(pid),
                              "stage " + std::to_string(s) + " worker");
      }
    }
    // Parent relinquishes the data plane and the worker ends of the
    // control plane: stage-to-stage traffic is theirs alone.
    boundaries.clear();
    for (SocketPair& pair : controls) pair.b.reset();
    controls.clear();

    // A verdict kills its worker if still alive, so the worker's sockets
    // close and each survivor stops at its first row waiting on it. The
    // first verdict is the attempt's.
    auto fail = [&](WorkerHandle& w, const std::string& detail) {
      if (!w.exited && !w.killed) {
        ::kill(w.pid, SIGKILL);
        w.killed = true;
      }
      if (end.culprit >= 0) return;
      end.culprit = w.stage;
      end.detail = detail;
    };

    // One row per worker: its last status, heartbeat or Done frame, beside
    // what only the supervisor knows. The live snapshots and the postmortem
    // print the same rows.
    auto rows = [&] {
      const auto now = Clock::now();
      std::vector<obs::StageLive> out;
      for (const WorkerHandle& w : workers) {
        const std::vector<obs::FlightEvent>& flight = w.status.flight;
        out.push_back(
            {w.stage, static_cast<std::int64_t>(w.pid), state_of(w),
             std::chrono::duration<double>(now - w.last_heard).count(),
             flight.empty() ? 0
                            : static_cast<std::int64_t>(flight.back().seq + 1),
             attempt.respawns[static_cast<std::size_t>(w.stage)],
             w.status.progress, w.status.metrics});
      }
      return out;
    };

    // The rows as a LiveSnapshot for the JSON/Prometheus publishers (and
    // the final done/failed write).
    auto snapshot = [&](std::vector<obs::StageLive> live) {
      return obs::LiveSnapshot{attempt.now(),
                               end.culprit >= 0 ? "draining" : "running",
                               attempt.index, m, attempt.ledger.merged(),
                               std::move(live)};
    };

    // Reads every frame a worker's control socket has ready.
    auto read_worker = [&](WorkerHandle& w) {
      while (w.control.valid() && !w.control_eof &&
             poll_readable(w.control.get(), 0)) {
        Frame frame;
        const IoStatus io = recv_frame(w.control.get(), &frame);
        if (io != IoStatus::Ok) {
          // Torn/Corrupt: the worker died mid-send. If it was a Commit
          // frame, the tail is discarded and the slot stays incomplete —
          // the microbatch is simply replayed (at-most-once semantics).
          w.control_eof = true;
          if (io != IoStatus::Eof) {
            end.events.push_back(
                {fault::FaultEvent::Kind::Crash, w.stage, attempt.now(),
                 w.status.progress.messages,
                 std::string("control frame ") + io_status_name(io) +
                     "; half-written tail discarded"});
          }
          return;
        }
        w.last_heard = Clock::now();
        switch (frame.kind) {
          case FrameKind::Heartbeat: {
            Reader r(frame.payload);
            w.status = read_status(r);
            break;
          }
          case FrameKind::Commit: {
            Reader r(frame.payload);
            attempt.ledger.slot(w.stage, frame.mb) = read_commit(r);
            break;
          }
          case FrameKind::Done: {
            // The worker exits right after; one with an error is judged at
            // its reap.
            Reader r(frame.payload);
            w.done_info = read_stage_done(r);
            w.done = true;
            w.status = w.done_info.status;
            break;
          }
          default:
            fail(w, std::string("unexpected control frame: ") +
                        frame_kind_name(frame.kind));
        }
      }
    };

    // ---- supervision loop: heartbeats, commits, reaping, deadlines ----
    // It ends with the last worker: after a failure each survivor stops
    // where the table says and reports.
    Clock::time_point next_telemetry = Clock::now();
    for (;;) {
      bool all_exited = true;
      for (const WorkerHandle& w : workers) all_exited &= w.exited;
      if (all_exited) break;

      std::vector<int> fds;
      for (const WorkerHandle& w : workers) {
        fds.push_back(w.control_eof ? -1 : w.control.get());
      }
      poll_readable_many(fds, 10);
      for (WorkerHandle& w : workers) read_worker(w);

      if (telemetry_on && Clock::now() >= next_telemetry) {
        last_snapshot = snapshot(rows());
        publish_snapshot(last_snapshot);
        next_telemetry = Clock::now() + options.telemetry_interval;
      }

      for (WorkerHandle& w : workers) {
        if (w.exited || w.pid <= 0) continue;
        int wstatus = 0;
        const pid_t reaped = ::waitpid(w.pid, &wstatus, WNOHANG);
        if (reaped == w.pid) {
          w.exited = true;
          if (WIFSIGNALED(wstatus)) {
            w.signaled = true;
            w.term_signal = WTERMSIG(wstatus);
          } else {
            w.exit_code = WEXITSTATUS(wstatus);
          }
          // Frames sent before death are still in the socket buffer —
          // drain before judging (a clean worker's Done may race the reap).
          read_worker(w);
          if (!reported(w)) {
            if (w.signaled) {
              // A worker killed on a verdict was reported there; only a
              // death the supervisor did not cause is a crash.
              if (!w.killed) {
                end.events.push_back(
                    {fault::FaultEvent::Kind::Crash, w.stage, attempt.now(),
                     w.status.progress.messages,
                     "stage " + std::to_string(w.stage) + " " +
                         describe_exit(w)});
                if (rec != nullptr) {
                  rec->instant(w.stage, "crash", obs::kCatFault,
                               describe_exit(w));
                }
              }
              fail(w, describe_exit(w));
            } else if (!w.done_info.error.empty()) {
              fail(w, w.done_info.error);
            } else {
              fail(w, describe_exit(w) + " before finishing its work");
            }
          }
        }
      }

      // Missed-heartbeat deadline: a live worker silent for too long is
      // hung (injected hang, wedged syscall, livelock) — the verdict
      // SIGKILLs it and the replay machinery takes over. A killed worker
      // stays silent until it is reaped; it is judged once.
      const auto now = Clock::now();
      for (WorkerHandle& w : workers) {
        if (w.exited || w.done || w.killed || w.pid <= 0) continue;
        if (now - w.last_heard > options.heartbeat_timeout) {
          const std::string detail =
              "stage " + std::to_string(w.stage) + " missed heartbeats for " +
              std::to_string(std::chrono::duration_cast<
                                 std::chrono::milliseconds>(now - w.last_heard)
                                 .count()) +
              " ms (deadline " +
              std::to_string(options.heartbeat_timeout.count()) +
              " ms); killed";
          end.events.push_back({fault::FaultEvent::Kind::Watchdog, w.stage,
                                attempt.now(), w.status.progress.messages,
                                detail});
          if (rec != nullptr) {
            rec->instant(w.stage, "watchdog", obs::kCatFault, detail);
          }
          fail(w, detail);
        }
      }
    }

    // Every worker exited and was read to EOF. Work left uncommitted fails
    // the attempt even without a verdict: a partial ledger never merges.
    if (end.culprit < 0) {
      for (WorkerHandle& w : workers) {
        if (finished(w)) continue;
        fail(w, "stage " + std::to_string(w.stage) + " stopped " +
                    state_of(w) + " with work uncommitted");
        break;
      }
    }
    // The rows once, for the postmortem and the attempt's last snapshot.
    if (end.culprit >= 0 || telemetry_on) {
      std::vector<obs::StageLive> live = rows();
      if (end.culprit >= 0) {
        end.table = obs::stage_table(live);
        // Breadcrumbs of every worker that did not finish: the flight tail
        // its last status carried shows what the stage was doing when it
        // died, hung or starved, not just that it did.
        for (const WorkerHandle& w : workers) {
          if (finished(w) || w.status.flight.empty()) continue;
          end.table += "\nstage " + std::to_string(w.stage) +
                       " flight recorder tail (last " +
                       std::to_string(w.status.flight.size()) + " events):\n";
          end.table += obs::render_flight_tail(w.status.flight);
        }
      }
      if (telemetry_on) last_snapshot = snapshot(std::move(live));
    }

    // Each stage's last status, whole: the Done frame's when the worker
    // finished, the final heartbeat's when it died, so a crashed attempt's
    // work counts.
    for (WorkerHandle& w : workers) {
      end.stages.push_back(
          {std::move(w.status), std::move(w.done_info.events)});
      // The worker recorded on the run clock already.
      if (rec != nullptr && w.done) rec->append(std::move(w.done_info.trace));
    }
    return end;
  };

  // The replay loop takes the options both runtimes share.
  rt::RunOptions shared;
  shared.n_slices = options.n_slices;
  shared.layouts = options.layouts;
  shared.faults = options.faults;
  shared.recover = options.recover;
  shared.report = options.report;
  shared.recorder = rec;
  // The terminal snapshot: the last in-attempt one, with its final phase.
  auto publish_final = [&](const char* phase) {
    if (!telemetry_on) return;
    last_snapshot.phase = phase;
    last_snapshot.ts =
        std::chrono::duration<double>(Clock::now() - run_epoch).count();
    publish_snapshot(last_snapshot);
  };
  try {
    Result result = rt::run_replayed(model_, tokens, targets, shared, "dist",
                                     "slimpipe", run_attempt);
    // Every microbatch merged; the last in-attempt snapshot predates the
    // final merge.
    last_snapshot.merged_microbatches = m;
    publish_final("done");
    return result;
  } catch (const rt::PipelineError&) {
    publish_final("failed");
    throw;
  }
}

}  // namespace slim::dist

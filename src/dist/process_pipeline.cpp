#include "src/dist/process_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include <sys/wait.h>
#include <unistd.h>

#include "src/core/slice.hpp"
#include "src/dist/stage_worker.hpp"
#include "src/dist/wire.hpp"
#include "src/obs/clock.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/telemetry.hpp"
#include "src/util/logging.hpp"
#include "src/util/table.hpp"
#include "src/util/thread_pool.hpp"

namespace slim::dist {

namespace {

// Every supervisor timestamp is on the run's monotonic clock (obs/clock.hpp).
using Clock = obs::MonoClock;

/// Supervisor-side view of one worker process.
struct WorkerHandle {
  int stage = -1;
  pid_t pid = -1;
  Fd control;  // parent end of the control socketpair
  WireStatus status;
  Clock::time_point last_heard;
  Clock::time_point last_ping;
  double fork_offset = 0.0;  // recorder time at fork (trace re-basing)
  /// Ping/pong offset estimator: maps this worker's event timestamps onto
  /// the run clock. Until the first pong lands, fork_offset is the fallback.
  obs::ClockAligner aligner;
  /// Last-K flight-recorder events recovered from Telemetry flushes — the
  /// postmortem breadcrumb trail of a worker that dies without a Done frame.
  std::deque<obs::FlightEvent> flight;
  std::uint64_t flight_dropped = 0;
  bool control_eof = false;
  bool done = false;  // Done frame received
  bool exited = false;
  bool signaled = false;
  int exit_code = 0;
  int term_signal = 0;
  bool have_done = false;
  WireStageDone done_info;
  std::string error_detail;
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

/// Resolves the fault plan's runtime rules for one stage onto the real
/// transport (armed only on injecting attempts).
WorkerFaults resolve_faults(const fault::FaultPlan* plan, int stage,
                            bool inject) {
  WorkerFaults faults;
  if (!inject || plan == nullptr) return faults;
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
  rt::ReferenceResult reference = rt::reference_run(model_, tokens, targets);
  Result result;
  result.loss = reference.loss;
  result.grads = std::move(reference.grads);
  return result;
}

ProcessPipeline::Result ProcessPipeline::run_iteration(
    const std::vector<std::vector<std::int64_t>>& tokens,
    const std::vector<std::vector<std::int64_t>>& targets,
    const ProcessOptions& options) {
  const int n_slices = options.n_slices;
  const int m = static_cast<int>(tokens.size());
  const int p = model_.stages;
  const std::vector<core::SliceLayout> layouts =
      rt::resolve_layouts(tokens, targets, n_slices, options.layouts);
  const fault::FaultPlan* plan = options.faults;
  if (plan != nullptr) {
    const std::vector<fault::PlanIssue> issues = fault::validate(*plan, p);
    SLIM_CHECK(issues.empty(), "invalid fault plan:\n" + fault::render(issues));
  }
  obs::Recorder* const rec = options.recorder;
  if (rec != nullptr) {
    for (int s = 0; s < p; ++s) {
      rec->set_track_name(s, "stage " + std::to_string(s));
    }
    rec->set_process_name(static_cast<std::int64_t>(::getpid()), "supervisor");
  }
  // The run clock: the recorder's epoch when tracing, else this iteration's
  // start. Pings carry it as t1 and pongs return to it as t4.
  const Clock::time_point run_epoch = Clock::now();
  auto run_now = [&]() -> double {
    return rec != nullptr
               ? rec->now()
               : std::chrono::duration<double>(Clock::now() - run_epoch)
                     .count();
  };

  Result result;
  result.stats.peak_live_slices.assign(static_cast<std::size_t>(p), 0);
  result.stats.messages.assign(static_cast<std::size_t>(p), 0);
  rt::CommitLedger ledger(model_, m, /*vocab_parallel=*/false);
  fault::FaultReport iteration_report;

  // Per-stage metrics accumulate across attempts (a respawned stage keeps
  // folding into the same row, like the threaded backend's probes).
  std::vector<obs::StageMetrics>& stage_metrics = result.stats.metrics.stages;
  stage_metrics.resize(static_cast<std::size_t>(p));
  double wall_seconds = 0.0;

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
  std::vector<int> respawns(static_cast<std::size_t>(p), 0);
  int attempt_index = 0;

  // KillSpec arming: once overall, or on every attempt when persistent.
  int kills_left = options.kill.phase == KillSpec::Phase::None ||
                           options.kill.stage < 0 || options.kill.stage >= p
                       ? 0
                       : (options.kill.persistent
                              ? std::numeric_limits<int>::max()
                              : 1);

  struct AttemptOutcome {
    bool failed = false;
    int culprit = -1;
    std::string detail;
    std::string table;
  };

  // ---- one pipeline attempt over a subset of the microbatches ----
  auto run_attempt = [&](const std::vector<int>& mbs,
                         bool inject) -> AttemptOutcome {
    const int mk = static_cast<int>(mbs.size());
    SLIM_CHECK(mk >= 1, "attempt without microbatches");
    for (int s = 0; s < p; ++s) {
      for (const int mb : mbs) ledger.prepare(s, mb);
    }

    const auto attempt_start = Clock::now();

    // Transport setup: one socketpair per adjacent stage boundary, with
    // bounded retry over injected transient connect failures.
    std::vector<SocketPair> boundaries;
    for (int b = 0; b + 1 < p; ++b) {
      int fail_first = 0;
      int rule_stage = -1;
      if (inject && plan != nullptr) {
        for (const fault::SocketConnectFail& rule :
             plan->socket_connect_fails) {
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
          fail_first, fail_first + 3, [&](int attempt) {
            const std::string detail =
                "transport stage " + std::to_string(b) + "<->" +
                std::to_string(b + 1) + " connect failed (attempt " +
                std::to_string(attempt) + "), retrying";
            iteration_report.events.push_back(
                {fault::FaultEvent::Kind::ConnectRetry, rule_stage,
                 rec != nullptr ? rec->now() : 0.0, attempt, detail});
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
      w.fork_offset = rec != nullptr ? rec->now() : 0.0;
      WorkerConfig cfg;
      cfg.inputs = {&model_, &tokens, &targets, &layouts, n_slices, false};
      cfg.stage = s;
      cfg.mbs = mbs;
      cfg.prev_fd = s > 0 ? boundaries[static_cast<std::size_t>(s - 1)].b.get()
                          : -1;
      cfg.next_fd =
          s + 1 < p ? boundaries[static_cast<std::size_t>(s)].a.get() : -1;
      cfg.control_fd = controls[static_cast<std::size_t>(s)].b.get();
      cfg.heartbeat_interval = options.heartbeat_interval;
      cfg.starvation_timeout = options.starvation_timeout;
      cfg.trace = rec != nullptr;
      cfg.attempt = attempt_index;
      cfg.flight = options.flight;
      cfg.flight_capacity = options.flight_capacity;
      cfg.faults = resolve_faults(plan, s, inject);
      const bool kill_here = kill_armed && kill.stage == s;
      if (kill_here && (kill.phase == KillSpec::Phase::MidCommit ||
                        kill.phase == KillSpec::Phase::PostCommit)) {
        // The worker raises SIGKILL itself right after sending its first
        // (MidCommit) or last (PostCommit) Commit frame — an exact
        // protocol point, like stage_crash.
        cfg.faults.kill_after_commits =
            kill.phase == KillSpec::Phase::MidCommit ? 1 : mk;
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
      // Backdated so the first supervision-loop pass pings immediately —
      // clock alignment is useful from the first heartbeat on.
      w.last_ping = Clock::now() - options.ping_interval;
      w.control = std::move(controls[static_cast<std::size_t>(s)].a);
      if (rec != nullptr) {
        rec->set_track_pid(s, static_cast<std::int64_t>(pid));
        rec->set_process_name(static_cast<std::int64_t>(pid),
                              "stage " + std::to_string(s) + " worker");
      }

      if (kill_here && kill.phase == KillSpec::Phase::PreForward) {
        // Real SIGKILL before the stage completes any forward: the worker
        // was just forked and the rest of the pipeline is not even up.
        ::kill(pid, SIGKILL);
        --kills_left;
      }
    }
    // Parent relinquishes the data plane and the worker ends of the
    // control plane: stage-to-stage traffic is theirs alone.
    boundaries.clear();
    for (SocketPair& pair : controls) pair.b.reset();
    controls.clear();

    AttemptOutcome outcome;
    Clock::time_point drain_until{};
    auto fail = [&](int stage, const std::string& detail) {
      if (outcome.failed) return;
      outcome.failed = true;
      outcome.culprit = stage;
      outcome.detail = detail;
      drain_until = Clock::now() + options.drain_grace;
    };

    auto postmortem = [&]() -> std::string {
      Table table({"stage", "state", "beat age ms", "messages", "fwd", "bwd",
                   "live", "cap", "deferred", "queue", "last mb",
                   "committed mbs"});
      const auto now = Clock::now();
      for (const WorkerHandle& w : workers) {
        const int cap = core::slimpipe_warmup_units(p, w.stage, n_slices, 1);
        std::string state = rt::stage_state_name(
            static_cast<rt::StageState>(w.status.state));
        if (w.exited && !w.done) state = describe_exit(w);
        const auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
            now - w.last_heard);
        table.add_row(
            {std::to_string(w.stage), state, std::to_string(age.count()),
             std::to_string(w.status.messages),
             std::to_string(w.status.done_f) + "/" +
                 std::to_string(mk * n_slices),
             std::to_string(w.status.done_b) + "/" +
                 std::to_string(mk * n_slices),
             std::to_string(w.status.live), std::to_string(cap),
             std::to_string(w.status.deferred), std::to_string(w.status.queue),
             w.status.last_mb < 0 ? std::string("-")
                                  : std::to_string(w.status.last_mb),
             std::to_string(w.status.committed) + "/" + std::to_string(mk)});
      }
      std::string out = table.to_string();
      // Breadcrumbs of every worker that did not finish cleanly: the last-K
      // flight-recorder events recovered from its Telemetry flushes show
      // what the stage was doing when it died/hung, not just that it did.
      for (const WorkerHandle& w : workers) {
        if (w.done || w.flight.empty()) continue;
        out += "\nstage " + std::to_string(w.stage) +
               " flight recorder tail (last " +
               std::to_string(w.flight.size()) + " recovered events, " +
               std::to_string(w.flight_dropped) + " dropped before flush):\n";
        out += obs::render_flight_tail(
            std::vector<obs::FlightEvent>(w.flight.begin(), w.flight.end()));
      }
      return out;
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
            iteration_report.events.push_back(
                {fault::FaultEvent::Kind::Crash, w.stage,
                 rec != nullptr ? rec->now() : 0.0, w.status.messages,
                 std::string("control frame ") + io_status_name(io) +
                     "; half-written tail discarded"});
          }
          return;
        }
        w.last_heard = Clock::now();
        switch (frame.kind) {
          case FrameKind::Hello:
            break;
          case FrameKind::Heartbeat: {
            Reader r(frame.payload);
            w.status = read_status(r);
            break;
          }
          case FrameKind::Commit: {
            Reader r(frame.payload);
            ledger.slot(w.stage, frame.mb) = read_commit(r);
            break;
          }
          case FrameKind::Event:
            break;  // reserved; events currently ride in Done/Error frames
          case FrameKind::Telemetry: {
            // Flight-recorder flush: keep the last flight_tail events as the
            // worker's recoverable breadcrumb trail.
            Reader r(frame.payload);
            WireFlightFlush flush = read_flight_flush(r);
            w.flight_dropped += flush.dropped;
            const std::size_t keep =
                static_cast<std::size_t>(std::max(1, options.flight_tail));
            for (const obs::FlightEvent& event : flush.events) {
              w.flight.push_back(event);
              if (w.flight.size() > keep) w.flight.pop_front();
            }
            break;
          }
          case FrameKind::Pong: {
            // NTP 4-timestamp clock sample: t1 (ours, echoed), t2/t3
            // (worker clock), t4 = now on the run clock.
            Reader r(frame.payload);
            obs::ClockSample sample;
            sample.t1 = r.f64();
            sample.t2 = r.f64();
            sample.t3 = r.f64();
            sample.t4 = run_now();
            w.aligner.add(sample);
            break;
          }
          case FrameKind::Error: {
            Reader r(frame.payload);
            w.status = read_status(r);
            w.error_detail = r.str();
            const std::int32_t n_events = r.i32();
            for (std::int32_t i = 0; i < n_events; ++i) {
              iteration_report.events.push_back(read_event(r));
            }
            fail(w.stage, w.error_detail);
            break;
          }
          case FrameKind::Done: {
            Reader r(frame.payload);
            w.done_info = read_stage_done(r);
            w.have_done = true;
            w.done = true;
            w.status = w.done_info.status;
            break;
          }
          default:
            fail(w.stage, std::string("unexpected control frame: ") +
                              frame_kind_name(frame.kind));
        }
      }
    };

    // Folds the workers' latest heartbeat counters into a LiveSnapshot for
    // the JSON/Prometheus publishers (and the final done/failed write).
    auto build_snapshot = [&](const std::string& phase) {
      obs::LiveSnapshot snap;
      snap.ts = run_now();
      snap.phase = phase;
      snap.attempt = attempt_index;
      snap.microbatches = m;
      snap.merged_microbatches = ledger.merged();
      const auto now = Clock::now();
      for (const WorkerHandle& w : workers) {
        obs::StageLive live;
        live.stage = w.stage;
        live.pid = static_cast<std::int64_t>(w.pid);
        live.state =
            w.exited && !w.done
                ? describe_exit(w)
                : rt::stage_state_name(
                      static_cast<rt::StageState>(w.status.state));
        live.beat_age_seconds =
            std::chrono::duration<double>(now - w.last_heard).count();
        live.messages = w.status.messages;
        live.done_f = w.status.done_f;
        live.want_f = mk * n_slices;
        live.done_b = w.status.done_b;
        live.want_b = mk * n_slices;
        live.live = w.status.live;
        live.live_cap = core::slimpipe_warmup_units(p, w.stage, n_slices, 1);
        live.queue = w.status.queue;
        live.deferred = w.status.deferred;
        live.committed = w.status.committed;
        live.committed_total = mk;
        live.frames_out = w.status.prev.frames_out + w.status.next.frames_out;
        live.frames_in = w.status.prev.frames_in + w.status.next.frames_in;
        live.bytes_out = static_cast<double>(w.status.prev.bytes_out +
                                             w.status.next.bytes_out);
        live.bytes_in = static_cast<double>(w.status.prev.bytes_in +
                                            w.status.next.bytes_in);
        live.crc_rejects =
            w.status.prev.crc_rejects + w.status.next.crc_rejects;
        live.retries = w.status.prev.retries + w.status.next.retries;
        live.arena_peak_bytes = stage_metrics[static_cast<std::size_t>(w.stage)]
                                    .measured_peak_total;
        if (w.aligner.aligned()) {
          live.clock_offset_seconds = w.aligner.offset();
          live.clock_uncertainty_seconds = w.aligner.uncertainty();
        }
        live.flight_events = w.status.flight_recorded;
        live.respawns = respawns[static_cast<std::size_t>(w.stage)];
        snap.stages.push_back(live);
      }
      return snap;
    };

    // ---- supervision loop: heartbeats, commits, reaping, deadlines ----
    Clock::time_point next_telemetry = Clock::now();
    for (;;) {
      bool all_exited = true;
      for (const WorkerHandle& w : workers) all_exited &= w.exited;
      if (all_exited) break;
      if (outcome.failed && Clock::now() >= drain_until) break;

      std::vector<int> fds;
      for (const WorkerHandle& w : workers) {
        fds.push_back(w.control_eof ? -1 : w.control.get());
      }
      poll_readable_many(fds, 10);
      for (WorkerHandle& w : workers) read_worker(w);

      // Clock-alignment pings. A dead peer just makes send_frame fail
      // (MSG_NOSIGNAL) — its EOF is picked up by the read path.
      for (WorkerHandle& w : workers) {
        if (w.exited || w.done || w.control_eof || !w.control.valid()) {
          continue;
        }
        if (Clock::now() - w.last_ping < options.ping_interval) continue;
        Frame ping;
        ping.kind = FrameKind::Ping;
        ping.stage = w.stage;
        Writer writer;
        writer.f64(run_now());
        ping.payload = writer.take();
        send_frame(w.control.get(), ping);
        w.last_ping = Clock::now();
      }

      if (telemetry_on && Clock::now() >= next_telemetry) {
        last_snapshot =
            build_snapshot(outcome.failed ? "draining" : "running");
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
          if (!w.done) {
            if (w.signaled) {
              iteration_report.events.push_back(
                  {fault::FaultEvent::Kind::Crash, w.stage,
                   rec != nullptr ? rec->now() : 0.0, w.status.messages,
                   "stage " + std::to_string(w.stage) + " " +
                       describe_exit(w)});
              if (rec != nullptr) {
                rec->instant(w.stage, "crash", obs::kCatFault,
                             describe_exit(w));
              }
              fail(w.stage, describe_exit(w));
            } else if (!w.error_detail.empty()) {
              fail(w.stage, w.error_detail);
            } else {
              fail(w.stage, describe_exit(w) + " before finishing its work");
            }
          }
        }
      }

      // Missed-heartbeat deadline: a live worker silent for too long is
      // hung (injected hang, wedged syscall, livelock) — SIGKILL it and
      // let the replay machinery take over.
      const auto now = Clock::now();
      for (WorkerHandle& w : workers) {
        if (w.exited || w.done || w.pid <= 0) continue;
        if (now - w.last_heard > options.heartbeat_timeout) {
          const std::string detail =
              "stage " + std::to_string(w.stage) + " missed heartbeats for " +
              std::to_string(std::chrono::duration_cast<
                                 std::chrono::milliseconds>(now - w.last_heard)
                                 .count()) +
              " ms (deadline " +
              std::to_string(options.heartbeat_timeout.count()) +
              " ms); killed";
          iteration_report.events.push_back(
              {fault::FaultEvent::Kind::Watchdog, w.stage,
               rec != nullptr ? rec->now() : 0.0, w.status.messages, detail});
          if (rec != nullptr) {
            rec->instant(w.stage, "watchdog", obs::kCatFault, detail);
          }
          ::kill(w.pid, SIGKILL);
          fail(w.stage, detail);
        }
      }
    }

    // Teardown: kill stragglers, reap everyone, take one final pass over
    // the control buffers (commits sent moments before death count).
    for (WorkerHandle& w : workers) {
      if (!w.exited && w.pid > 0) ::kill(w.pid, SIGKILL);
    }
    for (WorkerHandle& w : workers) {
      if (w.exited || w.pid <= 0) continue;
      int wstatus = 0;
      while (::waitpid(w.pid, &wstatus, 0) < 0 && errno == EINTR) {
      }
      w.exited = true;
      if (WIFSIGNALED(wstatus)) {
        w.signaled = true;
        w.term_signal = WTERMSIG(wstatus);
      } else {
        w.exit_code = WEXITSTATUS(wstatus);
      }
    }
    for (WorkerHandle& w : workers) read_worker(w);
    if (outcome.failed) outcome.table = postmortem();
    if (telemetry_on) {
      last_snapshot = build_snapshot(outcome.failed ? "draining" : "running");
    }

    wall_seconds +=
        std::chrono::duration<double>(Clock::now() - attempt_start).count();

    // Fold the attempt's telemetry into the iteration totals.
    for (WorkerHandle& w : workers) {
      const std::size_t s = static_cast<std::size_t>(w.stage);
      result.stats.messages[s] += w.status.messages;
      iteration_report.injected_seconds += w.status.injected_delay_seconds;
      // Wire counters come from the last status snapshot (the Done frame's
      // when the worker finished, the final heartbeat's when it died), so a
      // crashed attempt's traffic still counts.
      obs::StageMetrics& sm = stage_metrics[s];
      sm.frames_sent += w.status.prev.frames_out + w.status.next.frames_out;
      sm.frames_recv += w.status.prev.frames_in + w.status.next.frames_in;
      sm.bytes_recv += static_cast<double>(w.status.prev.bytes_in +
                                           w.status.next.bytes_in);
      sm.crc_rejects +=
          w.status.prev.crc_rejects + w.status.next.crc_rejects;
      sm.send_retries += w.status.prev.retries + w.status.next.retries;
      if (w.aligner.aligned()) {
        sm.clock_offset_seconds = w.aligner.offset();
        sm.clock_uncertainty_seconds = w.aligner.uncertainty();
      }
      sm.clock_samples += static_cast<std::int64_t>(w.aligner.samples());
      if (!w.have_done) continue;
      const WireStageDone& info = w.done_info;
      sm.compute_seconds += info.busy_seconds;
      sm.comm_seconds += info.comm_seconds;
      sm.blocked_recv_seconds += info.blocked_recv_seconds;
      sm.p2p_messages += info.p2p_messages;
      sm.p2p_bytes += info.p2p_bytes;
      sm.peak_queue_depth = std::max(sm.peak_queue_depth, info.peak_queue);
      result.stats.peak_live_slices[s] =
          std::max(result.stats.peak_live_slices[s], info.peak_live);
      sm.measured_peak_bytes.resize(info.arena_peak_bytes.size(), 0.0);
      for (std::size_t c = 0; c < info.arena_peak_bytes.size(); ++c) {
        sm.measured_peak_bytes[c] =
            std::max(sm.measured_peak_bytes[c],
                     static_cast<double>(info.arena_peak_bytes[c]));
      }
      sm.measured_peak_total = std::max(
          sm.measured_peak_total, static_cast<double>(info.arena_peak_total));
      for (const fault::FaultEvent& event : info.events) {
        iteration_report.events.push_back(event);
      }
      if (rec != nullptr) {
        // Re-base worker-local trace records onto the run clock with one
        // shift per worker: the ping/pong offset estimate when available
        // (error bound rtt/2), else the cruder fork-time offset, never
        // placing a record before the fork (obs::rebase_shift).
        double earliest = std::numeric_limits<double>::infinity();
        for (const WireSpan& span : info.spans) {
          earliest = std::min(earliest, span.start);
        }
        for (const WireFlow& flow : info.flows) {
          earliest = std::min(earliest, flow.ts);
        }
        const double shift =
            obs::rebase_shift(w.aligner, w.fork_offset, earliest);
        for (const WireSpan& span : info.spans) {
          rec->span(w.stage, span.name, span.category, span.start + shift,
                    span.end + shift, span.mb, span.slice, span.stage);
        }
        for (const WireInstant& inst : info.instants) {
          rec->instant(w.stage, inst.name, inst.category, inst.detail);
        }
        // Cross-process flow arrows: sender and receiver derived the same
        // wire_flow_id independently, so the two endpoints pair up here.
        for (const WireFlow& flow : info.flows) {
          rec->flow_point(flow.id, w.stage, flow.ts + shift, flow.begin != 0,
                          flow.backward != 0 ? "bwd" : "fwd");
        }
      }
    }
    return outcome;
  };

  // ---- attempt 1: all microbatches, faults armed ----
  std::vector<int> all_mbs(static_cast<std::size_t>(m));
  std::iota(all_mbs.begin(), all_mbs.end(), 0);
  const bool inject = plan != nullptr && !plan->empty();

  std::vector<int> attempt_mbs = all_mbs;
  bool first_attempt = true;

  for (;;) {
    const AttemptOutcome outcome = run_attempt(attempt_mbs, first_attempt && inject);
    first_attempt = false;
    ++attempt_index;

    // Merge every microbatch that newly retired on all stages, ascending —
    // the same deterministic order as the threaded backend.
    ledger.merge_committed();

    if (!outcome.failed) break;

    auto fail_with = [&](const std::string& reason) {
      fault::FaultReport report = iteration_report;
      report.blocked_table = outcome.table;
      if (options.report != nullptr) *options.report = report;
      if (telemetry_on) {
        last_snapshot.phase = "failed";
        last_snapshot.ts = run_now();
        publish_snapshot(last_snapshot);
      }
      throw rt::PipelineError("pipeline stage " +
                                  std::to_string(outcome.culprit) + " failed: " +
                                  outcome.detail + reason +
                                  "; blocked-on state:\n" + outcome.table,
                              std::move(report));
    };
    if (!options.recover) fail_with(" (recovery disabled)");

    const std::vector<int> replay = ledger.uncommitted();
    if (replay.empty()) {
      // The failure struck after every microbatch had already retired on
      // every stage (e.g. a post-commit kill) — nothing to replay.
      break;
    }

    const std::size_t culprit = static_cast<std::size_t>(
        outcome.culprit >= 0 && outcome.culprit < p ? outcome.culprit : 0);
    if (respawns[culprit] >= options.respawn_budget) {
      fail_with(" (respawn budget of " +
                std::to_string(options.respawn_budget) + " exhausted)");
    }
    // Bounded exponential backoff before the respawn.
    const int k = respawns[culprit]++;
    const auto backoff = std::min(
        options.backoff_cap,
        options.backoff_base * (std::int64_t{1} << std::min(k, 20)));
    std::string detail = "stage " + std::to_string(outcome.culprit) +
                         " respawned after " +
                         std::to_string(backoff.count()) +
                         " ms backoff; replaying microbatches";
    for (const int mb : replay) detail += " " + std::to_string(mb);
    iteration_report.events.push_back(
        {fault::FaultEvent::Kind::Recovery, outcome.culprit,
         rec != nullptr ? rec->now() : 0.0,
         static_cast<std::int64_t>(replay.size()), detail});
    if (rec != nullptr) {
      rec->instant(std::max(0, outcome.culprit), "recovery", obs::kCatFault,
                   detail);
    }
    if (iteration_report.replayed_microbatches.empty()) {
      iteration_report.replayed_microbatches = replay;
      result.stats.replayed_microbatches = replay;
    }
    std::this_thread::sleep_for(backoff);
    attempt_mbs = replay;
  }

  ledger.finish(result.loss, result.grads);

  if (telemetry_on) {
    // Recount merges: the last in-attempt snapshot predates the final merge.
    last_snapshot.phase = "done";
    last_snapshot.ts = run_now();
    last_snapshot.merged_microbatches = ledger.merged();
    publish_snapshot(last_snapshot);
  }

  result.stats.metrics.substrate = "dist";
  result.stats.metrics.scheme = "slimpipe";
  result.stats.metrics.makespan = wall_seconds;
  for (int s = 0; s < p; ++s) {
    stage_metrics[static_cast<std::size_t>(s)].device = s;
    stage_metrics[static_cast<std::size_t>(s)].peak_live_slices =
        result.stats.peak_live_slices[static_cast<std::size_t>(s)];
  }
  result.stats.metrics.set_idle_from_makespan();
  if (options.report != nullptr) {
    options.report->events.insert(options.report->events.end(),
                                  iteration_report.events.begin(),
                                  iteration_report.events.end());
    options.report->replayed_microbatches =
        iteration_report.replayed_microbatches;
    options.report->injected_seconds += iteration_report.injected_seconds;
  }
  return result;
}

}  // namespace slim::dist

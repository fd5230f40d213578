#include "src/runtime/pipeline_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <numeric>
#include <thread>

#include "src/runtime/stage_machine.hpp"
#include "src/util/env.hpp"
#include "src/util/logging.hpp"
#include "src/util/table.hpp"
#include "src/util/thread_pool.hpp"

namespace slim::rt {

namespace {

/// A message in flight between stage threads, with the sender's trace flow
/// id (-1 when tracing is off or the message is stage-local; the receiver
/// closes it, drawing the send->recv arrow) and whether it crossed threads
/// (counted in the receiver's frames_recv/bytes_recv probe without
/// stage-local loopback, comparable with the dist substrate's per-link
/// wire stats).
struct Envelope {
  Message msg;
  std::int64_t flow = -1;
  bool cross = false;
};

/// Thrown when a FaultPlan stage crash fires; the recovery path catches it
/// and respawns the stage.
struct InjectedCrash : std::runtime_error {
  InjectedCrash(int stage_, std::int64_t at_message_)
      : std::runtime_error("injected crash at stage " +
                           std::to_string(stage_) + " after message " +
                           std::to_string(at_message_)),
        stage(stage_) {}
  int stage;
};

/// Internal unwind signal for workers poisoned during shutdown; never
/// escapes run_iteration.
struct WorkerAborted {};

/// Cross-thread progress snapshot of one stage, published after every
/// message so the watchdog can assemble the blocked-on table.
struct StageStatus {
  std::atomic<int> state{static_cast<int>(StageState::Running)};
  std::atomic<std::int64_t> messages{0};
  std::atomic<int> done_f{0};
  std::atomic<int> done_b{0};
  std::atomic<int> live{0};
  std::atomic<int> committed{0};
  /// Microbatch id of the last message this stage picked (-1 before the
  /// first) — pins down where in the schedule a blocked stage stopped.
  std::atomic<int> last_mb{-1};
};

/// Shutdown coordination: the first failing worker records the root cause,
/// poisons every channel and wakes hung stages; peers unwind as Aborted.
struct Control {
  std::atomic<bool> shutdown{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::mutex hang_mutex;
  std::condition_variable hang_cv;
};

}  // namespace

const char* stage_state_name(StageState state) {
  switch (state) {
    case StageState::Running: return "running";
    case StageState::Waiting: return "waiting";
    case StageState::Done: return "done";
    case StageState::Starved: return "starved";
    case StageState::Hung: return "hung";
    case StageState::Crashed: return "crashed";
    case StageState::Aborted: return "aborted";
  }
  return "?";
}

ThreadedPipeline::ThreadedPipeline(num::BlockDims dims, std::int64_t vocab,
                                   int layers_total, int stages, Rng& rng,
                                   int chunks_per_stage)
    : model_(PipelineModel::build(dims, vocab, layers_total, stages, rng,
                                  chunks_per_stage)) {}

ThreadedPipeline::Result ThreadedPipeline::run_iteration(
    const std::vector<std::vector<std::int64_t>>& tokens,
    const std::vector<std::vector<std::int64_t>>& targets, int n_slices,
    bool vocab_parallel) {
  RunOptions options;
  options.n_slices = n_slices;
  options.vocab_parallel = vocab_parallel;
  return run_iteration(tokens, targets, options);
}

ThreadedPipeline::Result ThreadedPipeline::run_iteration(
    const std::vector<std::vector<std::int64_t>>& tokens,
    const std::vector<std::vector<std::int64_t>>& targets,
    const RunOptions& options) {
  const int n_slices = options.n_slices;
  const int m = static_cast<int>(tokens.size());
  const std::vector<core::SliceLayout> layouts =
      resolve_layouts(tokens, targets, n_slices, options.layouts);
  const StageInputs inputs{&model_,  &tokens,  &targets,
                           &layouts, n_slices, options.vocab_parallel};
  const int p = stages();
  const int v = model_.chunks_per_stage;
  const fault::FaultPlan* plan = options.faults;
  if (plan != nullptr) {
    const std::vector<fault::PlanIssue> issues = validate(*plan, p);
    SLIM_CHECK(issues.empty(),
               "invalid fault plan:\n" + fault::render(issues));
  }

  Result result;
  result.stats.peak_live_slices.assign(static_cast<std::size_t>(p), 0);
  result.stats.messages.assign(static_cast<std::size_t>(p), 0);

  // Observability: cheap always-on probes plus the optional span recorder.
  // Each attempt's worker thread is the sole writer of its stage's metrics
  // row while running; the parent reads after join (the join is the
  // synchronization point), so plain fields suffice.
  obs::Recorder* const rec = options.recorder;
  std::vector<obs::StageMetrics>& probes = result.stats.metrics.stages;
  probes.resize(static_cast<std::size_t>(p));
  double wall_seconds = 0.0;  // summed over attempts
  // Per-stage arena statistics sinks: the measured side of the
  // measured-vs-analytical footprint reconciliation. Shared across attempts
  // (peaks are maxima over attempts; a respawned stage's fresh arenas keep
  // reporting into the same sink). unique_ptr because ArenaStats holds
  // atomics and cannot move.
  std::vector<std::unique_ptr<num::ArenaStats>> arena_stats;
  for (int s = 0; s < p; ++s) {
    arena_stats.push_back(std::make_unique<num::ArenaStats>());
    if (rec != nullptr) rec->set_track_name(s, "stage " + std::to_string(s));
  }
  fault::FaultReport iteration_report;

  // All (stage, microbatch) staged contributions of the iteration — the
  // shared commit protocol (src/runtime/commit.hpp). A slot is merged into
  // the result only when its microbatch fully retired; a crash
  // mid-iteration discards exactly the partial work.
  CommitLedger ledger(model_, m, options.vocab_parallel);

  // ---- one pipeline attempt over a subset of the microbatches ----
  // `mbs` is ascending; `inject` arms the plan's runtime faults (the replay
  // attempt after a crash runs with them disarmed — the respawned stage).
  // Returns the stage whose injected crash ended the attempt, or -1.
  auto run_attempt = [&](const std::vector<int>& mbs, bool inject) -> int {
    const int mk = static_cast<int>(mbs.size());
    // Fresh machines and empty slots for every participating stage — on
    // the replay attempt this discards the crashed attempt's partials. The
    // machines are built here, on the parent thread, before any worker
    // starts: their layers and staging buffers then come from the main heap
    // arena rather than per-thread arenas that keep freed memory.
    std::deque<StageMachine> machines;  // deque: built in place, never moved
    for (int s = 0; s < p; ++s) {
      for (const int mb : mbs) ledger.prepare(s, mb);
      machines.emplace_back(inputs, s, mbs,
                            arena_stats[static_cast<std::size_t>(s)].get());
    }
    std::vector<Channel<Envelope>> inbox(static_cast<std::size_t>(p));
    std::vector<StageStatus> statuses(static_cast<std::size_t>(p));
    std::vector<std::vector<fault::FaultEvent>> stage_events(
        static_cast<std::size_t>(p));
    Control ctrl;

    auto request_shutdown = [&] {
      {
        std::lock_guard<std::mutex> lock(ctrl.hang_mutex);
        ctrl.shutdown.store(true);
      }
      for (Channel<Envelope>& channel : inbox) channel.close();
      ctrl.hang_cv.notify_all();
    };

    // The watchdog's deadlock report: a snapshot of every stage's progress
    // and blocked-on state, assembled lock-free from the published atomics.
    auto blocked_table = [&]() -> std::string {
      Table table({"stage", "state", "messages", "fwd", "bwd", "live", "cap",
                   "queue", "last mb", "committed mbs"});
      const std::string due = std::to_string(mk * n_slices * v);
      for (int s = 0; s < p; ++s) {
        const StageStatus& st = statuses[static_cast<std::size_t>(s)];
        const int last_mb = st.last_mb.load();
        table.add_row(
            {std::to_string(s),
             stage_state_name(static_cast<StageState>(st.state.load())),
             std::to_string(st.messages.load()),
             std::to_string(st.done_f.load()) + "/" + due,
             std::to_string(st.done_b.load()) + "/" + due,
             std::to_string(st.live.load()),
             std::to_string(machines[static_cast<std::size_t>(s)].live_cap()),
             std::to_string(inbox[static_cast<std::size_t>(s)].size()),
             last_mb < 0 ? std::string("-") : std::to_string(last_mb),
             std::to_string(st.committed.load()) + "/" + std::to_string(mk)});
      }
      return table.to_string();
    };

    auto worker_body = [&](int stage) {
      // Stage workers run concurrently; cap each one's numerics-kernel
      // fan-out so p stages don't each claim the whole pool. The cap never
      // changes chunk boundaries, so gradients stay bit-identical.
      const int pool_width = util::ThreadPool::global().max_threads();
      const int kernel_cap = options.kernel_threads > 0
                                 ? options.kernel_threads
                                 : std::max(1, pool_width / std::max(1, p));
      util::ScopedKernelThreads kernel_guard(kernel_cap);
      StageMachine& machine = machines[static_cast<std::size_t>(stage)];
      StageStatus& status = statuses[static_cast<std::size_t>(stage)];
      obs::StageMetrics& probe = probes[static_cast<std::size_t>(stage)];
      std::vector<fault::FaultEvent>& events =
          stage_events[static_cast<std::size_t>(stage)];
      auto fault_event = [&](fault::FaultEvent::Kind kind, const char* name,
                             const std::string& detail) {
        if (rec != nullptr) rec->instant(stage, name, obs::kCatFault, detail);
        return fault::FaultEvent{kind, stage, rec != nullptr ? rec->now() : 0.0,
                                 machine.messages(), detail};
      };
      auto publish = [&] {
        status.messages.store(machine.messages());
        status.last_mb.store(machine.last_mb());
        status.done_f.store(machine.forwards_done());
        status.done_b.store(machine.backwards_done());
        status.live.store(machine.live());
        status.committed.store(machine.committed());
      };
      // Runtime fault hooks, armed only on the injecting attempt.
      const fault::StageRules rules = inject && plan != nullptr
                                          ? fault::stage_rules(*plan, stage)
                                          : fault::StageRules{};
      bool delay_logged = false;
      auto on_pick = [&](const Message&) {
        publish();
        const std::int64_t count = machine.messages();
        if (count == rules.hang_after) {
          // The stage silently stops making progress; peers starve and
          // the watchdog reports it. Park until the shutdown broadcast.
          status.state.store(static_cast<int>(StageState::Hung));
          events.push_back(fault_event(fault::FaultEvent::Kind::Hang, "hang",
                                       "stage stopped draining its inbox"));
          std::unique_lock<std::mutex> lock(ctrl.hang_mutex);
          ctrl.hang_cv.wait(lock, [&] { return ctrl.shutdown.load(); });
          throw WorkerAborted{};
        }
        if (count == rules.crash_after) {
          events.push_back(
              fault_event(fault::FaultEvent::Kind::Crash, "crash",
                          "stage worker crashed between messages"));
          throw InjectedCrash(stage, count);
        }
        if (rules.delay_every > 0 && count % rules.delay_every == 0 &&
            rules.delay_seconds > 0.0) {
          if (!delay_logged) {
            events.push_back(fault_event(
                fault::FaultEvent::Kind::Delay, "delay",
                "sleeping " + std::to_string(rules.delay_seconds) +
                    " s every " + std::to_string(rules.delay_every) +
                    " messages"));
            delay_logged = true;
          }
          std::this_thread::sleep_for(
              std::chrono::duration<double>(rules.delay_seconds));
        }
      };

      std::vector<Outgoing> sends;
      while (!machine.finished()) {
        if (ctrl.shutdown.load(std::memory_order_relaxed)) {
          throw WorkerAborted{};
        }
        Message msg;
        if (!machine.pick(msg, on_pick)) {
          status.state.store(static_cast<int>(StageState::Waiting));
          const double recv_start = rec != nullptr ? rec->now() : 0.0;
          const auto wait_start = std::chrono::steady_clock::now();
          Envelope received;
          const RecvStatus recv =
              inbox[static_cast<std::size_t>(stage)].receive_status_for(
                  options.starvation_timeout, received);
          probe.blocked_recv_seconds +=
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            wait_start)
                  .count();
          if (rec != nullptr) {
            rec->span(stage, "recv", obs::kCatComm, recv_start, rec->now());
          }
          status.state.store(static_cast<int>(StageState::Running));
          if (recv == RecvStatus::Closed) throw WorkerAborted{};
          if (recv == RecvStatus::Timeout) {
            // Watchdog: this stage starved. Snapshot every stage's
            // blocked-on state and fail the iteration with the table.
            const std::string starved_detail = "starved: " + machine.progress();
            fault::FaultReport report;
            report.events.push_back(fault_event(
                fault::FaultEvent::Kind::Watchdog, "watchdog", starved_detail));
            report.blocked_table = blocked_table();
            // The message is built before `report` moves into the error
            // (argument evaluation order is unspecified).
            const std::string what =
                "pipeline stage " + std::to_string(stage) + " starved for " +
                std::to_string(options.starvation_timeout.count()) +
                " ms; blocked-on state:\n" + report.blocked_table;
            throw PipelineError(what, std::move(report));
          }
          if (received.cross) {
            ++probe.frames_recv;
            probe.bytes_recv +=
                static_cast<double>(received.msg.payload.size()) * 4.0;
          }
          if (rec != nullptr && received.flow >= 0) {
            rec->end_flow(received.flow, stage, rec->now());
          }
          machine.deliver(std::move(received.msg));
          continue;
        }
        const Message::Kind kind = msg.kind;
        const int mb = msg.mb, slice = msg.slice, at_stage = msg.stage;
        const double span_start = rec != nullptr ? rec->now() : 0.0;
        const auto busy_start = std::chrono::steady_clock::now();
        const int retired = machine.run(std::move(msg), sends);
        // Routes each message to its stage thread: counts the cross-stage
        // traffic and opens a trace flow that the receiver closes (the
        // send->recv arrows in the exported trace).
        for (Outgoing& out : sends) {
          Envelope envelope{std::move(out.msg)};
          if (out.dst != stage) {
            ++probe.p2p_messages;
            probe.p2p_bytes +=
                static_cast<double>(envelope.msg.payload.size()) * 4.0;
            envelope.cross = true;
            if (rec != nullptr) {
              envelope.flow =
                  rec->begin_flow(stage, message_kind_name(envelope.msg.kind));
            }
          }
          inbox[static_cast<std::size_t>(out.dst)].send(std::move(envelope));
        }
        sends.clear();
        if (retired >= 0) {
          ledger.slot(stage, retired) = machine.take_commit(retired);
          if (rec != nullptr) {
            rec->instant(stage, "commit mb" + std::to_string(retired),
                         obs::kCatCommit);
          }
        }
        publish();
        probe.compute_seconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          busy_start)
                .count();
        if (rec != nullptr) {
          // Every processed message is compute work (vocab rounds included:
          // they run the shard GEMMs); waiting shows up as "recv" spans.
          rec->span(stage,
                    std::string(message_kind_name(kind)) + " mb" +
                        std::to_string(mb) + " s" + std::to_string(slice) +
                        " st" + std::to_string(at_stage),
                    obs::kCatCompute, span_start, rec->now(), mb, slice,
                    at_stage);
        }
      }
    };

    auto worker_main = [&](int stage) {
      StageStatus& status = statuses[static_cast<std::size_t>(stage)];
      try {
        worker_body(stage);
        status.state.store(static_cast<int>(StageState::Done));
      } catch (const WorkerAborted&) {
        // Poisoned during shutdown — keep a Hung label if the fault hook
        // set one (the deadlock table should show the root cause).
        if (status.state.load() != static_cast<int>(StageState::Hung)) {
          status.state.store(static_cast<int>(StageState::Aborted));
        }
      } catch (...) {
        status.state.store(static_cast<int>(StageState::Crashed));
        {
          std::lock_guard<std::mutex> lock(ctrl.error_mutex);
          if (!ctrl.first_error) ctrl.first_error = std::current_exception();
        }
        request_shutdown();
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(p));
    const auto attempt_start = std::chrono::steady_clock::now();
    for (int s = 0; s < p; ++s) threads.emplace_back(worker_main, s);
    for (std::thread& t : threads) t.join();
    wall_seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - attempt_start)
                        .count();

    // Fold the attempt's stats and fault events into the iteration totals.
    for (int s = 0; s < p; ++s) {
      const std::size_t i = static_cast<std::size_t>(s);
      result.stats.messages[i] += machines[i].messages();
      result.stats.peak_live_slices[i] =
          std::max(result.stats.peak_live_slices[i], machines[i].peak_live());
      probes[i].peak_queue_depth =
          std::max(probes[i].peak_queue_depth,
                   static_cast<int>(inbox[i].peak_depth()));
      for (fault::FaultEvent& event : stage_events[i]) {
        iteration_report.events.push_back(std::move(event));
      }
    }

    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(ctrl.error_mutex);
      error = ctrl.first_error;
    }
    if (!error) return -1;
    try {
      std::rethrow_exception(error);
    } catch (const InjectedCrash& crash) {
      // Checkpoint-replay recovery keeps the microbatches that retired on
      // every stage before the crash and discards all partial work.
      if (options.recover) return crash.stage;
      fault::FaultReport report = iteration_report;
      report.blocked_table = blocked_table();
      const std::string what = std::string(crash.what()) +
                               " (recovery disabled); blocked-on state:\n" +
                               report.blocked_table;
      throw PipelineError(what, std::move(report));
    } catch (const PipelineError& pipeline_error) {
      // Watchdog (or nested) structured failure: extend it with the
      // attempt's injected events so the caller sees the full picture.
      fault::FaultReport report = pipeline_error.report();
      report.events.insert(report.events.begin(),
                           iteration_report.events.begin(),
                           iteration_report.events.end());
      throw PipelineError(pipeline_error.what(), std::move(report));
    } catch (const std::exception& exception) {
      // Any other worker exception (SLIM_CHECK violations included): wrap
      // into the structured form instead of terminating.
      fault::FaultReport report = iteration_report;
      report.blocked_table = blocked_table();
      const std::string what = std::string("pipeline worker failed: ") +
                               exception.what() + "\nblocked-on state:\n" +
                               report.blocked_table;
      throw PipelineError(what, std::move(report));
    }
  };

  // ---- attempt 1: all microbatches, faults armed ----
  std::vector<int> all_mbs(static_cast<std::size_t>(m));
  std::iota(all_mbs.begin(), all_mbs.end(), 0);
  const int crashed = run_attempt(all_mbs, plan != nullptr && !plan->empty());
  ledger.merge_committed();
  if (crashed >= 0) {
    // ---- respawn + replay: the crashed stage restarts from the parameter
    // snapshot (weights are immutable within the iteration) and the
    // pipeline replays every microbatch that had not fully retired. ----
    const std::vector<int> replay = ledger.uncommitted();
    SLIM_CHECK(!replay.empty(),
               "crash after full retirement should not reach recovery");
    std::string detail = "stage " + std::to_string(crashed) +
                         " respawned; replaying microbatches";
    for (const int mb : replay) detail += " " + std::to_string(mb);
    if (rec != nullptr) {
      rec->instant(crashed, "recovery", obs::kCatFault, detail);
    }
    iteration_report.events.push_back(
        {fault::FaultEvent::Kind::Recovery, crashed,
         rec != nullptr ? rec->now() : 0.0,
         static_cast<std::int64_t>(replay.size()), detail});
    iteration_report.replayed_microbatches = replay;
    result.stats.replayed_microbatches = replay;
    run_attempt(replay, /*inject=*/false);
    ledger.merge_committed();
  }
  ledger.finish(result.loss, result.grads);

  // Complete the per-stage metrics in the shared obs shape. Timing fields
  // are wall-clock (this substrate's clock); the discrete schedule-shape
  // fields (peak live slices, message counts) are what the consistency
  // tests compare against the simulator.
  obs::RunMetrics& metrics = result.stats.metrics;
  metrics.substrate = "runtime";
  metrics.scheme = v > 1 ? "slimpipe-interleaved" : "slimpipe";
  metrics.makespan = wall_seconds;
  for (int s = 0; s < p; ++s) {
    obs::StageMetrics& stage_metrics = probes[static_cast<std::size_t>(s)];
    stage_metrics.device = s;
    stage_metrics.peak_live_slices =
        result.stats.peak_live_slices[static_cast<std::size_t>(s)];
    // Same counter names as the dist substrate's wire stats: a cross-thread
    // message is this substrate's "frame".
    stage_metrics.frames_sent = stage_metrics.p2p_messages;
    const num::ArenaStats& measured = *arena_stats[static_cast<std::size_t>(s)];
    for (int c = 0; c < mem::kNumCategories; ++c) {
      stage_metrics.measured_peak_bytes.push_back(
          static_cast<double>(measured.peak_bytes(c)));
    }
    stage_metrics.measured_peak_total =
        static_cast<double>(measured.total_peak_bytes());
  }
  metrics.set_idle_from_makespan();
  if (options.report != nullptr) {
    options.report->events.insert(options.report->events.end(),
                                  iteration_report.events.begin(),
                                  iteration_report.events.end());
    options.report->replayed_microbatches =
        iteration_report.replayed_microbatches;
  }
  return result;
}

ThreadedPipeline::Result ThreadedPipeline::run_reference(
    const std::vector<std::vector<std::int64_t>>& tokens,
    const std::vector<std::vector<std::int64_t>>& targets) {
  ReferenceResult reference = reference_run(model_, tokens, targets);
  Result result;
  result.loss = reference.loss;
  result.grads = std::move(reference.grads);
  return result;
}

std::chrono::milliseconds default_starvation_timeout() {
  return std::chrono::milliseconds(
      util::env_int_or("SLIMPIPE_STARVATION_TIMEOUT_MS", 30000, 1));
}

}  // namespace slim::rt

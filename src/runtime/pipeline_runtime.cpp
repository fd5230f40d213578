#include "src/runtime/pipeline_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>

#include "src/runtime/channel.hpp"
#include "src/runtime/stage_driver.hpp"
#include "src/runtime/stage_machine.hpp"
#include "src/util/env.hpp"
#include "src/util/logging.hpp"
#include "src/util/thread_pool.hpp"

namespace slim::rt {

namespace {

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

/// Shutdown coordination: the first failing worker records the root cause,
/// poisons every channel and wakes hung stages; peers unwind as Aborted.
struct Control {
  std::atomic<bool> shutdown{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::mutex hang_mutex;
  std::condition_variable hang_cv;
};

/// One stage's last published progress, copied under its own mutex for the
/// watchdog's blocked-on table.
struct Board {
  std::mutex mutex;
  StageProgress progress;
};

/// The threaded transport of one stage: arrivals from its Channel, sends
/// into its peers', retired slots into the CommitLedger, progress onto its
/// Board. A hang parks on the shutdown condition variable; a crash throws.
class ChannelLink final : public StageLink {
 public:
  ChannelLink(StageRun& run, std::vector<Channel<Message>>& inbox,
              Board& board, Control& ctrl, CommitLedger& ledger)
      : run_(run), inbox_(inbox), board_(board), ctrl_(ctrl),
        ledger_(ledger) {}

  void receive(std::vector<Message>& arrivals,
               std::chrono::milliseconds wait) override {
    Channel<Message>& mine = inbox_[static_cast<std::size_t>(run_.stage)];
    const std::size_t first = arrivals.size();
    if (wait.count() > 0) {
      Message msg;
      const RecvStatus status = mine.receive_status_for(wait, msg);
      if (status == RecvStatus::Closed) throw WorkerAborted{};
      if (status == RecvStatus::Timeout) return;
      arrivals.push_back(std::move(msg));
    }
    while (std::optional<Message> msg = mine.try_receive()) {
      arrivals.push_back(std::move(*msg));
    }
    for (std::size_t i = first; i < arrivals.size(); ++i) {
      ++run_.metrics.frames_recv;
      run_.metrics.bytes_recv +=
          static_cast<double>(arrivals[i].payload.size()) * 4.0;
    }
  }

  void send(Outgoing out) override {
    // A cross-thread message is this substrate's "frame".
    ++run_.metrics.frames_sent;
    run_.metrics.p2p_bytes += static_cast<double>(out.msg.payload.size()) * 4.0;
    inbox_[static_cast<std::size_t>(out.dst)].send(std::move(out.msg));
  }

  void retire(StageMachine& machine, int mb) override {
    ledger_.slot(run_.stage, mb) = machine.take_commit(mb);
  }

  void publish(const StageProgress& progress) override {
    {
      std::lock_guard<std::mutex> lock(board_.mutex);
      board_.progress = progress;
    }
    if (ctrl_.shutdown.load(std::memory_order_relaxed)) throw WorkerAborted{};
  }

  [[noreturn]] void crash() override {
    throw InjectedCrash(run_.stage, run_.progress.messages);
  }

  [[noreturn]] void hang() override {
    // Parked until the shutdown broadcast; peers starve meanwhile and the
    // watchdog reports it.
    std::unique_lock<std::mutex> lock(ctrl_.hang_mutex);
    ctrl_.hang_cv.wait(lock, [&] { return ctrl_.shutdown.load(); });
    throw WorkerAborted{};
  }

 private:
  StageRun& run_;
  std::vector<Channel<Message>>& inbox_;
  Board& board_;
  Control& ctrl_;
  CommitLedger& ledger_;
};

}  // namespace

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
  // Each stage's drive fills one StageMetrics per attempt; the parent folds
  // them after join (the join is the synchronization point).
  obs::Recorder* const rec = options.recorder;
  // The run clock: the recorder's epoch when tracing, else this iteration's
  // start. Fault events are stamped on it either way.
  const obs::MonoClock::time_point run_epoch =
      rec != nullptr ? rec->epoch() : obs::MonoClock::now();
  auto run_now = [&]() -> double {
    return std::chrono::duration<double>(obs::MonoClock::now() - run_epoch)
        .count();
  };
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
  auto run_attempt = [&](const std::vector<int>& mbs, bool inject,
                         int attempt) -> int {
    // Fresh machines and empty slots for every participating stage — on
    // the replay attempt this discards the crashed attempt's partials. The
    // machines are built here, on the parent thread, before any worker
    // starts: their layers and staging buffers then come from the main heap
    // arena rather than per-thread arenas that keep freed memory.
    std::deque<StageMachine> machines;  // deque: built in place, never moved
    std::vector<StageRun> runs(static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      for (const int mb : mbs) ledger.prepare(s, mb);
      machines.emplace_back(inputs, s, mbs,
                            arena_stats[static_cast<std::size_t>(s)].get());
      StageRun& run = runs[static_cast<std::size_t>(s)];
      run.stage = s;
      run.attempt = attempt;
      if (inject && plan != nullptr) run.rules = fault::stage_rules(*plan, s);
      run.starvation_timeout = options.starvation_timeout;
      run.epoch = run_epoch;
      run.recorder = rec;
      run.arena = arena_stats[static_cast<std::size_t>(s)].get();
    }
    std::vector<Channel<Message>> inbox(static_cast<std::size_t>(p));
    std::vector<Board> boards(static_cast<std::size_t>(p));
    Control ctrl;

    // Records the root cause, poisons every channel and wakes hung stages.
    auto fail = [&](std::exception_ptr error) {
      {
        std::lock_guard<std::mutex> lock(ctrl.error_mutex);
        if (!ctrl.first_error) ctrl.first_error = std::move(error);
      }
      {
        std::lock_guard<std::mutex> lock(ctrl.hang_mutex);
        ctrl.shutdown.store(true);
      }
      for (Channel<Message>& channel : inbox) channel.close();
      ctrl.hang_cv.notify_all();
    };

    // The deadlock report: every stage's last published progress.
    auto blocked_table = [&]() -> std::string {
      std::vector<StageProgress> rows;
      std::vector<std::string> states;
      for (Board& board : boards) {
        std::lock_guard<std::mutex> lock(board.mutex);
        rows.push_back(board.progress);
        states.emplace_back(stage_state_name(board.progress.state));
      }
      return blocked_on_table(rows, states, run_now());
    };

    auto worker_main = [&](int stage) {
      // Stage workers run concurrently; cap each one's numerics-kernel
      // fan-out at the pool's width divided across stages (at least 1), so
      // p stages don't each claim the whole pool. The cap never changes
      // chunk boundaries, so gradients stay bit-identical.
      const int pool_width = util::ThreadPool::global().max_threads();
      util::ScopedKernelThreads kernel_guard(
          std::max(1, pool_width / std::max(1, p)));
      Board& board = boards[static_cast<std::size_t>(stage)];
      auto mark = [&](StageState state) {
        std::lock_guard<std::mutex> lock(board.mutex);
        // Keep a Hung label: the deadlock table should show the root cause.
        if (board.progress.state != StageState::Hung) {
          board.progress.state = state;
        }
      };
      ChannelLink link(runs[static_cast<std::size_t>(stage)], inbox, board,
                       ctrl, ledger);
      try {
        drive_stage(machines[static_cast<std::size_t>(stage)], link,
                    runs[static_cast<std::size_t>(stage)]);
      } catch (const WorkerAborted&) {
        mark(StageState::Aborted);  // poisoned during shutdown
      } catch (const StageStarved& starved) {
        // Watchdog: snapshot every stage's blocked-on state and fail the
        // iteration with the table.
        fault::FaultReport report;
        report.blocked_table = blocked_table();
        const std::string what = std::string(starved.what()) +
                                 "; blocked-on state:\n" +
                                 report.blocked_table;
        fail(std::make_exception_ptr(PipelineError(what, std::move(report))));
      } catch (...) {
        mark(StageState::Crashed);
        fail(std::current_exception());
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

    // Fold the attempt's probes and fault events into the iteration totals.
    for (int s = 0; s < p; ++s) {
      const std::size_t i = static_cast<std::size_t>(s);
      result.stats.messages[i] += runs[i].progress.messages;
      probes[i].fold(runs[i].metrics);
      for (fault::FaultEvent& event : runs[i].events) {
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
      // Watchdog failure: its table with the attempt's fault events.
      fault::FaultReport report = iteration_report;
      report.blocked_table = pipeline_error.report().blocked_table;
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
  const int crashed =
      run_attempt(all_mbs, plan != nullptr && !plan->empty(), /*attempt=*/0);
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
        {fault::FaultEvent::Kind::Recovery, crashed, run_now(),
         static_cast<std::int64_t>(replay.size()), detail});
    iteration_report.replayed_microbatches = replay;
    result.stats.replayed_microbatches = replay;
    run_attempt(replay, /*inject=*/false, /*attempt=*/1);
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
    const std::size_t i = static_cast<std::size_t>(s);
    probes[i].device = s;
    result.stats.peak_live_slices[i] = probes[i].peak_live_slices;
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

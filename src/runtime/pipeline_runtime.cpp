#include "src/runtime/pipeline_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "src/obs/telemetry.hpp"
#include "src/runtime/channel.hpp"
#include "src/runtime/replay.hpp"
#include "src/runtime/stage_driver.hpp"
#include "src/runtime/stage_machine.hpp"
#include "src/util/thread_pool.hpp"

namespace slim::rt {

namespace {

/// Internal unwind signal for workers poisoned during shutdown; never
/// escapes the attempt.
struct WorkerAborted {};

/// Shutdown coordination: the first failing worker records the attempt's
/// culprit and what failed, poisons every channel and wakes hung stages;
/// peers unwind as Aborted.
struct Control {
  std::atomic<bool> shutdown{false};
  std::mutex mutex;  // guards culprit and detail; hung stages wait on it
  std::condition_variable hang_cv;
  int culprit = -1;
  std::string detail;
};

/// The threaded transport of one stage: arrivals from its Channel, sends
/// into its peers', retired slots into the CommitLedger. A hang parks on
/// the shutdown condition variable; a crash throws.
class ChannelLink final : public StageLink {
 public:
  ChannelLink(StageRun& run, std::vector<Channel<Message>>& inbox,
              Control& ctrl, CommitLedger& ledger)
      : run_(run), inbox_(inbox), ctrl_(ctrl), ledger_(ledger) {}

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

  // The driver keeps the progress record in the StageRun, which the parent
  // reads after the join; publishing only checks for shutdown.
  void publish(const obs::StageProgress& /*progress*/) override {
    if (ctrl_.shutdown.load(std::memory_order_relaxed)) throw WorkerAborted{};
  }

  [[noreturn]] void crash() override {
    throw std::runtime_error("injected crash at stage " +
                             std::to_string(run_.stage) + " after message " +
                             std::to_string(run_.progress.messages));
  }

  [[noreturn]] void hang() override {
    // Parked until the shutdown broadcast; peers starve meanwhile and the
    // watchdog reports it.
    std::unique_lock<std::mutex> lock(ctrl_.mutex);
    ctrl_.hang_cv.wait(lock, [&] { return ctrl_.shutdown.load(); });
    throw WorkerAborted{};
  }

 private:
  StageRun& run_;
  std::vector<Channel<Message>>& inbox_;
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
  const int p = stages();
  // Per-stage arena statistics sinks: the measured side of the
  // measured-vs-analytical footprint reconciliation. Shared across attempts
  // (peaks are maxima over attempts; a respawned stage's fresh arenas keep
  // reporting into the same sink). unique_ptr because ArenaStats holds
  // atomics and cannot move.
  std::vector<std::unique_ptr<num::ArenaStats>> arena_stats;
  for (int s = 0; s < p; ++s) {
    arena_stats.push_back(std::make_unique<num::ArenaStats>());
  }

  // One attempt: a thread per stage over Channels, all joined before it
  // reports.
  auto run_attempt = [&](const Attempt& attempt) -> AttemptEnd {
    // Fresh machines for every stage. They are built here, on the parent
    // thread, before any worker starts: their layers and staging buffers
    // then come from the main heap arena rather than per-thread arenas that
    // keep freed memory.
    std::deque<StageMachine> machines;  // deque: built in place, never moved
    std::vector<StageRun> runs(static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      num::ArenaStats* const arena =
          arena_stats[static_cast<std::size_t>(s)].get();
      machines.emplace_back(attempt.inputs, s, attempt.mbs, arena);
      StageRun& run = runs[static_cast<std::size_t>(s)];
      run.stage = s;
      run.attempt = attempt.index;
      if (attempt.faults != nullptr) {
        run.rules = fault::stage_rules(*attempt.faults, s);
      }
      run.starvation_timeout = options.starvation_timeout;
      run.epoch = attempt.epoch;
      run.recorder = options.recorder;
      run.arena = arena;
    }
    std::vector<Channel<Message>> inbox(static_cast<std::size_t>(p));
    Control ctrl;

    // Records the first failure, poisons every channel and wakes hung
    // stages.
    auto fail = [&](int stage, std::string detail) {
      {
        std::lock_guard<std::mutex> lock(ctrl.mutex);
        if (ctrl.culprit < 0) {
          ctrl.culprit = stage;
          ctrl.detail = std::move(detail);
        }
        ctrl.shutdown.store(true);
      }
      for (Channel<Message>& channel : inbox) channel.close();
      ctrl.hang_cv.notify_all();
    };

    auto worker_main = [&](int stage) {
      // Stage workers run concurrently; cap each one's numerics-kernel
      // fan-out at the pool's width divided across stages (at least 1), so
      // p stages don't each claim the whole pool. The cap never changes
      // chunk boundaries, so gradients stay bit-identical.
      const int pool_width = util::ThreadPool::global().max_threads();
      util::ScopedKernelThreads kernel_guard(
          std::max(1, pool_width / std::max(1, p)));
      StageRun& run = runs[static_cast<std::size_t>(stage)];
      ChannelLink link(run, inbox, ctrl, attempt.ledger);
      try {
        drive_stage(machines[static_cast<std::size_t>(stage)], link, run);
      } catch (const WorkerAborted&) {
        // Poisoned during shutdown. Keep a Hung label: the blocked-on table
        // should show the root cause.
        if (run.progress.state != obs::StageState::Hung) {
          run.progress.state = obs::StageState::Aborted;
        }
      } catch (const StageStarved& starved) {
        fail(stage, starved.what());  // the watchdog; the row says starved
      } catch (const std::exception& error) {
        run.progress.state = obs::StageState::Crashed;
        fail(stage, error.what());
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) threads.emplace_back(worker_main, s);
    for (std::thread& t : threads) t.join();

    // Joined: every stage's record is final.
    AttemptEnd end;
    end.culprit = ctrl.culprit;
    end.detail = std::move(ctrl.detail);
    for (StageRun& run : runs) {
      end.stages.push_back({{run.progress, std::move(run.metrics), 0.0, {}},
                            std::move(run.events)});
    }
    if (end.culprit >= 0) {
      std::vector<obs::StageLive> rows;
      for (int s = 0; s < p; ++s) {
        const obs::StageStatus& status =
            end.stages[static_cast<std::size_t>(s)].status;
        // A starved stage only saw the fault: a hung stage is the culprit,
        // as the process supervisor's missed-heartbeat verdict names it.
        if (status.progress.state == obs::StageState::Hung) end.culprit = s;
        rows.push_back({s, 0, obs::stage_state_name(status.progress.state),
                        attempt.now() - status.progress.at, 0,
                        attempt.respawns[static_cast<std::size_t>(s)],
                        status.progress, status.metrics});
      }
      end.table = obs::stage_table(rows);
    }
    return end;
  };
  return run_replayed(
      model_, tokens, targets, options, "runtime",
      chunks_per_stage() > 1 ? "slimpipe-interleaved" : "slimpipe",
      run_attempt);
}

ThreadedPipeline::Result ThreadedPipeline::run_reference(
    const std::vector<std::vector<std::int64_t>>& tokens,
    const std::vector<std::vector<std::int64_t>>& targets) {
  return reference_run(model_, tokens, targets);
}

}  // namespace slim::rt

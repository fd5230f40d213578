#include "src/runtime/replay.hpp"

#include <numeric>
#include <thread>
#include <utility>

#include "src/util/logging.hpp"

namespace slim::rt {

namespace {

/// Respawns allowed per stage and iteration, and the backoff before a
/// stage's k-th respawn: kBackoffBase * 2^k (10, 20 and 40 ms).
constexpr int kRespawnBudget = 3;
constexpr std::chrono::milliseconds kBackoffBase{10};

double seconds_since(obs::MonoClock::time_point start) {
  return std::chrono::duration<double>(obs::MonoClock::now() - start).count();
}

}  // namespace

double Attempt::now() const { return seconds_since(epoch); }

PipelineResult run_replayed(const PipelineModel& model, const Batch& tokens,
                            const Batch& targets, const RunOptions& options,
                            const char* substrate, const char* scheme,
                            const RunAttempt& run_attempt) {
  const int p = model.stages;
  const int m = static_cast<int>(tokens.size());
  const std::vector<core::SliceLayout> layouts =
      resolve_layouts(tokens, targets, model.vocab, options.n_slices,
                      options.layouts);
  const StageInputs inputs{&model,   &tokens,          &targets,
                           &layouts, options.n_slices, options.vocab_parallel};
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
  }
  // The run clock: the recorder's epoch when tracing, else this iteration's
  // start. Fault events are stamped on it either way.
  const obs::MonoClock::time_point epoch =
      rec != nullptr ? rec->epoch() : obs::MonoClock::now();

  PipelineResult result;
  PipelineStats& stats = result.stats;
  stats.messages.assign(static_cast<std::size_t>(p), 0);
  // Per-stage metrics accumulate across attempts: a respawned stage keeps
  // folding into its row.
  std::vector<obs::StageMetrics>& probes = stats.metrics.stages;
  probes.resize(static_cast<std::size_t>(p));
  double wall_seconds = 0.0;  // summed over attempts
  // All (stage, microbatch) staged contributions of the iteration. A slot
  // is merged into the result only when its microbatch retired on every
  // stage, so a failed attempt leaves exactly its partial work behind.
  CommitLedger ledger(model, m, options.vocab_parallel);
  fault::FaultReport report;
  std::vector<int> respawns(static_cast<std::size_t>(p), 0);

  // The out-param gains the iteration's record on success and failure alike.
  auto fill_report = [&] {
    if (options.report == nullptr) return;
    fault::FaultReport& out = *options.report;
    out.events.insert(out.events.end(), report.events.begin(),
                      report.events.end());
    out.injected_seconds += report.injected_seconds;
    out.replayed_microbatches = report.replayed_microbatches;
    out.blocked_table = report.blocked_table;
  };
  auto fail = [&](const AttemptEnd& end, const std::string& reason) {
    report.blocked_table = end.table;
    fill_report();
    throw PipelineError("pipeline stage " + std::to_string(end.culprit) +
                            " failed: " + end.detail + reason +
                            "; blocked-on state:\n" + end.table,
                        report);
  };

  std::vector<int> mbs(static_cast<std::size_t>(m));
  std::iota(mbs.begin(), mbs.end(), 0);
  for (int index = 0;; ++index) {
    for (int s = 0; s < p; ++s) {
      for (const int mb : mbs) ledger.prepare(s, mb);
    }
    const obs::MonoClock::time_point start = obs::MonoClock::now();
    AttemptEnd end = run_attempt({index, mbs, index == 0 ? plan : nullptr,
                                  inputs, epoch, ledger, respawns});
    wall_seconds += seconds_since(start);
    SLIM_CHECK(static_cast<int>(end.stages.size()) == p && end.culprit < p,
               "attempt result does not match the pipeline's stages");

    // Fold the attempt's probes and fault events into the iteration totals;
    // a failed attempt's work counts too.
    for (fault::FaultEvent& event : end.events) {
      report.events.push_back(std::move(event));
    }
    for (int s = 0; s < p; ++s) {
      StageEnd& stage = end.stages[static_cast<std::size_t>(s)];
      stats.messages[static_cast<std::size_t>(s)] += stage.progress.messages;
      probes[static_cast<std::size_t>(s)].fold(stage.metrics);
      report.injected_seconds += stage.injected_seconds;
      for (fault::FaultEvent& event : stage.events) {
        report.events.push_back(std::move(event));
      }
    }
    // Merge every microbatch that newly retired on all stages, ascending.
    ledger.merge_committed();
    if (end.culprit < 0) break;

    if (!options.recover) fail(end, " (recovery disabled)");
    std::vector<int> replay = ledger.uncommitted();
    // The failure struck after every microbatch had retired on every stage
    // (e.g. a kill after the last commit): nothing to replay.
    if (replay.empty()) break;
    int& used = respawns[static_cast<std::size_t>(end.culprit)];
    if (used == kRespawnBudget) {
      fail(end, " (respawn budget of " + std::to_string(kRespawnBudget) +
                    " exhausted)");
    }
    const std::chrono::milliseconds backoff = kBackoffBase * (1 << used);
    ++used;
    // The pipeline restarts from the parameter snapshot (weights are
    // immutable within the iteration) and replays what had not retired.
    std::string detail = "stage " + std::to_string(end.culprit) +
                         " respawned after " + std::to_string(backoff.count()) +
                         " ms backoff; replaying microbatches";
    for (const int mb : replay) detail += " " + std::to_string(mb);
    if (rec != nullptr) {
      rec->instant(end.culprit, "recovery", obs::kCatFault, detail);
    }
    report.events.push_back({fault::FaultEvent::Kind::Recovery, end.culprit,
                             seconds_since(epoch),
                             static_cast<std::int64_t>(replay.size()),
                             std::move(detail)});
    if (report.replayed_microbatches.empty()) {
      report.replayed_microbatches = replay;
    }
    std::this_thread::sleep_for(backoff);
    mbs = std::move(replay);
  }
  ledger.finish(result.loss, result.grads);

  // Complete the per-stage metrics in the shared obs shape. Timing fields
  // are wall-clock; the discrete schedule-shape fields (peak live slices,
  // message counts) are what the consistency tests compare against the
  // simulator.
  obs::RunMetrics& metrics = stats.metrics;
  metrics.substrate = substrate;
  metrics.scheme = scheme;
  metrics.makespan = wall_seconds;
  for (int s = 0; s < p; ++s) {
    probes[static_cast<std::size_t>(s)].device = s;
    stats.peak_live_slices.push_back(
        probes[static_cast<std::size_t>(s)].peak_live_slices);
  }
  metrics.set_idle_from_makespan();
  stats.replayed_microbatches = report.replayed_microbatches;
  fill_report();
  return result;
}

}  // namespace slim::rt

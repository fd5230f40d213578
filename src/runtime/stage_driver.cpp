#include "src/runtime/stage_driver.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/memory/category.hpp"

namespace slim::rt {

std::int64_t flow_id(int attempt, const Message& msg, int dst) {
  // Mixed-radix fold; the radices bound any run this repo can set up.
  constexpr std::int64_t kKinds = 6, kStages = 256, kDsts = 64,
                         kMb = 1 << 20, kSlices = 256;
  std::int64_t id = attempt;
  id = id * kKinds + static_cast<std::int64_t>(msg.kind);
  id = id * kStages + msg.stage;
  id = id * kDsts + dst;
  id = id * kMb + msg.mb;
  id = id * kSlices + msg.slice;
  return id;
}

double StageRun::now() const {
  return std::chrono::duration<double>(obs::MonoClock::now() - epoch).count();
}

void StageRun::fault(fault::FaultEvent::Kind kind, const char* name,
                     std::string detail) {
  if (recorder != nullptr) {
    recorder->instant(stage, name, obs::kCatFault, detail);
  }
  events.push_back({kind, stage, now(), progress.messages, std::move(detail)});
}

void StageRun::crumb(obs::FlightKind kind, int mb, int slice,
                     std::int64_t value, std::string_view label) {
  if (flight != nullptr) flight->record(kind, now(), mb, slice, value, label);
}

void drive_stage(StageMachine& machine, StageLink& link, StageRun& run) {
  using Clock = obs::MonoClock;
  const int stage = run.stage;
  obs::Recorder* const rec = run.recorder;
  obs::StageProgress& progress = run.progress;
  obs::StageMetrics& metrics = run.metrics;
  metrics.device = stage;
  progress.due = machine.slices_due();
  progress.cap = machine.live_cap();
  progress.microbatches = machine.microbatches();

  auto publish = [&](obs::StageState state) {
    progress.state = state;
    progress.messages = machine.messages();
    progress.done_f = machine.forwards_done();
    progress.done_b = machine.backwards_done();
    progress.live = machine.live();
    progress.queue = machine.queued();
    progress.committed = machine.committed();
    progress.last_mb = machine.last_mb();
    progress.at = run.now();
    metrics.peak_live_slices = machine.peak_live();
    if (run.arena != nullptr) {
      metrics.measured_peak_bytes.resize(mem::kNumCategories);
      for (int c = 0; c < mem::kNumCategories; ++c) {
        metrics.measured_peak_bytes[static_cast<std::size_t>(c)] =
            static_cast<double>(run.arena->peak_bytes(c));
      }
      metrics.measured_peak_total =
          static_cast<double>(run.arena->total_peak_bytes());
    }
    link.publish(progress);
  };

  // The plan's runtime fault hooks, keyed on the pick count.
  const fault::StageRules& rules = run.rules;
  bool delay_logged = false;
  auto on_pick = [&](const Message& msg) {
    publish(obs::StageState::Running);
    const std::int64_t count = machine.messages();
    if (count == rules.hang_after) {
      // The stage silently stops making progress: its peers starve, or
      // its heartbeats stop.
      run.fault(fault::FaultEvent::Kind::Hang, "hang",
                "stage stopped draining its inbox");
      run.crumb(obs::FlightKind::Fault, msg.mb, msg.slice, count, "hang");
      publish(obs::StageState::Hung);
      link.hang();
    }
    if (count == rules.crash_after) {
      run.fault(fault::FaultEvent::Kind::Crash, "crash",
                "stage worker crashed between messages");
      run.crumb(obs::FlightKind::Fault, msg.mb, msg.slice, count, "crash");
      link.crash();
    }
    if (rules.delay_every > 0 && count % rules.delay_every == 0 &&
        rules.delay_seconds > 0.0) {
      if (!delay_logged) {
        run.fault(fault::FaultEvent::Kind::Delay, "delay",
                  "sleeping " + std::to_string(rules.delay_seconds) +
                      " s every " + std::to_string(rules.delay_every) +
                      " messages");
        delay_logged = true;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(rules.delay_seconds));
    }
  };

  auto bytes = [](const Message& msg) {
    return static_cast<std::int64_t>(msg.payload.size()) * 4;
  };
  std::vector<Message> arrivals;
  std::vector<Outgoing> sends;
  bool waiting = false;
  Clock::time_point wait_start;
  while (!machine.finished()) {
    link.receive(arrivals, std::chrono::milliseconds(0));
    if (!arrivals.empty()) {
      // Any arrival is progress: the watchdog restarts its wait.
      waiting = false;
      for (Message& msg : arrivals) {
        const char* kind = message_kind_name(msg.kind);
        if (rec != nullptr) {
          rec->flow_point(flow_id(run.attempt, msg, stage), stage, run.now(),
                          /*begin=*/false, kind);
        }
        run.crumb(obs::FlightKind::Recv, msg.mb, msg.slice, bytes(msg), kind);
        machine.deliver(std::move(msg));
      }
      arrivals.clear();
      metrics.peak_queue_depth =
          std::max(metrics.peak_queue_depth, machine.queued());
    }

    Message msg;
    if (!machine.pick(msg, on_pick)) {
      const int source = machine.waits_on();
      if (source >= 0 && link.closed(source)) {
        // The row's sender is gone and all it sent has arrived, so the row
        // can never run: stop where the table says, not at the watchdog.
        publish(obs::StageState::Starved);
        return;
      }
      // Nothing runnable: wait for arrivals under the watchdog.
      if (!waiting) {
        waiting = true;
        wait_start = Clock::now();
        publish(obs::StageState::Waiting);
      }
      const auto waited = Clock::now() - wait_start;
      if (waited >= run.starvation_timeout) {
        publish(obs::StageState::Starved);
        const std::string detail =
            "starved: f=" + std::to_string(progress.done_f) + "/" +
            std::to_string(progress.due) +
            " b=" + std::to_string(progress.done_b) + "/" +
            std::to_string(progress.due) +
            " live=" + std::to_string(progress.live) +
            " cap=" + std::to_string(progress.cap);
        run.fault(fault::FaultEvent::Kind::Watchdog, "watchdog", detail);
        throw StageStarved("pipeline stage " + std::to_string(stage) +
                           " starved for " +
                           std::to_string(run.starvation_timeout.count()) +
                           " ms (" + detail + ")");
      }
      const double recv_start = run.now();
      link.receive(arrivals, std::chrono::ceil<std::chrono::milliseconds>(
                                 run.starvation_timeout - waited));
      const double recv_end = run.now();
      metrics.blocked_recv_seconds += recv_end - recv_start;
      if (rec != nullptr) {
        rec->span(stage, "recv", obs::kCatComm, recv_start, recv_end);
      }
      continue;
    }

    waiting = false;
    const char* kind = message_kind_name(msg.kind);
    const int mb = msg.mb, slice = msg.slice, at_stage = msg.stage;
    const double start = run.now();
    run.crumb(obs::FlightKind::SpanBegin, mb, slice, 0, kind);
    const int retired = machine.run(std::move(msg), sends);
    for (Outgoing& out : sends) {
      if (out.dst == stage) {
        // Stage-local (the vocabulary head's own shard): straight back in.
        machine.deliver(std::move(out.msg));
        continue;
      }
      ++metrics.p2p_messages;
      const char* out_kind = message_kind_name(out.msg.kind);
      const int out_mb = out.msg.mb, out_slice = out.msg.slice;
      const double send_start = run.now();
      if (rec != nullptr) {
        rec->flow_point(flow_id(run.attempt, out.msg, out.dst), stage,
                        send_start, /*begin=*/true, out_kind);
      }
      run.crumb(obs::FlightKind::Send, out_mb, out_slice, bytes(out.msg),
                out_kind);
      link.send(std::move(out));
      const double send_end = run.now();
      metrics.comm_seconds += send_end - send_start;
      if (rec != nullptr) {
        rec->span(stage,
                  std::string("send ") + out_kind + " mb" +
                      std::to_string(out_mb) + " s" +
                      std::to_string(out_slice),
                  obs::kCatComm, send_start, send_end, out_mb, out_slice,
                  stage);
      }
    }
    sends.clear();
    if (retired >= 0) {
      run.crumb(obs::FlightKind::Commit, retired, -1, machine.committed(),
                "commit");
      link.retire(machine, retired);
      if (rec != nullptr) {
        rec->instant(stage, "commit mb" + std::to_string(retired),
                     obs::kCatCommit);
      }
    }
    const double end = run.now();
    metrics.compute_seconds += end - start;
    run.crumb(obs::FlightKind::SpanEnd, mb, slice, 0, kind);
    if (rec != nullptr) {
      // Every processed message is compute work (vocabulary rounds run the
      // shard GEMMs); waiting shows up as "recv" spans.
      rec->span(stage,
                std::string(kind) + " mb" + std::to_string(mb) + " s" +
                    std::to_string(slice) + " st" + std::to_string(at_stage),
                obs::kCatCompute, start, end, mb, slice, at_stage);
    }
    publish(obs::StageState::Running);
  }
  publish(obs::StageState::Done);
}

}  // namespace slim::rt

#include <algorithm>
#include <deque>
#include <limits>

#include "src/model/flops.hpp"
#include "src/sched/builder.hpp"
#include "src/sched/schemes.hpp"
#include "src/util/logging.hpp"

namespace slim::sched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

// Constructive greedy in the spirit of ZB-V's automatic scheduler: each
// device, when free, prefers input-gradient backwards (they unblock
// upstream devices), then forwards (bounded by the activation-memory cap),
// and fills remaining gaps with weight-gradient work. The resulting
// per-device orders are then compiled and re-timed by the shared builder.
std::vector<DeviceProgram> zbv_programs(const PipelineSpec& spec,
                                        double memory_cap_units) {
  SLIM_CHECK(spec.v == 2 && spec.layout == StageLayoutKind::VShape,
             "ZB-V requires the V-shape layout with v == 2");
  SLIM_CHECK(spec.n == 1, "ZB-V is microbatch-granular");
  const int p = spec.p;
  const int m = spec.m;
  const StageLayout layout = spec.stage_layout();
  const int S = layout.num_stages();

  const model::CostModel cost(spec.cfg, spec.gpu, pipeline_topology(spec),
                              spec.shard, spec.policy, spec.cp_mode);
  const std::int64_t layers = spec.layers_per_stage();
  const double tf = cost.forward_time(layers, spec.seq, 0);
  const double tbi = cost.backward_input_time(layers, spec.seq, 0);
  const double tbw = cost.backward_weight_time(layers, spec.seq);
  const double tvf = cost.vocab_forward_time(spec.seq, 1);
  const double tvb = cost.vocab_backward_time(spec.seq, 1);
  // The activation ledger books the builder's unit shares (BI frees
  // 1 - wkeep, BW the rest), so the cap means what the verifier checks.
  const SliceMemory slice_memory(spec);

  std::vector<std::vector<double>> fdone(
      static_cast<std::size_t>(S), std::vector<double>(static_cast<std::size_t>(m), kInf));
  std::vector<std::vector<double>> bidone = fdone;

  struct DeviceState {
    int next_f[2] = {0, 0};
    int next_bi[2] = {0, 0};
    std::deque<Pass> pending_bw;
    double mem_units = 0.0;
    double busy_until = 0.0;
    bool idling = false;  // last step was an idle wait, not real work
    DeviceProgram program;
    bool finished = false;
  };
  std::vector<DeviceState> devs(static_cast<std::size_t>(p));

  auto f_ready = [&](int dev, int chunk) -> double {
    const DeviceState& st = devs[static_cast<std::size_t>(dev)];
    const int mb = st.next_f[chunk];
    if (mb >= m) return kInf;
    const int stage = layout.stage_of(dev, chunk);
    return stage == 0 ? 0.0
                      : fdone[static_cast<std::size_t>(stage - 1)]
                             [static_cast<std::size_t>(mb)];
  };
  auto bi_ready = [&](int dev, int chunk) -> double {
    const DeviceState& st = devs[static_cast<std::size_t>(dev)];
    const int mb = st.next_bi[chunk];
    if (mb >= m) return kInf;
    const int stage = layout.stage_of(dev, chunk);
    const double own_f =
        fdone[static_cast<std::size_t>(stage)][static_cast<std::size_t>(mb)];
    if (stage == S - 1) {
      // Vocabulary forward+backward run between F and BI at the last stage;
      // the builder materializes them, the greedy accounts for their time.
      return own_f + tvf + tvb;
    }
    return std::max(own_f, bidone[static_cast<std::size_t>(stage + 1)]
                                 [static_cast<std::size_t>(mb)]);
  };

  // Earliest time device d could start any action, given current state
  // (completion times are known at scheduling time, so future readiness is
  // visible). kInf means blocked until another device acts.
  auto earliest_action_time = [&](int d) -> double {
    const DeviceState& st = devs[static_cast<std::size_t>(d)];
    double t = kInf;
    for (int c : {1, 0}) t = std::min(t, bi_ready(d, c));
    if (st.mem_units + 1.0 <= memory_cap_units + 1e-9) {
      t = std::min(t, f_ready(d, 1));
    }
    if (st.mem_units + 2.0 <= memory_cap_units + 1e-9) {
      t = std::min(t, f_ready(d, 0));
    }
    if (!st.pending_bw.empty()) t = 0.0;
    return t;
  };
  auto can_act = [&](int d, double t) -> bool {
    return earliest_action_time(d) <= t;
  };

  int unfinished = p;
  int guard = 0;
  const int guard_limit = 64 * (S * m + p) * p + 4096;
  while (unfinished > 0) {
    SLIM_CHECK(++guard < guard_limit, "ZB-V greedy failed to converge");
    // Pick the unfinished device with the earliest availability; among
    // time-ties prefer one that can actually act, so an idle waiter cannot
    // starve a runnable peer at the same timestamp.
    int dev = -1;
    double now = kInf;
    bool dev_can_act = false;
    for (int d = 0; d < p; ++d) {
      const DeviceState& cand = devs[static_cast<std::size_t>(d)];
      if (cand.finished) continue;
      if (dev < 0 || cand.busy_until < now) {
        now = cand.busy_until;
        dev = d;
        dev_can_act = can_act(d, now);
      } else if (cand.busy_until == now && !dev_can_act &&
                 can_act(d, now)) {
        dev = d;
        dev_can_act = true;
      }
    }
    SLIM_CHECK(dev >= 0, "no runnable device");
    DeviceState& st = devs[static_cast<std::size_t>(dev)];

    // Preference: BI (chunk 1 drains the V first), then F, then BW filler.
    int action = -1, chunk = -1;
    for (int c : {1, 0}) {
      if (bi_ready(dev, c) <= now) { action = 1; chunk = c; break; }
    }
    if (action < 0) {
      // Chunk-1 forwards (the up-leg of the V) may use the full cap; chunk-0
      // forwards keep one unit of headroom so the up-leg — and with it the
      // whole backward chain — can always make progress.
      if (f_ready(dev, 1) <= now &&
          st.mem_units + 1.0 <= memory_cap_units + 1e-9) {
        action = 0;
        chunk = 1;
      } else if (f_ready(dev, 0) <= now &&
                 st.mem_units + 2.0 <= memory_cap_units + 1e-9) {
        action = 0;
        chunk = 0;
      }
    }
    if (action < 0 && !st.pending_bw.empty()) action = 2;

    if (action < 0) {
      // Idle: advance to the earliest moment anything could change — our
      // own future readiness, or the moment any peer becomes able to act
      // (its action will produce new completions).
      double next = earliest_action_time(dev);  // > now, else we'd have acted
      for (int d = 0; d < p; ++d) {
        const DeviceState& other = devs[static_cast<std::size_t>(d)];
        if (d == dev || other.finished) continue;
        const double t =
            std::max(other.busy_until, earliest_action_time(d));
        next = std::min(next, std::max(t, now));
      }
      if (next == kInf) {
        std::string state = "ZB-V greedy stalled: reporter dev " +
                            std::to_string(dev) + " now " +
                            std::to_string(now) + " cap " +
                            std::to_string(memory_cap_units) + " | ";
        for (int d = 0; d < p; ++d) {
          state += "can_act(" + std::to_string(d) + ")=" +
                   (can_act(d, std::max(devs[static_cast<std::size_t>(d)]
                                            .busy_until,
                                        now))
                        ? "1"
                        : "0");
          state += " ";
        }
        for (int d = 0; d < p; ++d) {
          const DeviceState& sd = devs[static_cast<std::size_t>(d)];
          state += "[dev " + std::to_string(d) + " f=" +
                   std::to_string(sd.next_f[0]) + "/" +
                   std::to_string(sd.next_f[1]) + " bi=" +
                   std::to_string(sd.next_bi[0]) + "/" +
                   std::to_string(sd.next_bi[1]) + " bw=" +
                   std::to_string(sd.pending_bw.size()) + " mem=" +
                   std::to_string(sd.mem_units) +
                   (sd.idling ? " idle" : " run") +
                   (sd.finished ? " done" : "") + "] ";
        }
        SLIM_CHECK(false, state);
      }
      st.busy_until = next;
      st.idling = true;
      continue;
    }
    st.idling = false;

    if (action == 0) {  // Forward
      const int mb = st.next_f[chunk]++;
      const int stage = layout.stage_of(dev, chunk);
      double dur = tf;
      if (stage == S - 1) dur += tvf;
      const double end = now + dur;
      fdone[static_cast<std::size_t>(stage)][static_cast<std::size_t>(mb)] = end;
      st.mem_units += slice_memory.share(PassType::Forward).act;
      st.program.push_back({PassType::Forward, mb, 0, chunk});
      st.busy_until = end;
    } else if (action == 1) {  // BackwardInput
      const int mb = st.next_bi[chunk]++;
      const int stage = layout.stage_of(dev, chunk);
      double dur = tbi;
      if (stage == S - 1) dur += tvb;
      const double end = now + dur;
      bidone[static_cast<std::size_t>(stage)][static_cast<std::size_t>(mb)] = end;
      st.mem_units += slice_memory.share(PassType::BackwardInput).act;
      st.program.push_back({PassType::BackwardInput, mb, 0, chunk});
      st.pending_bw.push_back({PassType::BackwardWeight, mb, 0, chunk});
      st.busy_until = end;
    } else {  // BackwardWeight filler
      Pass bw = st.pending_bw.front();
      st.pending_bw.pop_front();
      st.mem_units += slice_memory.share(PassType::BackwardWeight).act;
      st.program.push_back(bw);
      st.busy_until = now + tbw;
    }

    if (st.next_f[0] >= m && st.next_f[1] >= m && st.next_bi[0] >= m &&
        st.next_bi[1] >= m && st.pending_bw.empty()) {
      st.finished = true;
      --unfinished;
    }
  }

  std::vector<DeviceProgram> programs;
  programs.reserve(static_cast<std::size_t>(p));
  for (DeviceState& st : devs) programs.push_back(std::move(st.program));
  return programs;
}

}  // namespace slim::sched

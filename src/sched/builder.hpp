#pragma once

// Compiles per-device pass programs into a sim::OpGraph and runs them.
//
// The builder owns all cross-scheme mechanics: pass durations from the cost
// model, inter-stage activation/gradient transfers, vocabulary output ops,
// activation memory deltas (including the split frees of ZB-V), offload
// exposure, the optimizer tail, and model-state baselines. Scheme-specific
// code only produces DeviceProgram orderings. run_pipeline is the one
// program-level way to simulate an iteration — plain, traced or with a
// fault plan; core::run_scheme is the scheme-level one on top of it.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/fault/fault_plan.hpp"
#include "src/memory/tracker.hpp"
#include "src/obs/trace.hpp"
#include "src/sched/schedule.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/graph.hpp"

namespace slim::sched {

/// Interface implemented by SlimPipe's context-exchange planner (core
/// module). When present, the attention-core portion of sliced passes is
/// replaced by the planner's balanced time and exchange transfers are added.
class ExchangeOracle {
 public:
  struct Exchange {
    int partner = -1;         // pipeline device exchanged with
    double send_bytes = 0.0;  // bytes this device sends to the partner
    double recv_bytes = 0.0;  // bytes this device receives
  };
  struct PassPlan {
    double attn_time = 0.0;  // balanced attention-core time, seconds
    // One heavy device may shed KV to several light ones (Figure 8 shows
    // a light device absorbing two blocks), so a pass can have multiple
    // exchanges.
    std::vector<Exchange> exchanges;
  };

  virtual ~ExchangeOracle() = default;

  /// Plans the attention work of one pass. `stream` is the slice-stream
  /// index: microbatch * n + slice for forwards, and the backward-order
  /// stream (microbatch * n + (n-1-slice)) for backwards.
  virtual PassPlan plan(int device, std::int64_t stream, bool forward) const = 0;
};

struct BuildOutput {
  std::unique_ptr<sim::OpGraph> graph;
  std::vector<mem::StaticFootprint> baseline;
  double exchange_bytes_max_device = 0.0;
};

/// Compiles programs into an op graph (one compute stream per pipeline
/// device, channels between adjacent ranks). With the compile-time lint
/// enabled (the default), the schedule verifier (analysis::verify_ir) runs
/// once on the lowered table before any op is built, and any Error finding
/// aborts with the rendered report.
BuildOutput compile(const PipelineSpec& spec,
                    const std::vector<DeviceProgram>& programs,
                    const ExchangeOracle* exchange);

/// Process-global toggle for the schedule verifier inside compile(). On by
/// default (every test exercises it); benches turn it off so the large grid
/// sweeps do not pay the extra linear pass per compilation.
void set_compile_lint(bool enabled);
bool compile_lint_enabled();

/// Compiles, executes, replays memory and assembles the full result
/// (including per-stage obs::RunMetrics). This is the one program-level way
/// to simulate an iteration; core::run_scheme feeds it a scheme's
/// normalized spec and programs.
///
/// `trace`, when set, is filled with the executed timeline
/// (obs::trace_from_sim) for export via obs::chrome_trace_json. `faults`,
/// when set, is validated (an invalid plan fails a SLIM_CHECK) and applied
/// to the compiled graph (straggler and link degradation) before executing;
/// the checkpoint-restart recovery cost of any device crashes is then
/// added, so iteration_time reports the degraded total and the fault_*
/// fields break out the two overheads. `report`, when set, collects the
/// structured fault events, and a trace additionally carries them as
/// instant markers on the affected devices' tracks. A null plan runs the
/// fault-free path.
ScheduleResult run_pipeline(const PipelineSpec& spec,
                            const std::vector<DeviceProgram>& programs,
                            const ExchangeOracle* exchange,
                            const std::string& scheme_name,
                            bool want_timeline = false,
                            obs::Trace* trace = nullptr,
                            const fault::FaultPlan* faults = nullptr,
                            fault::FaultReport* report = nullptr);

/// Shared warmup/steady/cooldown assembly: `fwd` and `bwd` are the
/// device-local unit orders; the first `warmup` forwards run before the
/// first backward, then backwards and forwards alternate (B first), then
/// the remaining backwards drain.
DeviceProgram one_f_one_b_program(const std::vector<Pass>& fwd,
                                  const std::vector<Pass>& bwd, int warmup);

/// Topology of the pipeline group: `p` logical ranks, each owning
/// shard.t * shard.c GPUs; ranks sharing a node get NVLink links.
sim::Topology pipeline_topology(const PipelineSpec& spec);

}  // namespace slim::sched

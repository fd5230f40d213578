// Fault degradation: how gracefully each pipeline scheme absorbs cluster
// misbehaviour. The same deterministic FaultPlan (src/fault) is applied to
// 1F1B, ZB-V and SlimPipe under four scenarios — a persistent mid-pipeline
// straggler, a transient slowdown window, a degraded inter-stage link, and
// a device crash with checkpoint-restart — and the table reports the
// degraded iteration time next to the fault-free baseline.
//
// Expectation: slowdowns scale with how much of the critical path runs on
// the faulted device. SlimPipe's finer slicing gives it more, shorter ops,
// so a *transient* window of fixed op count hurts it less than schemes with
// coarse passes; a *persistent* straggler degrades every scheme by roughly
// the straggler factor's share of the critical path; crash recovery cost is
// schedule-independent (lost wall-clock + restart), so the scheme with the
// shortest iteration also replays the least.

#include "bench_common.hpp"

#include "src/fault/fault_plan.hpp"

using namespace slim;

namespace {

constexpr int kP = 4, kM = 8, kN = 16, kV = 2;
constexpr std::int64_t kSeq = 64 * 1024;

sched::PipelineSpec spec_for(core::Scheme scheme) {
  auto spec = slimbench::base_spec(model::llama13b(), 8, kP, kSeq, kM);
  switch (scheme) {
    case core::Scheme::SlimPipe:
      spec.n = kN;
      spec.v = kV;
      spec.vocab_parallel = true;
      spec.context_exchange = true;
      break;
    default:
      break;
  }
  return spec;
}

struct Scenario {
  const char* name;
  fault::FaultPlan plan;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;

  {
    Scenario s{"persistent straggler", {}};
    fault::Straggler st;
    st.device = kP / 2;  // mid-pipeline
    st.factor = 1.3;
    s.plan.stragglers.push_back(st);
    out.push_back(std::move(s));
  }
  {
    Scenario s{"transient window", {}};
    fault::Straggler st;
    st.device = kP / 2;
    st.factor = 2.0;
    st.jitter = 0.25;
    st.from_op = 8;
    st.to_op = 40;  // a fixed op-count window, not a fixed wall-clock one
    s.plan.seed = 7;
    s.plan.stragglers.push_back(st);
    out.push_back(std::move(s));
  }
  {
    Scenario s{"slow link", {}};
    fault::LinkFault link;
    link.src = 1;
    link.slowdown = 4.0;
    link.extra_latency = 1e-4;
    s.plan.links.push_back(link);
    out.push_back(std::move(s));
  }
  {
    Scenario s{"crash + restart", {}};
    fault::Crash crash;
    crash.device = kP - 1;
    crash.at_op = 48;  // ~60% into the last device's compute sequence
    crash.restart_cost = 5.0;
    s.plan.crashes.push_back(crash);
    out.push_back(std::move(s));
  }
  return out;
}

const std::vector<core::Scheme> kSchemes = {
    core::Scheme::OneF1B, core::Scheme::ZBV, core::Scheme::SlimPipe};

}  // namespace

static void BM_FaultDegradation(benchmark::State& state) {
  const auto scens = scenarios();
  for (auto _ : state) {
    for (const auto scheme : kSchemes) {
      for (const auto& scenario : scens) {
        benchmark::DoNotOptimize(core::run_scheme(
            scheme, spec_for(scheme), false, nullptr, &scenario.plan));
      }
    }
  }
}
BENCHMARK(BM_FaultDegradation)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  slimbench::open_report("fault_degradation");
  slimbench::print_banner(
      "Fault degradation — scheme robustness under a shared fault plan",
      "Llama 13B, t=8, p=4, m=8, 64K context; straggler x1.3, transient "
      "x2.0 window, link x4, crash at ~60% + 5 s restart",
      "SlimPipe keeps the shortest degraded iteration across scenarios; "
      "transient windows of fixed op count cost it the least because its "
      "slice-level ops are the shortest");

  Table table({"scheme", "scenario", "iteration", "injected", "recovery",
               "slowdown"});
  for (const auto scheme : kSchemes) {
    const auto baseline = core::run_scheme(scheme, spec_for(scheme));
    table.add_row({core::scheme_name(scheme), "fault-free",
                   format_time(baseline.iteration_time), "--", "--", "x1.00"});
    for (const auto& scenario : scenarios()) {
      const auto r = core::run_scheme(scheme, spec_for(scheme), false,
                                      nullptr, &scenario.plan);
      table.add_row(
          {core::scheme_name(scheme), scenario.name,
           format_time(r.iteration_time),
           format_time(r.fault_injected_seconds),
           format_time(r.fault_recovery_seconds),
           "x" + fmt(r.iteration_time / baseline.iteration_time, 2)});
    }
    table.add_separator();
  }
  slimbench::print_table("throughput degradation under faults", table);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

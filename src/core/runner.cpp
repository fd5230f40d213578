#include "src/core/runner.hpp"

#include <algorithm>
#include <memory>

#include "src/core/context_exchange.hpp"
#include "src/core/slice.hpp"
#include "src/core/slimpipe.hpp"
#include "src/sched/builder.hpp"
#include "src/sched/schemes.hpp"
#include "src/util/logging.hpp"

namespace slim::core {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::GPipe: return "GPipe";
    case Scheme::TeraPipe: return "TeraPipe";
    case Scheme::OneF1B: return "1F1B";
    case Scheme::Interleaved1F1B: return "Interleaved 1F1B";
    case Scheme::ZBV: return "ZB-V";
    case Scheme::VHalf: return "V-Half";
    case Scheme::VMin: return "V-Min";
    case Scheme::SlimPipe: return "SlimPipe";
  }
  return "?";
}

std::vector<Scheme> all_schemes() {
  return {Scheme::GPipe,  Scheme::TeraPipe, Scheme::OneF1B,
          Scheme::Interleaved1F1B, Scheme::ZBV, Scheme::VHalf,
          Scheme::VMin, Scheme::SlimPipe};
}

std::optional<Scheme> scheme_by_name(const std::string& name) {
  if (name == "gpipe") return Scheme::GPipe;
  if (name == "terapipe") return Scheme::TeraPipe;
  if (name == "1f1b") return Scheme::OneF1B;
  if (name == "interleaved") return Scheme::Interleaved1F1B;
  if (name == "zbv") return Scheme::ZBV;
  if (name == "vhalf") return Scheme::VHalf;
  if (name == "vmin") return Scheme::VMin;
  if (name == "slimpipe") return Scheme::SlimPipe;
  return std::nullopt;
}

namespace {

/// Live stage-unit cap of the V-shaped schemes' greedy.
double vshape_cap(Scheme scheme, int p) {
  const double dp = static_cast<double>(p);
  if (scheme == Scheme::VHalf) return dp + 2.0;  // Table 2: (1/2 + 1/p) Ma
  if (scheme == Scheme::VMin) return std::max(4.0, 2.0 * dp / 3.0 + 2.0);
  return 2.0 * dp;  // ZB-V: 1F1B's peak
}

}  // namespace

sched::ScheduleResult run_scheme(Scheme scheme, sched::PipelineSpec spec,
                                 bool want_timeline, obs::Trace* trace,
                                 const fault::FaultPlan* faults,
                                 fault::FaultReport* report) {
  // plan_scheme stamps the scheme's declared in-flight cap on the spec, so
  // compile() enforces the sched-inflight-bound rule on every simulated run.
  SchedulePlan plan = plan_scheme(scheme, std::move(spec));
  std::unique_ptr<ExchangePlanner> planner;
  if (plan.spec.context_exchange && plan.spec.p > 1) {
    planner = std::make_unique<ExchangePlanner>(plan.spec);
  }
  return sched::run_pipeline(plan.spec, plan.programs, planner.get(),
                             scheme_name(plan.scheme), want_timeline, trace,
                             faults, report);
}

SchemeSpec normalize_scheme(Scheme scheme, sched::PipelineSpec spec) {
  // The one spec normalization per scheme: the planner's estimates read
  // the same spec plan_scheme generates programs for and run_scheme
  // simulates. The generators divide by p, v, m and n.
  SLIM_CHECK(spec.p >= 1 && spec.v >= 1 && spec.m >= 1 && spec.n >= 1,
             "p, v, m and n must be >= 1");
  // Interleaving with a single chunk is plain 1F1B.
  if (scheme == Scheme::Interleaved1F1B && spec.v == 1) {
    scheme = Scheme::OneF1B;
  }
  switch (scheme) {
    case Scheme::GPipe:
      spec.v = 1;
      spec.n = 1;
      spec.layout = sched::StageLayoutKind::Sequential;
      spec.retain_kv = false;
      spec.context_exchange = false;
      // All m microbatches accumulate until the flush.
      spec.max_inflight_units = static_cast<double>(spec.m);
      break;
    case Scheme::TeraPipe:
      spec.v = 1;
      spec.layout = sched::StageLayoutKind::Sequential;
      spec.retain_kv = true;
      spec.context_exchange = false;
      // GPipe-style accumulation at slice granularity: m * n live slices.
      spec.max_inflight_units = static_cast<double>(spec.m) *
                                static_cast<double>(spec.n);
      break;
    case Scheme::OneF1B:
      spec.v = 1;
      spec.n = 1;
      spec.layout = sched::StageLayoutKind::Sequential;
      spec.retain_kv = false;
      spec.context_exchange = false;
      // Device 0's warm-up depth: p in-flight microbatches (fewer if m < p).
      spec.max_inflight_units = static_cast<double>(spec.p);
      break;
    case Scheme::Interleaved1F1B:
      spec.n = 1;
      spec.retain_kv = false;
      spec.context_exchange = false;
      spec.layout = sched::StageLayoutKind::Interleaved;
      // Device 0's Megatron warm-up: 2(p-1) + (v-1)p + 1 chunk passes.
      spec.max_inflight_units =
          static_cast<double>(2 * (spec.p - 1) + (spec.v - 1) * spec.p + 1);
      break;
    case Scheme::ZBV:
    case Scheme::VHalf:
    case Scheme::VMin:
      spec.v = 2;
      spec.n = 1;
      spec.layout = sched::StageLayoutKind::VShape;
      spec.retain_kv = false;
      spec.context_exchange = false;
      spec.policy = model::CheckpointPolicy::None;
      spec.max_inflight_units = vshape_cap(scheme, spec.p);
      break;
    case Scheme::SlimPipe:
      spec.layout = spec.v == 1 ? sched::StageLayoutKind::Sequential
                                : sched::StageLayoutKind::Interleaved;
      spec.retain_kv = true;
      spec.cp_mode = model::CpMode::Commutated;
      if (spec.n < spec.p) spec.n = spec.p;
      if (spec.n <= 1 || spec.p <= 1) spec.context_exchange = false;
      // Eq. 1 window at device 0: n v + 2(p-1) slice units.
      spec.max_inflight_units =
          static_cast<double>(slimpipe_warmup_units(spec.p, 0, spec.n, spec.v));
      break;
  }
  // A schedule can never hold more units than the (normalized) iteration has.
  spec.max_inflight_units =
      std::min(spec.max_inflight_units, static_cast<double>(spec.m) *
                                            static_cast<double>(spec.n) *
                                            static_cast<double>(spec.v));
  return {scheme, std::move(spec)};
}

SchedulePlan plan_scheme(Scheme scheme, sched::PipelineSpec spec) {
  SchedulePlan plan{normalize_scheme(scheme, std::move(spec)), {}};
  const sched::PipelineSpec& s = plan.spec;
  switch (plan.scheme) {
    case Scheme::GPipe: plan.programs = sched::gpipe_programs(s); break;
    case Scheme::TeraPipe: plan.programs = sched::terapipe_programs(s); break;
    case Scheme::OneF1B: plan.programs = sched::onef1b_programs(s); break;
    case Scheme::Interleaved1F1B:
      plan.programs = sched::interleaved_programs(s);
      break;
    case Scheme::ZBV:
    case Scheme::VHalf:
    case Scheme::VMin:  // the greedy takes the cap before the m n v clamp
      plan.programs = sched::zbv_programs(s, vshape_cap(plan.scheme, s.p));
      break;
    case Scheme::SlimPipe: plan.programs = slimpipe_programs(s); break;
  }
  SLIM_CHECK(!plan.programs.empty(),
             "scheme generated no device programs (is p >= 1?)");
  return plan;
}

}  // namespace slim::core

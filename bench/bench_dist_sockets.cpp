// Fault degradation over real sockets: the multi-process pipeline backend
// (src/dist — forked stage workers, AF_UNIX transport, supervised
// heartbeats) under socket-level fault plans. Unlike bench_fault_degradation
// this measures actual wall clock on a real transport, not the cost model:
// injected socket latency shows up in measured comm seconds, dropped frames
// cost real retransmit time, and a killed or hung worker costs a real
// detection + backoff-respawn + replay round trip.
//
// Expectation: injected per-frame latency degrades the iteration by roughly
// (frames sent by the faulted stage) x delay; a drop burst within the retry
// budget costs only the retransmit backoff; crash and hang recovery are
// dominated by detection time (immediate via waitpid for a crash, one
// heartbeat deadline for a hang) plus the replayed microbatches' compute.
// Every degraded run still produces bit-identical gradients — asserted
// here, not just in the tests.

#include "bench_common.hpp"

#include <chrono>
#include <cstdio>

#include "src/dist/process_pipeline.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/util/rng.hpp"

using namespace slim;

namespace {

struct Shape {
  num::BlockDims dims;
  std::int64_t vocab;
  int layers;
  int stages;
  int microbatches;
  int n_slices;
  int seq;
};

Shape bench_shape() {
  if (slimbench::smoke_mode()) {
    return {{32, 4, 2, 48}, 32, 4, 2, 2, 2, 24};
  }
  return {{64, 8, 2, 96}, 64, 8, 4, 4, 2, 48};
}

struct Scenario {
  const char* name;
  fault::FaultPlan plan;
};

std::vector<Scenario> scenarios(const Shape& shape) {
  std::vector<Scenario> out;
  {
    Scenario s{"socket delay 1ms", {}};
    s.plan.socket_delays.push_back({0, 1, 0.001});
    out.push_back(std::move(s));
  }
  {
    Scenario s{"drop burst + retry", {}};
    s.plan.socket_drops.push_back({0, 2, 3, 5});
    out.push_back(std::move(s));
  }
  {
    Scenario s{"worker crash + replay", {}};
    s.plan.stage_crashes.push_back({shape.stages / 2, 4});
    out.push_back(std::move(s));
  }
  {
    Scenario s{"worker hang + watchdog", {}};
    s.plan.stage_hangs.push_back({shape.stages / 2, 4});
    out.push_back(std::move(s));
  }
  return out;
}

struct Measured {
  double wall = 0.0;
  dist::ProcessPipeline::Result result;
  fault::FaultReport report;
};

Measured run_once(dist::ProcessPipeline& pipe, const Shape& shape,
                  const std::vector<std::vector<std::int64_t>>& tokens,
                  const std::vector<std::vector<std::int64_t>>& targets,
                  const fault::FaultPlan* plan) {
  dist::ProcessOptions options;
  options.n_slices = shape.n_slices;
  options.faults = plan;
  // Tight supervision so hang detection, not the bench reader's patience,
  // dominates the recovery row (workers beat every 5 ms).
  options.heartbeat_timeout = std::chrono::milliseconds(200);
  Measured m;
  options.report = &m.report;
  const auto start = std::chrono::steady_clock::now();
  m.result = pipe.run_iteration(tokens, targets, options);
  m.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count();
  return m;
}

}  // namespace

static void BM_DistSockets(benchmark::State& state) {
  const Shape shape = bench_shape();
  Rng data_rng(11);
  std::vector<std::vector<std::int64_t>> tokens, targets;
  for (int mb = 0; mb < shape.microbatches; ++mb) {
    std::vector<std::int64_t> tok, tgt;
    for (int i = 0; i < shape.seq; ++i) {
      tok.push_back(static_cast<std::int64_t>(
          data_rng.next_below(static_cast<std::uint64_t>(shape.vocab))));
      tgt.push_back(static_cast<std::int64_t>(
          data_rng.next_below(static_cast<std::uint64_t>(shape.vocab))));
    }
    tokens.push_back(std::move(tok));
    targets.push_back(std::move(tgt));
  }
  Rng rng(12);
  dist::ProcessPipeline pipe(shape.dims, shape.vocab, shape.layers,
                             shape.stages, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_once(pipe, shape, tokens, targets, nullptr));
  }
}
BENCHMARK(BM_DistSockets)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  const Shape shape = bench_shape();
  slimbench::open_report("dist_sockets");
  slimbench::print_banner(
      "Fault degradation over sockets — multi-process runtime (src/dist)",
      (slimbench::smoke_mode()
           ? std::string("smoke shapes (SLIMPIPE_BENCH_SMOKE), ")
           : std::string("full shapes, ")) +
          "p=" + std::to_string(shape.stages) +
          ", m=" + std::to_string(shape.microbatches) +
          ", n=" + std::to_string(shape.n_slices) +
          ", layers=" + std::to_string(shape.layers) +
          "; forked workers, AF_UNIX transport, supervised heartbeats",
      "socket latency degrades by ~frames x delay; drops within the retry "
      "budget cost only retransmit backoff; crash/hang recovery = detection "
      "+ backoff + replayed compute; gradients stay bit-identical");

  Rng data_rng(11);
  std::vector<std::vector<std::int64_t>> tokens, targets;
  for (int mb = 0; mb < shape.microbatches; ++mb) {
    std::vector<std::int64_t> tok, tgt;
    for (int i = 0; i < shape.seq; ++i) {
      tok.push_back(static_cast<std::int64_t>(
          data_rng.next_below(static_cast<std::uint64_t>(shape.vocab))));
      tgt.push_back(static_cast<std::int64_t>(
          data_rng.next_below(static_cast<std::uint64_t>(shape.vocab))));
    }
    tokens.push_back(std::move(tok));
    targets.push_back(std::move(tgt));
  }

  Rng rng(12);
  dist::ProcessPipeline pipe(shape.dims, shape.vocab, shape.layers,
                             shape.stages, rng);
  const Measured baseline =
      run_once(pipe, shape, tokens, targets, nullptr);

  // ---- measured vs analytical exchange volume (fault-free run) ----
  //
  // The wire counters (the socket link's share of each worker's
  // StageMetrics) measure what actually crossed each worker's sockets. The
  // analytical prediction is bench_eq2_exchange_volume's counting argument
  // mapped onto the frames: every interior boundary carries m*n forward
  // frames down and m*n backward frames up, each one tensor of slice_len x
  // hidden fp32 (the counters count the tensor's bytes, as the threaded
  // runtime's do; the 16-byte rows/cols header is the wire's encoding). On
  // a fault-free run the two must agree EXACTLY — any drift means frames
  // are being dropped, duplicated or miscounted.
  {
    const std::int64_t slice_len = shape.seq / shape.n_slices;
    const double frame_payload =
        static_cast<double>(slice_len * shape.dims.hidden) * 4.0;
    Table wire({"stage", "frames out", "frames in", "bytes out", "bytes in",
                "pred frames", "pred bytes", "crc rej", "retries", "match"});
    bool wire_ok = true;
    for (int s = 0; s < shape.stages; ++s) {
      const obs::StageMetrics& sm =
          baseline.result.stats.metrics.stages[static_cast<std::size_t>(s)];
      const std::int64_t links =
          (s > 0 ? 1 : 0) + (s + 1 < shape.stages ? 1 : 0);
      const std::int64_t pred_frames =
          links * static_cast<std::int64_t>(shape.microbatches) *
          shape.n_slices;
      const double pred_bytes =
          static_cast<double>(pred_frames) * frame_payload;
      const bool ok = sm.frames_sent == pred_frames &&
                      sm.frames_recv == pred_frames &&
                      sm.p2p_bytes == pred_bytes &&
                      sm.bytes_recv == pred_bytes && sm.crc_rejects == 0 &&
                      sm.send_retries == 0;
      wire_ok = wire_ok && ok;
      wire.add_row({fmt(static_cast<std::int64_t>(s)),
                    fmt(sm.frames_sent), fmt(sm.frames_recv),
                    format_bytes(sm.p2p_bytes), format_bytes(sm.bytes_recv),
                    fmt(pred_frames), format_bytes(pred_bytes),
                    fmt(sm.crc_rejects), fmt(sm.send_retries),
                    ok ? "exact" : "MISMATCH"});
    }
    slimbench::print_table(
        "measured vs analytical exchange volume (fault-free)", wire);
    if (!wire_ok) {
      std::fprintf(stderr,
                   "FATAL: measured wire volume does not reconcile with the "
                   "analytical prediction\n");
      return 1;
    }
  }

  Table table({"scenario", "iteration", "comm s0", "injected", "replayed",
               "events", "grads", "slowdown"});
  double baseline_comm = 0.0;
  if (!baseline.result.stats.metrics.stages.empty()) {
    baseline_comm = baseline.result.stats.metrics.stages[0].comm_seconds;
  }
  table.add_row({"fault-free", format_time(baseline.wall),
                 format_time(baseline_comm), "--", "--", "--", "exact",
                 "x1.00"});
  for (const Scenario& scenario : scenarios(shape)) {
    const Measured m =
        run_once(pipe, shape, tokens, targets, &scenario.plan);
    const float diff =
        m.result.grads.max_abs_diff(baseline.result.grads);
    if (diff != 0.0f) {
      std::fprintf(stderr,
                   "FATAL: scenario '%s' changed the gradients "
                   "(max_abs_diff=%g)\n",
                   scenario.name, static_cast<double>(diff));
      return 1;
    }
    table.add_row(
        {scenario.name, format_time(m.wall),
         format_time(m.result.stats.metrics.stages[0].comm_seconds),
         format_time(m.report.injected_seconds),
         fmt(static_cast<std::int64_t>(
             m.report.replayed_microbatches.size())),
         fmt(static_cast<std::int64_t>(m.report.events.size())), "exact",
         "x" + fmt(m.wall / baseline.wall, 2)});
  }
  slimbench::print_table("degradation over the socket transport", table);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

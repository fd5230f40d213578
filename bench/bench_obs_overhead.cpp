// Observability overhead gate: the ALWAYS-ON observability — the worker
// flight recorder, its Telemetry flushes and the wire counters — must cost
// < 3% of step time. That is the cost every production run pays;
// the bench exits non-zero above the budget, so the telemetry ctest label
// turns an observability regression into a red test, not a slow dashboard.
//
// The OPT-IN extras (trace recorder + live JSON/Prometheus publishing) are
// measured and reported alongside but not gated: full tracing serializes
// every span over the control socket and is priced as a debugging mode, not
// an always-on tax.
//
// Method: K adjacent ON/OFF pairs (warm-up discarded, order alternating),
// overhead = median of the per-pair on/off ratios, minus 1, clamped at 0.
// Adjacent runs share the machine's noise regime, so each ratio is an
// apples-to-apples sample even on a busy single-core box; the median then
// discards the pairs a scheduler spike still split. A best-of estimator is
// NOT robust here: one lucky OFF sample anywhere poisons the whole gate.
//
// Noise floor: K adjacent OFF/OFF pairs, interleaved with the ON/OFF ones,
// show how far apart two identical runs land on this box right now. The
// floor is the largest such gap, and the gate fails only when the overhead
// exceeds the budget by more than it. At smoke shapes a step takes ~10 ms
// and on a shared box the run-to-run gap alone often passes the 3% budget;
// a fixed threshold there fails on noise, and a narrower floor (the
// distance between the OFF/OFF quartiles) still failed 3 of 40 serial runs
// on a loaded 4-core VM.
// The floor is printed, so a run's resolution is visible next to its
// verdict.

#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/dist/process_pipeline.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/pipeline_runtime.hpp"
#include "src/util/rng.hpp"

using namespace slim;

namespace {

constexpr double kBudget = 0.03;  // 3% of step time

bool smoke_mode() {
  const char* env = std::getenv("SLIMPIPE_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

struct Shape {
  num::BlockDims dims;
  std::int64_t vocab;
  int layers;
  int stages;
  int microbatches;
  int n_slices;
  int seq;
  int pairs;  // interleaved ON/OFF repetitions
};

Shape bench_shape() {
  if (smoke_mode()) {
    return {{32, 4, 2, 48}, 32, 4, 2, 2, 2, 24, 9};
  }
  return {{64, 8, 2, 96}, 64, 8, 2, 4, 2, 48, 11};
}

struct Data {
  std::vector<std::vector<std::int64_t>> tokens, targets;
};

Data make_data(const Shape& shape) {
  Rng rng(11);
  Data data;
  for (int mb = 0; mb < shape.microbatches; ++mb) {
    std::vector<std::int64_t> tok, tgt;
    for (int i = 0; i < shape.seq; ++i) {
      tok.push_back(static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(shape.vocab))));
      tgt.push_back(static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(shape.vocab))));
    }
    data.tokens.push_back(std::move(tok));
    data.targets.push_back(std::move(tgt));
  }
  return data;
}

enum class DistMode {
  Off,      // flight recorder disabled, no trace, no live publishing
  Flight,   // the always-on configuration (gated)
  Full,     // flight + trace recorder + JSON/Prometheus (informational)
};

double time_dist(dist::ProcessPipeline& pipe, const Shape& shape,
                 const Data& data, DistMode mode) {
  dist::ProcessOptions options;
  options.n_slices = shape.n_slices;
  options.flight = mode != DistMode::Off;
  obs::Recorder rec;
  if (mode == DistMode::Full) {
    options.recorder = &rec;
    const char* tmp = std::getenv("TMPDIR");
    const std::string dir = tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp";
    options.telemetry_json_path = dir + "/bench_obs_overhead_live.json";
    options.telemetry_prom_path = dir + "/bench_obs_overhead_live.prom";
    options.telemetry_interval = std::chrono::milliseconds(20);
  }
  const auto start = std::chrono::steady_clock::now();
  pipe.run_iteration(data.tokens, data.targets, options);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double time_threaded(rt::ThreadedPipeline& pipe, const Shape& shape,
                     const Data& data, bool trace_on) {
  rt::RunOptions options;
  options.n_slices = shape.n_slices;
  obs::Recorder rec;
  if (trace_on) options.recorder = &rec;
  const auto start = std::chrono::steady_clock::now();
  pipe.run_iteration(data.tokens, data.targets, options);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Median of a non-empty sample.
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct OverheadRow {
  std::vector<double> on, off, ratios;  // per pair

  void add_pair(double t_on, double t_off) {
    on.push_back(t_on);
    off.push_back(t_off);
    if (t_off > 0.0) ratios.push_back(t_on / t_off);
  }

  double overhead() const {
    if (ratios.empty()) return 0.0;
    return std::max(0.0, median(ratios) - 1.0);
  }

  /// Largest relative gap between the two runs of a pair, either way round.
  double max_gap() const {
    double gap = 0.0;
    for (double r : ratios) gap = std::max(gap, std::max(r, 1.0 / r) - 1.0);
    return gap;
  }
};

/// One adjacent pair, order alternating with `i` so a monotone load trend
/// penalizes ON and OFF equally often.
template <typename On, typename Off>
void sample_pair(OverheadRow& row, int i, On&& on, Off&& off) {
  if (i % 2 == 0) {
    const double t_on = on();
    row.add_pair(t_on, off());
  } else {
    const double t_off = off();
    row.add_pair(on(), t_off);
  }
}

}  // namespace

static void BM_ObsOverheadDistOn(benchmark::State& state) {
  const Shape shape = bench_shape();
  const Data data = make_data(shape);
  Rng rng(12);
  dist::ProcessPipeline pipe(shape.dims, shape.vocab, shape.layers,
                             shape.stages, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(time_dist(pipe, shape, data, DistMode::Flight));
  }
}
BENCHMARK(BM_ObsOverheadDistOn)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  const Shape shape = bench_shape();
  slimbench::open_report("obs_overhead");
  slimbench::print_banner(
      "Observability overhead gate — flight recorder + telemetry < 3%",
      (smoke_mode() ? std::string("smoke shapes (SLIMPIPE_BENCH_SMOKE), ")
                    : std::string("full shapes, ")) +
          "p=" + std::to_string(shape.stages) +
          ", m=" + std::to_string(shape.microbatches) +
          ", n=" + std::to_string(shape.n_slices) +
          ", interleaved ON/OFF and OFF/OFF pairs=" +
          std::to_string(shape.pairs) +
          ", overhead = median pair ratio - 1, gated at budget + noise floor",
      "breadcrumb recording is O(1) ring writes and flushes piggyback on "
      "heartbeats, so observed step-time overhead stays under the 3% budget "
      "on both substrates");

  const Data data = make_data(shape);
  Rng rng_d(12);
  dist::ProcessPipeline dist_pipe(shape.dims, shape.vocab, shape.layers,
                                  shape.stages, rng_d);
  Rng rng_t(12);
  rt::ThreadedPipeline threaded_pipe(shape.dims, shape.vocab, shape.layers,
                                     shape.stages, rng_t);

  // Warm-up (page cache, pools, first-fork costs) — discarded.
  time_dist(dist_pipe, shape, data, DistMode::Off);
  time_threaded(threaded_pipe, shape, data, false);

  OverheadRow flight_row, noise_row, full_row, trace_row;
  const auto dist_off = [&] {
    return time_dist(dist_pipe, shape, data, DistMode::Off);
  };
  for (int i = 0; i < shape.pairs; ++i) {
    sample_pair(
        flight_row, i,
        [&] { return time_dist(dist_pipe, shape, data, DistMode::Flight); },
        dist_off);
    sample_pair(noise_row, i, dist_off, dist_off);
    sample_pair(
        full_row, i,
        [&] { return time_dist(dist_pipe, shape, data, DistMode::Full); },
        dist_off);
    sample_pair(
        trace_row, i,
        [&] { return time_threaded(threaded_pipe, shape, data, true); },
        [&] { return time_threaded(threaded_pipe, shape, data, false); });
  }

  const auto pct = [](double frac) { return fmt(frac * 100.0, 2) + "%"; };
  const auto median_time = [](const std::vector<double>& times) {
    return format_time(median(times));
  };
  const double floor = noise_row.max_gap();
  const bool ok = flight_row.overhead() <= kBudget + floor;
  Table table({"configuration", "off (median)", "on (median)",
               "overhead (median ratio)", "noise floor", "budget",
               "verdict"});
  table.add_row({"dist: flight recorder (always-on, gated)",
                 median_time(flight_row.off), median_time(flight_row.on),
                 pct(flight_row.overhead()), pct(floor), pct(kBudget),
                 ok ? "pass" : "FAIL"});
  table.add_row({"dist: + trace + live publishing (opt-in)",
                 median_time(full_row.off), median_time(full_row.on),
                 pct(full_row.overhead()), "--", "--", "info"});
  table.add_row({"threaded: trace recorder (opt-in)",
                 median_time(trace_row.off), median_time(trace_row.on),
                 pct(trace_row.overhead()), "--", "--", "info"});
  slimbench::print_table("observability overhead", table);
  if (!ok) {
    std::fprintf(stderr,
                 "FATAL: always-on observability overhead %.2f%% exceeds the "
                 "%.0f%% budget by more than the %.2f%% noise floor\n",
                 flight_row.overhead() * 100.0, kBudget * 100.0,
                 floor * 100.0);
    return 1;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

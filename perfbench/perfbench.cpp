// perfbench: the repository's benchmark. One process runs one workload:
//
//   perfbench --workload train_long|train_fine|plan_grid|sim_large
//             --seed N --seconds S --trace 0|1 [--tiny] [--trace-file PATH]
//
// Inputs derive from --seed. With --trace 0 the run measures the end-to-end
// metrics with tracing off; with --trace 1 it measures the per-layer
// metrics, records spans around every timed layer call (the runtimes record
// their stage spans into the same obs::Recorder) and writes one Chrome
// trace. The last stdout line is one JSON object with the keys correct,
// attempted, failed and metrics. --tiny shrinks every shape (smoke test).

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "src/util/thread_pool.hpp"

namespace perfbench {
namespace {

bool is_train(const std::string& w) { return w == "train_long" || w == "train_fine"; }

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload train_long|train_fine|plan_grid|"
               "sim_large --seed N --seconds S --trace 0|1 [--tiny] "
               "[--trace-file PATH]\n",
               why);
  return 2;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

constexpr bool kOptimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

void print_host(const Run& run, double fma_gflops) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g tiny=%d\n",
              run.workload.c_str(), static_cast<unsigned long long>(run.seed),
              run.seconds, run.tiny ? 1 : 0);
  std::printf("# host nproc=%d hardware_threads=%u pool_width=%d "
              "compiler=\"%s\" build_type=%s optimized=%s "
              "fma_peak_gflops=%.3f\n",
              online_cpus(), std::thread::hardware_concurrency(),
              util::ThreadPool::global().max_threads(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, kOptimized ? "yes" : "NO", fma_gflops);
  std::printf("# threads %s\n",
              is_train(run.workload)
                  ? train_threads(run).c_str()
                  : "planner_threads=1 simulator_threads=1");
  if (!kOptimized) {
    std::printf("# WARNING: built without optimisation; these numbers are "
                "not a baseline and the run reports correct=false\n");
  }
}

void print_samples(const char* name, const std::vector<double>& samples) {
  std::printf("# %s: %zu samples:", name, samples.size());
  for (std::size_t i = 0; i < samples.size() && i < 32; ++i) {
    std::printf(" %.4f", samples[i]);
  }
  std::printf("%s\n", samples.size() > 32 ? " ..." : "");
}

Metrics end_to_end(const Run& run, Tally& tally) {
  const Samples samples = is_train(run.workload) ? train_e2e(run, tally)
                          : run.workload == "plan_grid" ? plan_e2e(run, tally)
                                                        : sim_e2e(run, tally);
  print_samples("op_s", samples.op_s);
  print_samples("setup_s", samples.setup_s);
  Metrics out;
  put(out, "op_s", median(samples.op_s), "s");
  put(out, "setup_s", median(samples.setup_s), "s");
  put(out, "peak_rss_mib", samples.peak_rss_mib, "MiB");
  return out;
}

// Every traced run reports every per-layer metric. A training run also
// profiles the simulator (sim_large's spec) and the planner (plan_grid's
// cells) once each at their own shapes, since those two are not end-to-end
// workloads of the benchmark. When plan_grid or sim_large is run by hand,
// the layers it does not exercise are probed at the smoke-test shapes of a
// workload that does; those rows are predicted flat on it.
Metrics per_layer(const Run& run, Tally& tally, obs::Recorder* rec) {
  Run probe = run;
  probe.seconds = 0.0;
  Metrics out;
  if (is_train(run.workload)) {
    out = train_layers(run, tally, rec);
    probe.workload = "sim_large";
    merge_missing(out, sim_layers(probe, tally, rec));
    probe.workload = "plan_grid";
    merge_missing(out, plan_layers(probe, tally, rec));
    return out;
  }
  probe.tiny = true;
  if (run.workload == "plan_grid") {
    out = plan_layers(run, tally, rec);
    probe.workload = "train_fine";
    merge_missing(out, train_layers(probe, tally, nullptr));
  } else {
    out = sim_layers(run, tally, rec);
    probe.workload = "plan_grid";
    merge_missing(out, plan_layers(probe, tally, nullptr));
    probe.workload = "train_fine";
    merge_missing(out, train_layers(probe, tally, nullptr));
  }
  return out;
}

void print_result(const Tally& tally, const Metrics& metrics) {
  bool finite = true;
  for (const Metric& m : metrics) {
    std::printf("# %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    finite = finite && std::isfinite(m.value);
  }
  std::printf("# error_rate %.6f (%lld failed of %lld attempted)\n",
              tally.attempted > 0
                  ? static_cast<double>(tally.failed) /
                        static_cast<double>(tally.attempted)
                  : 1.0,
              static_cast<long long>(tally.failed),
              static_cast<long long>(tally.attempted));
  const bool correct =
      kOptimized && finite && tally.attempted > 0 && tally.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Run run;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  std::string trace_file = "perfbench-trace.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      run.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      run.workload = value;
    } else if (arg == "--seed") {
      run.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      run.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && run.seconds >= 0.0;
    } else if (arg == "--trace") {
      trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (arg == "--trace-file") {
      trace_file = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!is_train(run.workload) && run.workload != "plan_grid" &&
      run.workload != "sim_large") {
    return usage("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || trace < 0) {
    return usage("--seed, --seconds and --trace are required");
  }

  print_host(run, fma_peak_gflops());
  Tally tally;
  Metrics metrics;
  // Set-up outside an operation (model construction, the reference run)
  // can throw too; it counts as one more failed operation.
  tally.attempt("benchmark", [&](Checks& checks) {
    if (trace == 0) {
      metrics = end_to_end(run, tally);
      return;
    }
    obs::Recorder rec;
    rec.set_track_name(kBenchTrack, "perfbench");
    metrics = per_layer(run, tally, &rec);
    std::ofstream file(trace_file);
    file << obs::chrome_trace_json(rec.take());
    file.close();
    checks.expect(!file.fail(), "could not write " + trace_file);
    std::printf("# chrome trace: %s\n", trace_file.c_str());
  });
  print_result(tally, metrics);
  return 0;
}

#pragma once

// Shared pieces of the perfbench benchmark: timing, metric lists, failure
// accounting and the entry points of the three workload families.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "src/obs/trace.hpp"

namespace perfbench {

using namespace slim;
using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values);

/// Track of the benchmark's own spans in the Chrome trace (runtime stages
/// use tracks 0..p-1).
inline constexpr int kBenchTrack = 900;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Sets `name` (replacing an earlier value).
void put(Metrics& metrics, const std::string& name, double value,
         const std::string& unit);
/// Adds every metric of `other` whose name `metrics` does not have yet.
void merge_missing(Metrics& metrics, const Metrics& other);
/// Per-name median over several samples of the same metric list.
Metrics median_of(const std::vector<Metrics>& samples);

/// Failed checks of one operation; the operation fails when any check does.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) problems_.push_back(what);
  }
  bool ok() const { return problems_.empty(); }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  std::vector<std::string> problems_;
};

/// Operations attempted and failed over one benchmark run.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Runs one operation: fn(checks). It fails when it throws or when any
  /// check it made failed; failures are printed to stderr.
  template <typename Fn>
  void attempt(const char* what, Fn&& fn) {
    Checks checks;
    try {
      fn(checks);
    } catch (const std::exception& e) {
      checks.expect(false, std::string("threw: ") + e.what());
    }
    record(what, checks);
  }
  void record(const char* what, const Checks& checks);
};

/// Seconds fn() takes; when `rec` is set the call is also recorded as a
/// benchmark span named `name`.
template <typename Fn>
double timed(obs::Recorder* rec, const char* name, Fn&& fn) {
  const double t0 = rec != nullptr ? rec->now() : 0.0;
  const auto start = Clock::now();
  fn();
  const double seconds = since(start);
  if (rec != nullptr) {
    rec->span(kBenchTrack, name, obs::kCatHost, t0, rec->now());
  }
  return seconds;
}

/// Median seconds per call of fn, timed in batches of about a millisecond
/// for roughly `budget` seconds (at least five batches).
template <typename Fn>
double time_per_call(Fn&& fn, double budget = 0.05) {
  fn();
  const auto probe = Clock::now();
  fn();
  const double one = std::max(since(probe), 1e-9);
  const int batch = std::max(1, static_cast<int>(1e-3 / one));
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 5 ||
         (since(start) < budget && samples.size() < 2000)) {
    const auto b0 = Clock::now();
    for (int i = 0; i < batch; ++i) fn();
    samples.push_back(since(b0) / batch);
  }
  return median(std::move(samples));
}

/// Runs op() back to back until `seconds` have passed (at least once).
template <typename Fn>
void for_seconds(double seconds, Fn&& op) {
  const auto start = Clock::now();
  do {
    op();
  } while (since(start) < seconds);
}

/// Peak resident set, MiB: this process or its largest reaped child.
double peak_rss_mib();

/// Single-thread multiply-add throughput of this build, GFLOP/s — the
/// ceiling the numerics GFLOP/s rows are read against.
double fma_peak_gflops();

struct Run {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool tiny = false;
};

/// What an untraced run measured: seconds of each timed operation and of
/// each set-up, and the peak resident set once the set-ups are done (a
/// fixed amount of work, unlike the timed loop).
struct Samples {
  std::vector<double> op_s;
  std::vector<double> setup_s;
  double peak_rss_mib = 0.0;
};

// Each workload family reports end-to-end samples (untraced) or per-layer
// metrics (traced: `rec` collects spans; the runtimes record into it too).
Samples train_e2e(const Run& run, Tally& tally);
Metrics train_layers(const Run& run, Tally& tally, obs::Recorder* rec);
Samples plan_e2e(const Run& run, Tally& tally);
Metrics plan_layers(const Run& run, Tally& tally, obs::Recorder* rec);
Samples sim_e2e(const Run& run, Tally& tally);
Metrics sim_layers(const Run& run, Tally& tally, obs::Recorder* rec);

/// Stage and thread counts a workload uses, for the host-facts line.
std::string train_threads(const Run& run);

}  // namespace perfbench

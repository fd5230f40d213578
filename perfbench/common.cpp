#include "perfbench.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <map>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void put(Metrics& metrics, const std::string& name, double value,
         const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void merge_missing(Metrics& metrics, const Metrics& other) {
  for (const Metric& m : other) {
    bool present = false;
    for (const Metric& have : metrics) present = present || have.name == m.name;
    if (!present) metrics.push_back(m);
  }
}

Metrics median_of(const std::vector<Metrics>& samples) {
  Metrics out;
  if (samples.empty()) return out;
  std::map<std::string, std::vector<double>> values;
  for (const Metrics& sample : samples) {
    for (const Metric& m : sample) values[m.name].push_back(m.value);
  }
  for (const Metric& m : samples.front()) {
    out.push_back({m.name, median(values[m.name]), m.unit});
  }
  return out;
}

void Tally::record(const char* what, const Checks& checks) {
  ++attempted;
  if (checks.ok()) return;
  ++failed;
  for (const std::string& problem : checks.problems()) {
    std::fprintf(stderr, "FAILED %s: %s\n", what, problem.c_str());
  }
}

double peak_rss_mib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

namespace {

// Twelve independent multiply-add chains of four lanes: enough parallel
// work to fill the FP pipes at this build's ISA, few enough registers that
// nothing spills.
constexpr int kLanes = 48;

float fma_chains(std::int64_t iterations, float seed) {
  float acc[kLanes];
  for (int i = 0; i < kLanes; ++i) acc[i] = seed + 1e-3f * static_cast<float>(i);
  const float mul = 0.9999999f;
  const float add = 1e-7f;
  for (std::int64_t it = 0; it < iterations; ++it) {
    for (int i = 0; i < kLanes; ++i) acc[i] = acc[i] * mul + add;
  }
  float sum = 0.0f;
  for (int i = 0; i < kLanes; ++i) sum += acc[i];
  return sum;
}

}  // namespace

double fma_peak_gflops() {
  constexpr std::int64_t kIterations = 200000;
  volatile float sink = 0.0f;
  double best = 0.0;
  for (int rep = 0; rep < 7; ++rep) {
    const auto start = Clock::now();
    sink = sink + fma_chains(kIterations, 1.0f + static_cast<float>(rep));
    const double seconds = since(start);
    const double flops = 2.0 * kLanes * static_cast<double>(kIterations);
    best = std::max(best, flops / seconds / 1e9);
  }
  return best;
}

}  // namespace perfbench

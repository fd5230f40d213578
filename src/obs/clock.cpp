#include "src/obs/clock.hpp"

#include <algorithm>

namespace slim::obs {

ClockAligner::ClockAligner(std::size_t window)
    : capacity_(window == 0 ? 1 : window) {}

void ClockAligner::add(const ClockSample& sample) {
  const double rtt = sample.rtt();
  if (rtt < 0.0) return;
  window_.push_back(Entry{sample.theta(), rtt});
  if (window_.size() > capacity_) window_.pop_front();
  ++accepted_;
}

double ClockAligner::offset() const {
  if (window_.empty()) return 0.0;
  const auto it = std::min_element(
      window_.begin(), window_.end(),
      [](const Entry& a, const Entry& b) { return a.rtt < b.rtt; });
  return it->theta;
}

double ClockAligner::uncertainty() const { return best_rtt() / 2.0; }

double ClockAligner::best_rtt() const {
  if (window_.empty()) return 0.0;
  const auto it = std::min_element(
      window_.begin(), window_.end(),
      [](const Entry& a, const Entry& b) { return a.rtt < b.rtt; });
  return it->rtt;
}

double rebase_shift(const ClockAligner& aligner, double fork_offset,
                    double earliest) {
  const double shift = aligner.aligned() ? -aligner.offset() : fork_offset;
  return std::max(shift, fork_offset - earliest);
}

}  // namespace slim::obs

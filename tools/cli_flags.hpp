#pragma once

// The flags slimpipe_sim and slimpipe_lint share, parsed strictly: a value
// that does not parse whole, lies out of range or names nothing is a usage
// error with the tool's usage exit status, never a silent 0 or a truncated
// number.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "src/model/activation.hpp"
#include "src/sched/schedule.hpp"
#include "src/util/env.hpp"

namespace slim::cli {

constexpr long long kIntMax = std::numeric_limits<int>::max();
constexpr long long kInt64Max = std::numeric_limits<std::int64_t>::max();

/// The model, workload and schedule flags both tools take, parsed into
/// `spec`. Its n stays 0 until --n sets it (the caller picks the scheme's
/// default), and its vocab_parallel is the flag as given.
class SpecFlags {
 public:
  explicit SpecFlags(int usage_status) : status_(usage_status) {
    spec.gpu = model::hopper80();
    spec.shard = {8, 1, 1, 8};
    spec.p = 4;
    spec.n = 0;
    spec.m = 4;
    spec.seq = 131072;
    spec.offload.pcie_bandwidth = spec.gpu.pcie_bandwidth;
    spec.vocab_parallel = spec.context_exchange = true;
  }

  /// Prints `message` and exits with the tool's usage-error status.
  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(status_);
  }

  /// `found`, or a usage error naming the unknown `what`.
  template <typename T>
  T known(std::optional<T> found, const char* what,
          const std::string& name) const {
    if (!found) fail("unknown " + std::string(what) + " '" + name + "'");
    return *found;
  }

  /// Flag `flag`'s value `text` as an integer in [lo, hi].
  long long integer(const std::string& flag, const char* text, long long lo,
                    long long hi = kInt64Max) const {
    const std::optional<long long> value = util::parse_env_int(text);
    if (!value || *value < lo || *value > hi) {
      fail("invalid value '" + std::string(text) + "' for " + flag +
           ": expected an integer in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]");
    }
    return *value;
  }

  /// Takes `flag`, reading its value with `value()`, if it is one of these
  /// flags; false for any other flag.
  template <typename Value>
  bool parse(const std::string& flag, Value value) {
    auto number = [&](long long lo, long long hi = kIntMax) {
      return integer(flag, value(), lo, hi);
    };
    if (flag == "--model") model_name = value();
    else if (flag == "--ckpt") ckpt = value();
    else if (flag == "--seq") spec.seq = number(1, kInt64Max);
    else if (flag == "--t") spec.shard.t = number(1, kInt64Max);
    else if (flag == "--c") spec.shard.c = number(1, kInt64Max);
    else if (flag == "--e") spec.shard.e = number(1, kInt64Max);
    else if (flag == "--d") spec.d = number(1, kInt64Max);
    else if (flag == "--p") spec.p = number(1);
    else if (flag == "--v") spec.v = number(1);
    else if (flag == "--n") spec.n = number(0);
    else if (flag == "--m") spec.m = number(1);
    else if (flag == "--offload") spec.offload.ratio = fraction(flag, value());
    else if (flag == "--no-exchange") spec.context_exchange = false;
    else if (flag == "--no-vocab-par") spec.vocab_parallel = false;
    else return false;
    return true;
  }

  /// The parsed spec with its model and checkpoint policy looked up.
  sched::PipelineSpec resolve() const {
    sched::PipelineSpec out = spec;
    out.cfg = known(model::model_by_name(model_name), "model", model_name);
    out.policy = known(model::policy_by_name(ckpt), "checkpoint policy", ckpt);
    return out;
  }

  std::string model_name = "13b", ckpt = "none";
  sched::PipelineSpec spec;

 private:
  double fraction(const std::string& flag, const char* text) const {
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(value >= 0.0 && value < 1.0)) {
      fail("invalid value '" + std::string(text) + "' for " + flag +
           ": expected a fraction in [0, 1)");
    }
    return value;
  }

  int status_;
};

}  // namespace slim::cli

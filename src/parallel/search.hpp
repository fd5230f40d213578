#pragma once

// Grid search over hybrid parallelism configurations (paper §6.4: "their
// hybrid parallelism configurations are baked through grid search").
//
// Structurally valid candidates are filtered with a fast analytic memory
// estimate, ranked with an analytic time estimate, and the best few are
// simulated exactly; the winner (highest MFU, no OOM) is returned. The two
// failure statuses mirror Figure 12's markers: NoViableConfig (green
// triangle) and AllOom (red cross).

#include <cstdint>
#include <string>
#include <vector>

#include "src/parallel/config.hpp"

namespace slim::parallel {

enum class SearchStatus : std::uint8_t { Ok, NoViableConfig, AllOom };

const char* to_string(SearchStatus status);

struct SearchOptions {
  std::vector<double> offload_ratios = {0.0};
  int simulate_top_k = 4;
  // Pin dimensions (0 = search freely) — Figure 2 fixes 8-way TP and PP.
  std::int64_t fixed_t = 0;
  std::int64_t fixed_p = 0;
  bool verbose = false;
};

struct SearchResult {
  SearchStatus status = SearchStatus::NoViableConfig;
  HybridConfig best;
  sched::ScheduleResult result;
  int candidates_valid = 0;   // structurally valid
  int candidates_fit = 0;     // passed the memory estimate
  std::string note;
};

SearchResult grid_search(const model::TransformerConfig& model,
                         const model::GpuSpec& gpu, int num_gpus,
                         std::int64_t seq, std::int64_t tokens_per_iter,
                         core::Scheme scheme, const SearchOptions& options = {});

/// Fast analytic peak-memory estimate of a configuration (bytes, worst
/// device): model states, logits, and max_inflight_units / (p n v) of M_a
/// for the spec the scheme runs (core::normalize_scheme).
double estimate_peak_memory(const HybridConfig& cfg,
                            const model::TransformerConfig& model,
                            const model::GpuSpec& gpu, std::int64_t seq,
                            std::int64_t tokens_per_iter);

/// Fast analytic iteration-time estimate (seconds), costed with the
/// normalized spec's checkpoint policy, CP mode and vocabulary parallelism.
double estimate_iteration_time(const HybridConfig& cfg,
                               const model::TransformerConfig& model,
                               const model::GpuSpec& gpu, std::int64_t seq,
                               std::int64_t tokens_per_iter);

/// Figure 2: largest context (multiple of `granularity` tokens) the scheme
/// can train with fixed t and p on t*p GPUs and one microbatch, using the
/// most memory-thrifty settings available to that scheme.
std::int64_t max_supported_context(core::Scheme scheme,
                                   const model::TransformerConfig& model,
                                   const model::GpuSpec& gpu, std::int64_t t,
                                   std::int64_t p,
                                   std::int64_t granularity = 4096,
                                   std::int64_t limit = 16 * 1024 * 1024);

}  // namespace slim::parallel

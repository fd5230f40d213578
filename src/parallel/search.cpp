#include "src/parallel/search.hpp"

#include <algorithm>
#include <cmath>

#include "src/core/slice.hpp"
#include "src/core/slice_layout.hpp"
#include "src/model/flops.hpp"
#include "src/sched/builder.hpp"
#include "src/util/logging.hpp"
#include "src/util/math.hpp"
#include "src/util/units.hpp"

namespace slim::parallel {

namespace {

constexpr double kUsableFraction = 0.96;  // leave room for runtime/NCCL
constexpr double kReserveBytes = 3.0 * kGiB;
constexpr std::int64_t kMaxP = 64;
/// Paper §6.1 deployment rule: "TP, CP and EP should be deployed within a
/// node" — t * c may not exceed the NVLink domain. Table 4 style cross-node
/// CP escapes this by constructing configs directly.
constexpr std::int64_t kMaxTcPerNode = 8;

double bubble_estimate(const HybridConfig& cfg, std::int64_t m) {
  const int p = static_cast<int>(cfg.p);
  const int mi = std::max<int>(1, static_cast<int>(m));
  double warmup = 0.0;
  switch (cfg.scheme) {
    case core::Scheme::GPipe:
    case core::Scheme::OneF1B:
      warmup = core::onef1b_bubble_fraction(p, mi);
      break;
    case core::Scheme::TeraPipe:
      warmup = static_cast<double>(p - 1) /
               (static_cast<double>(cfg.n) * mi);
      break;
    case core::Scheme::Interleaved1F1B:
      warmup = core::interleaved_bubble_fraction(p, cfg.v, mi);
      break;
    case core::Scheme::ZBV:
      warmup = 0.15 * core::onef1b_bubble_fraction(p, mi) + 0.05;
      break;
    case core::Scheme::VHalf:
      warmup = 0.5 * core::onef1b_bubble_fraction(p, mi) + 0.1;
      break;
    case core::Scheme::VMin:
      warmup = 0.7 * core::onef1b_bubble_fraction(p, mi) + 0.15;
      break;
    case core::Scheme::SlimPipe:
      warmup = core::slimpipe_bubble_bound(p, cfg.n, cfg.v, mi) +
               2.0 * static_cast<double>(p - 1) /
                   (static_cast<double>(cfg.n) * cfg.v * mi *
                    static_cast<double>(cfg.n));
      break;
  }
  return std::min(0.9, warmup / (1.0 + warmup));
}

}  // namespace

const char* to_string(SearchStatus status) {
  switch (status) {
    case SearchStatus::Ok: return "ok";
    case SearchStatus::NoViableConfig: return "no viable configuration";
    case SearchStatus::AllOom: return "out of memory";
  }
  return "?";
}

double estimate_peak_memory(const HybridConfig& cfg,
                            const model::TransformerConfig& model,
                            const model::GpuSpec& gpu, std::int64_t seq,
                            std::int64_t tokens_per_iter) {
  // The spec the candidate's scheme runs: the same policy, KV retention,
  // vocabulary parallelism and in-flight cap as its simulation.
  const sched::PipelineSpec spec = core::normalize_scheme(
      cfg.scheme, make_spec(cfg, model, gpu, seq, tokens_per_iter)).spec;
  const double ma =
      model::act_bytes_per_token_layer(model, spec.shard, spec.policy,
                                       spec.retain_kv) *
      static_cast<double>(seq) * static_cast<double>(model.layers);
  // A device holds at most the scheme's in-flight cap of the p * n * v
  // slice units M_a divides into.
  const double fraction = spec.max_inflight_units /
                          (static_cast<double>(spec.p) * spec.n * spec.v);
  const double act = fraction * ma * (1.0 - cfg.offload_ratio);

  // Model states of device 0, which holds the largest vocabulary share.
  const double layers_local =
      static_cast<double>(model.layers) / static_cast<double>(cfg.p);
  const double states = model::model_state_bytes(
      model, spec.shard, layers_local, sched::vocab_share(spec, 0), cfg.d);
  const std::int64_t loss_tokens =
      spec.vocab_parallel ? (seq + cfg.n - 1) / cfg.n : seq;
  const std::int64_t vshards = spec.vocab_parallel ? cfg.p : 1;
  const double logits =
      model::logits_bytes(model, spec.shard, loss_tokens, vshards) *
      (spec.vocab_parallel ? 2.0 : 1.0);
  return act + states + logits;
}

double estimate_iteration_time(const HybridConfig& cfg,
                               const model::TransformerConfig& model,
                               const model::GpuSpec& gpu, std::int64_t seq,
                               std::int64_t tokens_per_iter) {
  const std::int64_t m = cfg.microbatches(seq, tokens_per_iter);
  const sched::PipelineSpec spec = core::normalize_scheme(
      cfg.scheme, make_spec(cfg, model, gpu, seq, tokens_per_iter)).spec;
  const model::CostModel cost(model, gpu, sched::pipeline_topology(spec),
                              spec.shard, spec.policy, spec.cp_mode);
  const std::int64_t layers_dev = model.layers / cfg.p;
  const std::int64_t layers_pass =
      std::max<std::int64_t>(1, model.layers / (cfg.p * cfg.v));
  // Per-microbatch compute on one device, accounting for slicing: short
  // slices pay per-pass overheads and the small-kernel derate, which is
  // exactly the trade-off of Figure 11 — the estimate must see it or the
  // ranking drifts toward pathological n. Slice lengths come from the
  // token-uniform layout (remainder spread over the first slices), so
  // seq % n != 0 is costed exactly rather than truncated.
  const core::SliceLayout layout = core::SliceLayout::uniform(
      seq, static_cast<int>(cfg.n),
      (cfg.c > 1 && seq % cfg.c == 0 && seq / cfg.c >= cfg.n) ? cfg.c : 1);
  const std::int64_t vshards = spec.vocab_parallel ? cfg.p : 1;
  const std::int64_t mean_recompute_prefix = (cfg.n / 2) * (seq / cfg.n);
  double per_mb = 0.0;
  for (int i = 0; i < cfg.n; ++i) {
    const std::int64_t len = layout.len(i);
    per_mb += static_cast<double>(cfg.v) *
              (cost.nonattn_time(layers_pass, len, true) +
               cost.nonattn_time(layers_pass, len, false));
    const double kv = model::CostModel::causal_kv_equiv(len, layout.begin(i));
    per_mb += static_cast<double>(layers_dev) *
              (cost.attn_block_time(static_cast<double>(len), kv, true) +
               cost.attn_block_time(static_cast<double>(len), kv, false));
    per_mb += static_cast<double>(cfg.v) *
              cost.recompute_time(layers_pass, len, mean_recompute_prefix);
    per_mb += cost.vocab_forward_time(len, vshards) +
              cost.vocab_backward_time(len, vshards);
  }
  double compute = static_cast<double>(m) * per_mb;
  // Offload exposure (rough): traffic beyond what the compute window hides.
  if (cfg.offload_ratio > 0.0) {
    const double act_tok = model::act_bytes_per_token_layer(
        model, spec.shard, spec.policy, spec.retain_kv);
    const double bytes = act_tok * static_cast<double>(seq) *
                         static_cast<double>(model.layers) /
                         static_cast<double>(cfg.p) * cfg.offload_ratio *
                         static_cast<double>(m) * 2.0;
    compute += std::max(0.0, bytes / gpu.pcie_bandwidth - compute);
  }
  const double bubble = bubble_estimate(cfg, m);
  return compute / (1.0 - bubble);
}

SearchResult grid_search(const model::TransformerConfig& model,
                         const model::GpuSpec& gpu, int num_gpus,
                         std::int64_t seq, std::int64_t tokens_per_iter,
                         core::Scheme scheme, const SearchOptions& options) {
  SearchResult out;
  const double usable =
      std::min(gpu.memory_bytes * kUsableFraction,
               gpu.memory_bytes - kReserveBytes);

  struct Candidate {
    HybridConfig cfg;
    double est_time;
  };
  std::vector<Candidate> fit;

  const std::vector<std::int64_t> t_options = {1, 2, 4, 8};
  const std::vector<std::int64_t> c_options = {1, 2, 4, 8, 16, 32};
  std::vector<std::int64_t> e_options = {1};
  if (model.is_moe()) e_options = {1, 2, 4, 8};

  for (std::int64_t t : t_options) {
    if (options.fixed_t != 0 && t != options.fixed_t) continue;
    for (std::int64_t c : c_options) {
      if (t * c > kMaxTcPerNode) continue;
      for (std::int64_t e : e_options) {
        for (std::int64_t p = 1; p <= kMaxP; ++p) {
          if (options.fixed_p != 0 && p != options.fixed_p) continue;
          if (model.layers % p != 0) continue;
          const std::int64_t tcp = t * c * p;
          if (tcp > num_gpus || num_gpus % tcp != 0) continue;
          const std::int64_t d = num_gpus / tcp;

          std::vector<int> v_options = {1};
          if (scheme == core::Scheme::ZBV || scheme == core::Scheme::VHalf ||
              scheme == core::Scheme::VMin) {
            v_options = {2};
          } else if (scheme == core::Scheme::Interleaved1F1B ||
                     scheme == core::Scheme::SlimPipe) {
            v_options.clear();
            for (int v = 1; v <= 10; ++v) {
              if (model.layers % (p * v) == 0) v_options.push_back(v);
            }
          }
          std::vector<int> n_options = {1};
          if (scheme == core::Scheme::SlimPipe ||
              scheme == core::Scheme::TeraPipe) {
            n_options.clear();
            for (std::int64_t mult : {1, 2, 4, 8}) {
              const std::int64_t n = p * mult;
              // seq % n != 0 is fine (remainder-spreading layout); each
              // slice just needs one CP-aligned token block.
              if (seq % c == 0 && seq / c >= n) {
                n_options.push_back(static_cast<int>(n));
              }
            }
            if (n_options.empty()) continue;
          }

          for (int v : v_options) {
            for (int n : n_options) {
              for (auto policy : {model::CheckpointPolicy::None,
                                  model::CheckpointPolicy::Selective,
                                  model::CheckpointPolicy::Full}) {
                for (double offload : options.offload_ratios) {
                  HybridConfig cfg;
                  cfg.t = t;
                  cfg.c = c;
                  cfg.d = d;
                  cfg.e = e;
                  cfg.p = p;
                  cfg.v = v;
                  cfg.n = n;
                  cfg.policy = policy;
                  cfg.offload_ratio = offload;
                  cfg.scheme = scheme;
                  if (!validate(cfg, model, num_gpus, seq, tokens_per_iter)
                           .empty()) {
                    continue;
                  }
                  ++out.candidates_valid;
                  // Keep the simulation tractable: the op graph scales with
                  // the total pass count across devices.
                  const double passes = 2.0 *
                                        static_cast<double>(
                                            cfg.microbatches(seq,
                                                             tokens_per_iter)) *
                                        cfg.n * cfg.v * static_cast<double>(p);
                  if (passes > 1.5e6) continue;
                  const double mem = estimate_peak_memory(
                      cfg, model, gpu, seq, tokens_per_iter);
                  if (mem > usable) continue;
                  ++out.candidates_fit;
                  fit.push_back({cfg, estimate_iteration_time(
                                          cfg, model, gpu, seq,
                                          tokens_per_iter)});
                }
              }
            }
          }
        }
      }
    }
  }

  if (out.candidates_valid == 0) {
    out.status = SearchStatus::NoViableConfig;
    out.note = "no parallelism layout satisfies the structural constraints";
    return out;
  }
  if (fit.empty()) {
    out.status = SearchStatus::AllOom;
    out.note = "all structurally valid configurations exceed device memory";
    return out;
  }

  std::sort(fit.begin(), fit.end(), [](const Candidate& a, const Candidate& b) {
    return a.est_time < b.est_time;
  });
  const int top_k = std::min<int>(options.simulate_top_k,
                                  static_cast<int>(fit.size()));
  bool found = false;
  for (int i = 0; i < top_k; ++i) {
    const HybridConfig& cfg = fit[static_cast<std::size_t>(i)].cfg;
    sched::PipelineSpec spec = make_spec(cfg, model, gpu, seq, tokens_per_iter);
    sched::ScheduleResult r;
    try {
      r = core::run_scheme(scheme, std::move(spec));
    } catch (const std::exception& e) {
      if (options.verbose) {
        SLIM_LOG(Warn) << "candidate " << cfg.describe()
                       << " failed to simulate: " << e.what();
      }
      continue;
    }
    if (r.oom) continue;
    if (!found || r.mfu > out.result.mfu) {
      out.best = cfg;
      out.result = r;
      found = true;
    }
  }
  if (!found) {
    out.status = SearchStatus::AllOom;
    out.note = "top candidates all exceeded device memory when simulated";
    return out;
  }
  out.status = SearchStatus::Ok;
  return out;
}

std::int64_t max_supported_context(core::Scheme scheme,
                                   const model::TransformerConfig& model,
                                   const model::GpuSpec& gpu, std::int64_t t,
                                   std::int64_t p, std::int64_t granularity,
                                   std::int64_t limit) {
  const int num_gpus = static_cast<int>(t * p);
  auto fits = [&](std::int64_t seq) -> bool {
    SearchOptions opts;
    opts.simulate_top_k = 3;
    opts.fixed_t = t;
    opts.fixed_p = p;
    // One microbatch (d = 1), the most memory-thrifty batch shape.
    const SearchResult r =
        grid_search(model, gpu, num_gpus, seq, seq, scheme, opts);
    return r.status == SearchStatus::Ok;
  };
  if (!fits(granularity)) return 0;
  // Exponential growth then bisection on the granularity grid.
  std::int64_t lo = granularity, hi = granularity;
  while (hi < limit && fits(std::min(limit, hi * 2))) {
    hi = std::min(limit, hi * 2);
    lo = hi;
    if (hi == limit) return limit;
  }
  hi = std::min(limit, hi * 2);
  while (hi - lo > granularity) {
    const std::int64_t mid = round_up((lo + hi) / 2, granularity);
    if (fits(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace slim::parallel

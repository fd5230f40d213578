#include "src/model/activation.hpp"

#include <algorithm>

#include "src/util/logging.hpp"

namespace slim::model {

namespace {
constexpr double kBf16 = 2.0;
constexpr double kFp32 = 4.0;
}  // namespace

const char* to_string(CheckpointPolicy policy) {
  switch (policy) {
    case CheckpointPolicy::None: return "none";
    case CheckpointPolicy::Selective: return "selective";
    case CheckpointPolicy::Full: return "full";
  }
  return "?";
}

std::optional<CheckpointPolicy> policy_by_name(const std::string& name) {
  if (name == "none") return CheckpointPolicy::None;
  if (name == "selective") return CheckpointPolicy::Selective;
  if (name == "full") return CheckpointPolicy::Full;
  return std::nullopt;
}

double act_bytes_per_token_layer_no_kv(const TransformerConfig& cfg,
                                       const Shard& shard,
                                       CheckpointPolicy policy) {
  const double h = static_cast<double>(cfg.hidden);
  const double ffn_active =
      static_cast<double>(cfg.ffn) * static_cast<double>(cfg.active_experts());
  double elements = 0.0;
  switch (policy) {
    case CheckpointPolicy::None:
      // layer input (h) + Q (h) + attention output (h) + O-proj output (h)
      // + gate and up projections (2 * H * active experts). SwiGLU product
      // and RMSNorm outputs are recomputed; SDPA stores only O(s) stats.
      elements = 4.0 * h + 2.0 * ffn_active;
      break;
    case CheckpointPolicy::Selective:
      // Additionally recompute up-projection + SwiGLU: gate/up outputs gone.
      elements = 4.0 * h;
      break;
    case CheckpointPolicy::Full:
      // Only the layer input survives.
      elements = 1.0 * h;
      break;
  }
  return elements * kBf16 / static_cast<double>(shard.t * shard.c);
}

double kv_bytes_per_token_layer(const TransformerConfig& cfg,
                                const Shard& shard) {
  const double kv = 2.0 * static_cast<double>(cfg.kv_hidden());
  return kv * kBf16 / static_cast<double>(shard.t * shard.c);
}

double act_bytes_per_token_layer(const TransformerConfig& cfg,
                                 const Shard& shard, CheckpointPolicy policy,
                                 bool retain_kv) {
  double bytes = act_bytes_per_token_layer_no_kv(cfg, shard, policy);
  // Under None/Selective the K/V projections are stored for backward anyway;
  // under Full they are only kept when a KV cache is required (SlimPipe).
  if (policy != CheckpointPolicy::Full || retain_kv) {
    bytes += kv_bytes_per_token_layer(cfg, shard);
  }
  return bytes;
}

double logits_bytes(const TransformerConfig& cfg, const Shard& shard,
                    std::int64_t tokens, std::int64_t vocab_shards) {
  SLIM_CHECK(vocab_shards >= 1, "vocab_shards must be >= 1");
  const double v_local = static_cast<double>(cfg.vocab) /
                         static_cast<double>(shard.t * vocab_shards);
  // fp32 logits for the loss/gradient plus the bf16 GEMM output.
  const double per_token = v_local * (kFp32 + kBf16);
  return per_token * static_cast<double>(tokens) /
         static_cast<double>(shard.c);
}

double embedding_bytes(const TransformerConfig& cfg, const Shard& shard,
                       std::int64_t tokens) {
  return static_cast<double>(tokens) * static_cast<double>(cfg.hidden) *
         kBf16 / static_cast<double>(shard.t * shard.c);
}

double wgrad_kept_fraction(const TransformerConfig& cfg,
                           CheckpointPolicy policy) {
  const double h = static_cast<double>(cfg.hidden);
  const double ffn_active =
      static_cast<double>(cfg.ffn) * static_cast<double>(cfg.active_experts());
  // Inputs of QKV, O-projection and FFN GEMMs (3h) plus gate/up outputs
  // (2H, needed to rebuild the down-projection input).
  const double kept = 3.0 * h + 2.0 * ffn_active;
  double stored = 0.0;
  switch (policy) {
    case CheckpointPolicy::None:
      stored = 4.0 * h + 2.0 * ffn_active;
      break;
    case CheckpointPolicy::Selective:
      stored = 4.0 * h;
      break;
    case CheckpointPolicy::Full:
      stored = 1.0 * h;
      break;
  }
  if (stored <= 0.0) return 1.0;
  return std::min(1.0, kept / stored);
}

double model_state_bytes(const TransformerConfig& cfg, const Shard& shard,
                         double layers_local, double vocab_fraction,
                         std::int64_t d_shard) {
  SLIM_CHECK(d_shard >= 1, "optimizer shard must be >= 1");
  const double h = static_cast<double>(cfg.hidden);
  // Attention + norms are divided by t; MoE expert parameters additionally
  // by e (expert parallelism stores only local experts).
  const double attn = 2.0 * h * h + 2.0 * h * static_cast<double>(cfg.kv_hidden());
  double ffn_params = 3.0 * h * static_cast<double>(cfg.ffn);
  if (cfg.is_moe()) {
    ffn_params = ffn_params * static_cast<double>(cfg.experts) /
                     static_cast<double>(shard.e) +
                 h * static_cast<double>(cfg.experts);
  }
  const double per_layer = (attn + ffn_params + 2.0 * h) /
                           static_cast<double>(shard.t);
  const double embed = static_cast<double>(cfg.params_embedding()) *
                       vocab_fraction / static_cast<double>(shard.t);
  const double params = layers_local * per_layer + embed;

  // bf16 weights (2) + fp32 main gradients (4) resident — the paper trains
  // with "float32 used in gradient accumulation"; fp32 master weights (4) +
  // Adam m/v (8) sharded across the data-parallel group (distributed
  // optimizer / ZeRO-1).
  const double resident = params * (kBf16 + kFp32);
  const double optimizer = params * (kFp32 + 2.0 * kFp32) /
                           static_cast<double>(d_shard);
  return resident + optimizer;
}

}  // namespace slim::model

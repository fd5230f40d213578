#pragma once

// Activation-memory model.
//
// Byte counts follow the paper's implementation notes (§5): cuDNN SDPA (no
// quadratic score matrices stored), SwiGLU recomputed from gate/up outputs,
// memory-efficient RMSNorm (no stored outputs). Keys and values are counted
// as ordinary activations — retaining them for the backward pass is exactly
// what makes SlimPipe's KV cache free of extra memory (§4.1.2).
//
// The paper's own sanity number is reproduced by policy Full:
//   Llama 70B, 1M context, full recompute, t=8:
//   1048576 * 8192 * 80 * 2 / 8 = 160 GiB.

#include <cstdint>
#include <optional>
#include <string>

#include "src/model/transformer.hpp"

namespace slim::model {

enum class CheckpointPolicy : std::uint8_t {
  None,       // store all per-layer activations required by backward
  Selective,  // recompute up-projection + SwiGLU of the MLP (paper §6.4)
  Full,       // store only each layer's input; recompute the whole layer
};

const char* to_string(CheckpointPolicy policy);
/// Inverse of to_string ("none" | "selective" | "full"), or nullopt.
std::optional<CheckpointPolicy> policy_by_name(const std::string& name);

/// Sequence/tensor sharding applied to activations. `t` includes sequence
/// parallelism (the paper always pairs TP with SP), `c` is context
/// parallelism; both divide activation storage.
struct Shard {
  std::int64_t t = 1;  // tensor parallel
  std::int64_t c = 1;  // context parallel
  std::int64_t e = 1;  // expert parallel
  int gpus_per_node = 8;
};

/// Stored activation bytes per *global* token per layer on one device,
/// excluding keys/values (bf16).
double act_bytes_per_token_layer_no_kv(const TransformerConfig& cfg,
                                       const Shard& shard,
                                       CheckpointPolicy policy);

/// Stored key+value bytes per global token per layer on one device (bf16).
/// These must be retained whenever later slices will attend to this slice,
/// regardless of checkpoint policy.
double kv_bytes_per_token_layer(const TransformerConfig& cfg,
                                const Shard& shard);

/// The key+value bytes per global token per layer kept for backward:
/// kv_bytes_per_token_layer, except under Full checkpointing without a KV
/// cache (retain_kv, SlimPipe), where K/V are recomputed: 0.
double stored_kv_bytes_per_token_layer(const TransformerConfig& cfg,
                                       const Shard& shard,
                                       CheckpointPolicy policy,
                                       bool retain_kv);

/// Total stored activation bytes per global token per layer on one device:
/// the non-KV bytes plus stored_kv_bytes_per_token_layer.
double act_bytes_per_token_layer(const TransformerConfig& cfg,
                                 const Shard& shard, CheckpointPolicy policy,
                                 bool retain_kv);

/// fp32 vocabulary logits bytes for `tokens` global tokens on the device(s)
/// computing the loss, sharded over `vocab_shards` ways (1 = classic PP
/// where the last stage holds everything; p for vocabulary parallelism).
/// The paper's example: 256K context, V=128000, 8-way TP -> ~16 GiB.
double logits_bytes(const TransformerConfig& cfg, const Shard& shard,
                    std::int64_t tokens, std::int64_t vocab_shards);

/// Size of one embedding tensor M_h for `tokens` global tokens (bf16, per
/// device after sharding) — the unit used in Eq. 2's exchange volume.
double embedding_bytes(const TransformerConfig& cfg, const Shard& shard,
                       std::int64_t tokens);

/// Fraction of the stored (non-KV) activation bytes that must be kept until
/// the *weight*-gradient half of a split backward (ZB-V): the inputs of the
/// linear layers. The input-gradient half frees the rest.
double wgrad_kept_fraction(const TransformerConfig& cfg,
                           CheckpointPolicy policy);

/// Parameter count on one device after TP/EP sharding: `layers_local`
/// transformer layers plus `vocab_fraction` (in [0,1]) of the tied
/// embedding/vocabulary parameters.
double device_params(const TransformerConfig& cfg, const Shard& shard,
                     double layers_local, double vocab_fraction);

/// Model-state bytes per device: bf16 params + fp32 main grads, fp32 master
/// weights and Adam moments, for device_params(cfg, shard, layers_local,
/// vocab_fraction) parameters. Optimizer state is sharded `d_shard` ways
/// (Megatron distributed optimizer / ZeRO-1).
double model_state_bytes(const TransformerConfig& cfg, const Shard& shard,
                         double layers_local, double vocab_fraction,
                         std::int64_t d_shard);

}  // namespace slim::model

#pragma once

// Transformer architecture descriptions and the model zoo from the paper's
// Table 3 (Llama 13B/70B/149B, Mixtral 8x7B/8x22B; plus Llama 7B used by
// Figure 2). All models use a 128,000-entry vocabulary and tied embeddings.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace slim::model {

struct TransformerConfig {
  std::string name;
  std::int64_t layers = 0;        // L
  std::int64_t heads = 0;         // a, attention heads
  std::int64_t kv_groups = 0;     // g, query groups (== heads for MHA)
  std::int64_t hidden = 0;        // h
  std::int64_t ffn = 0;           // H
  std::int64_t vocab = 128000;    // V

  // Mixture-of-Experts; experts == 0 means a dense model.
  std::int64_t experts = 0;       // E
  std::int64_t experts_topk = 0;  // routed experts per token (2 in the paper)

  bool is_moe() const { return experts > 0; }

  /// kv heads (g for GQA, a for MHA).
  std::int64_t kv_heads() const { return kv_groups > 0 ? kv_groups : heads; }

  /// Head dimension h / a.
  std::int64_t head_dim() const { return hidden / heads; }

  /// Hidden size of the K/V projections: h * g / a.
  std::int64_t kv_hidden() const { return kv_heads() * head_dim(); }

  /// Number of FFN "expert instances" evaluated per token (1 for dense).
  std::int64_t active_experts() const { return is_moe() ? experts_topk : 1; }

  /// Parameters in one transformer layer (attention + FFN/MoE + norms).
  std::int64_t params_per_layer() const;

  /// Parameters in the (tied) embedding / output projection.
  std::int64_t params_embedding() const { return vocab * hidden; }

  /// Total parameter count.
  std::int64_t params_total() const;
};

/// Table 3 model zoo (plus Llama 7B for Figure 2).
TransformerConfig llama7b();
TransformerConfig llama13b();
TransformerConfig llama70b();
TransformerConfig llama149b();
TransformerConfig mixtral8x7b();
TransformerConfig mixtral8x22b();

/// All zoo models in the order used by the paper's evaluation.
std::vector<TransformerConfig> model_zoo();

/// The zoo model named 7b | 13b | 70b | 149b | 8x7b | 8x22b, or nullopt.
std::optional<TransformerConfig> model_by_name(const std::string& name);

}  // namespace slim::model

#include "src/model/transformer.hpp"

#include "src/util/logging.hpp"

namespace slim::model {

std::int64_t TransformerConfig::params_per_layer() const {
  const std::int64_t h = hidden;
  // Attention: Q (h*h), K and V (h*kv_hidden each), O (h*h).
  const std::int64_t attn = 2 * h * h + 2 * h * kv_hidden();
  // SwiGLU FFN: gate, up, down = 3 * h * H per expert instance.
  std::int64_t ffn_params = 3 * h * ffn;
  if (is_moe()) {
    ffn_params = ffn_params * experts + h * experts;  // experts + router
  }
  // Two RMSNorms.
  const std::int64_t norms = 2 * h;
  return attn + ffn_params + norms;
}

std::int64_t TransformerConfig::params_total() const {
  return layers * params_per_layer() + params_embedding() + hidden /*final norm*/;
}

TransformerConfig llama7b() {
  return {.name = "Llama 7B", .layers = 32, .heads = 32, .kv_groups = 0,
          .hidden = 4096, .ffn = 11008};
}

TransformerConfig llama13b() {
  return {.name = "Llama 13B", .layers = 40, .heads = 40, .kv_groups = 0,
          .hidden = 5120, .ffn = 13824};
}

TransformerConfig llama70b() {
  return {.name = "Llama 70B", .layers = 80, .heads = 64, .kv_groups = 8,
          .hidden = 8192, .ffn = 28672};
}

TransformerConfig llama149b() {
  return {.name = "Llama 149B", .layers = 96, .heads = 96, .kv_groups = 8,
          .hidden = 12288, .ffn = 32768};
}

TransformerConfig mixtral8x7b() {
  return {.name = "Mixtral 8x7B", .layers = 32, .heads = 32, .kv_groups = 8,
          .hidden = 4096, .ffn = 14336, .vocab = 128000, .experts = 8,
          .experts_topk = 2};
}

TransformerConfig mixtral8x22b() {
  return {.name = "Mixtral 8x22B", .layers = 56, .heads = 48, .kv_groups = 8,
          .hidden = 6144, .ffn = 16384, .vocab = 128000, .experts = 8,
          .experts_topk = 2};
}

std::vector<TransformerConfig> model_zoo() {
  return {llama13b(), llama70b(), llama149b(), mixtral8x7b(), mixtral8x22b()};
}

std::optional<TransformerConfig> model_by_name(const std::string& name) {
  if (name == "7b") return llama7b();
  if (name == "13b") return llama13b();
  if (name == "70b") return llama70b();
  if (name == "149b") return llama149b();
  if (name == "8x7b") return mixtral8x7b();
  if (name == "8x22b") return mixtral8x22b();
  return std::nullopt;
}

}  // namespace slim::model

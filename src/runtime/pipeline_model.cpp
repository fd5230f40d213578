#include "src/runtime/pipeline_model.hpp"

#include <cmath>

#include "src/numerics/cross_entropy.hpp"
#include "src/numerics/norm_act.hpp"
#include "src/util/logging.hpp"

namespace slim::rt {

PipelineModel PipelineModel::build(num::BlockDims dims, std::int64_t vocab,
                                   int layers_total, int stages, Rng& rng,
                                   int chunks_per_stage) {
  const int total_stages = stages * chunks_per_stage;
  SLIM_CHECK(stages >= 1 && chunks_per_stage >= 1 &&
                 layers_total >= total_stages,
             "need at least one layer per stage chunk");
  PipelineModel model;
  model.dims = dims;
  model.vocab = vocab;
  model.layers_total = layers_total;
  model.stages = stages;
  model.chunks_per_stage = chunks_per_stage;
  model.embedding = num::Tensor::randn(
      vocab, dims.hidden, rng,
      0.5f / std::sqrt(static_cast<float>(dims.hidden)));
  model.final_norm = num::Tensor(1, dims.hidden);
  model.final_norm.fill(1.0f);
  for (int i = 0; i < layers_total; ++i) {
    model.layer_weights.push_back(num::LayerWeights::random(dims, rng));
  }
  // Even split over global stages; earlier stages take the remainder.
  const int base = layers_total / total_stages;
  const int rem = layers_total % total_stages;
  int begin = 0;
  for (int s = 0; s < total_stages; ++s) {
    const int count = base + (s < rem ? 1 : 0);
    model.stage_layers.emplace_back(begin, begin + count);
    begin += count;
  }
  return model;
}

std::vector<std::vector<int>> PipelineModel::owned_layers() const {
  std::vector<std::vector<int>> owned(static_cast<std::size_t>(stages));
  for (int s = 0; s < stages; ++s) {
    for (int chunk = 0; chunk < chunks_per_stage; ++chunk) {
      const auto [lo, hi] =
          stage_layers[static_cast<std::size_t>(chunk * stages + s)];
      for (int i = lo; i < hi; ++i) {
        owned[static_cast<std::size_t>(s)].push_back(i);
      }
    }
  }
  return owned;
}

PipelineResult reference_run(
    const PipelineModel& model,
    const std::vector<std::vector<std::int64_t>>& tokens,
    const std::vector<std::vector<std::int64_t>>& targets) {
  const int m = static_cast<int>(tokens.size());

  PipelineResult result;
  result.grads.embedding = num::Tensor(model.vocab, model.dims.hidden);
  for (int i = 0; i < model.layers_total; ++i) {
    result.grads.layers.push_back(num::LayerGrads::zeros(model.dims));
  }
  result.grads.final_norm = num::Tensor(1, model.dims.hidden);

  std::vector<num::Layer> layers;
  for (const auto& w : model.layer_weights) layers.emplace_back(model.dims, w);

  for (int mb = 0; mb < m; ++mb) {
    // Microbatches may carry different sequence lengths (elastic layouts).
    const std::vector<std::int64_t>& ids = tokens[static_cast<std::size_t>(mb)];
    num::Tensor x = num::embed(model.embedding, ids);
    for (num::Layer& layer : layers) x = layer.forward_slice(x, 0, mb);

    const num::Tensor hidden = num::rmsnorm(x, model.final_norm);
    const num::Tensor logits = num::matmul_nt(hidden, model.embedding);
    num::CeResult ce =
        num::cross_entropy(logits, targets[static_cast<std::size_t>(mb)]);
    result.loss += ce.loss / static_cast<double>(m);
    for (std::int64_t i = 0; i < ce.dlogits.size(); ++i) {
      ce.dlogits.data()[i] /= static_cast<float>(m);
    }
    result.grads.embedding.add_(num::matmul_tn(ce.dlogits, hidden));
    const num::Tensor dhidden = num::matmul(ce.dlogits, model.embedding);
    num::Tensor dx = num::rmsnorm_bwd(x, model.final_norm, dhidden,
                                      result.grads.final_norm);
    for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
      const std::size_t global =
          layers.size() - static_cast<std::size_t>(it - layers.rbegin()) - 1;
      dx = it->backward_slice(dx, result.grads.layers[global], mb);
    }
    num::embed_bwd(ids, dx, result.grads.embedding);
  }
  return result;
}

}  // namespace slim::rt

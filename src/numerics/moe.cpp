#include "src/numerics/moe.hpp"

#include <algorithm>
#include <cmath>

#include "src/numerics/exp.hpp"
#include "src/util/logging.hpp"

namespace slim::num {

namespace {

/// Expert SwiGLU-FFN forward for a (rows x h) block.
Tensor expert_forward(const ExpertWeights& w, const Tensor& x) {
  const Tensor gate = matmul(x, w.w_gate);
  const Tensor up = matmul(x, w.w_up);
  return matmul(swiglu(gate, up), w.w_down);
}

/// Backward; accumulates into `grads`, returns dx. Recomputes gate/up.
Tensor expert_backward(const ExpertWeights& w, ExpertWeights& grads,
                       const Tensor& x, const Tensor& dy) {
  const Tensor gate = matmul(x, w.w_gate);
  const Tensor up = matmul(x, w.w_up);
  const Tensor hidden = swiglu(gate, up);
  grads.w_down.add_(matmul_tn(hidden, dy));
  const Tensor dhidden = matmul_nt(dy, w.w_down);
  Tensor dgate, dup;
  swiglu_bwd(gate, up, dhidden, dgate, dup);
  grads.w_gate.add_(matmul_tn(x, dgate));
  grads.w_up.add_(matmul_tn(x, dup));
  Tensor dx = matmul_nt(dgate, w.w_gate);
  dx.add_(matmul_nt(dup, w.w_up));
  return dx;
}

std::vector<float> softmax_row(const Tensor& logits, std::int64_t row) {
  const std::int64_t e = logits.cols();
  float m = logits.at(row, 0);
  for (std::int64_t c = 1; c < e; ++c) m = std::max(m, logits.at(row, c));
  std::vector<float> p(static_cast<std::size_t>(e));
  exp_shifted(logits.data() + row * e, m, e, p.data());
  double sum = 0.0;
  for (const float v : p) sum += v;
  for (float& v : p) v = static_cast<float>(v / sum);
  return p;
}

}  // namespace

MoeWeights MoeWeights::random(const MoeDims& dims, Rng& rng) {
  MoeWeights w;
  const float s = 0.2f / std::sqrt(static_cast<float>(dims.hidden));
  w.router = Tensor::randn(dims.hidden, dims.experts, rng, s);
  for (std::int64_t e = 0; e < dims.experts; ++e) {
    ExpertWeights ew;
    ew.w_gate = Tensor::randn(dims.hidden, dims.ffn, rng, s);
    ew.w_up = Tensor::randn(dims.hidden, dims.ffn, rng, s);
    ew.w_down = Tensor::randn(dims.ffn, dims.hidden, rng, s);
    w.experts.push_back(std::move(ew));
  }
  return w;
}

MoeGrads MoeGrads::zeros(const MoeDims& dims) {
  MoeGrads g;
  g.router = Tensor(dims.hidden, dims.experts);
  for (std::int64_t e = 0; e < dims.experts; ++e) {
    ExpertWeights ew;
    ew.w_gate = Tensor(dims.hidden, dims.ffn);
    ew.w_up = Tensor(dims.hidden, dims.ffn);
    ew.w_down = Tensor(dims.ffn, dims.hidden);
    g.experts.push_back(std::move(ew));
  }
  return g;
}

float MoeGrads::max_abs_diff(const MoeGrads& other) const {
  float d = router.max_abs_diff(other.router);
  for (std::size_t e = 0; e < experts.size(); ++e) {
    d = std::max(d, experts[e].w_gate.max_abs_diff(other.experts[e].w_gate));
    d = std::max(d, experts[e].w_up.max_abs_diff(other.experts[e].w_up));
    d = std::max(d, experts[e].w_down.max_abs_diff(other.experts[e].w_down));
  }
  return d;
}

Routing route(const MoeDims& dims, const MoeWeights& w, const Tensor& x) {
  SLIM_CHECK(dims.topk >= 1 && dims.topk <= dims.experts, "bad top-k");
  const Tensor logits = matmul(x, w.router);
  Routing routing;
  routing.expert.resize(static_cast<std::size_t>(x.rows()));
  routing.weight.resize(static_cast<std::size_t>(x.rows()));
  for (std::int64_t t = 0; t < x.rows(); ++t) {
    const std::vector<float> p = softmax_row(logits, t);
    std::vector<std::int64_t> order(static_cast<std::size_t>(dims.experts));
    for (std::int64_t e = 0; e < dims.experts; ++e) {
      order[static_cast<std::size_t>(e)] = e;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::int64_t a, std::int64_t b) {
                       return p[static_cast<std::size_t>(a)] >
                              p[static_cast<std::size_t>(b)];
                     });
    double denom = 0.0;
    for (std::int64_t k = 0; k < dims.topk; ++k) {
      denom += p[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])];
    }
    for (std::int64_t k = 0; k < dims.topk; ++k) {
      const std::int64_t e = order[static_cast<std::size_t>(k)];
      routing.expert[static_cast<std::size_t>(t)].push_back(e);
      routing.weight[static_cast<std::size_t>(t)].push_back(
          static_cast<float>(p[static_cast<std::size_t>(e)] / denom));
    }
  }
  return routing;
}

Tensor moe_forward(const MoeDims& dims, const MoeWeights& w, const Tensor& x) {
  const Routing routing = route(dims, w, x);
  Tensor out(x.rows(), x.cols());
  for (std::int64_t t = 0; t < x.rows(); ++t) {
    const Tensor xt = x.slice_rows(t, t + 1);
    for (std::int64_t k = 0; k < dims.topk; ++k) {
      const std::int64_t e =
          routing.expert[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)];
      const float weight =
          routing.weight[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)];
      const Tensor y =
          expert_forward(w.experts[static_cast<std::size_t>(e)], xt);
      for (std::int64_t c = 0; c < x.cols(); ++c) {
        out.at(t, c) += weight * y.at(0, c);
      }
    }
  }
  return out;
}

Tensor moe_forward_grouped(const MoeDims& dims, const MoeWeights& w,
                           const Tensor& x) {
  const Routing routing = route(dims, w, x);
  Tensor out(x.rows(), x.cols());
  // Dispatch: gather each expert's assigned (token, weight) pairs.
  for (std::int64_t e = 0; e < dims.experts; ++e) {
    std::vector<std::int64_t> tokens;
    std::vector<float> weights;
    for (std::int64_t t = 0; t < x.rows(); ++t) {
      for (std::int64_t k = 0; k < dims.topk; ++k) {
        if (routing.expert[static_cast<std::size_t>(t)]
                          [static_cast<std::size_t>(k)] == e) {
          tokens.push_back(t);
          weights.push_back(routing.weight[static_cast<std::size_t>(t)]
                                          [static_cast<std::size_t>(k)]);
        }
      }
    }
    if (tokens.empty()) continue;
    // Every row is assigned below — uninit is safe.
    Tensor batch =
        Tensor::uninit(static_cast<std::int64_t>(tokens.size()), x.cols());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      batch.assign_rows(static_cast<std::int64_t>(i),
                        x.slice_rows(tokens[i], tokens[i] + 1));
    }
    const Tensor y = expert_forward(w.experts[static_cast<std::size_t>(e)],
                                    batch);
    // Combine.
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      for (std::int64_t c = 0; c < x.cols(); ++c) {
        out.at(tokens[i], c) += weights[i] * y.at(static_cast<std::int64_t>(i), c);
      }
    }
  }
  return out;
}

Tensor moe_backward(const MoeDims& dims, const MoeWeights& w, const Tensor& x,
                    const Tensor& dout, MoeGrads& grads) {
  const Tensor logits = matmul(x, w.router);
  const Routing routing = route(dims, w, x);
  Tensor dx(x.rows(), x.cols());
  Tensor dlogits(x.rows(), dims.experts);

  for (std::int64_t t = 0; t < x.rows(); ++t) {
    const Tensor xt = x.slice_rows(t, t + 1);
    const Tensor dyt = dout.slice_rows(t, t + 1);
    const std::vector<float> p = softmax_row(logits, t);
    const auto& sel = routing.expert[static_cast<std::size_t>(t)];
    const auto& sel_w = routing.weight[static_cast<std::size_t>(t)];

    double renorm = 0.0;
    for (std::int64_t e : sel) renorm += p[static_cast<std::size_t>(e)];

    // dw_k = dout . f_ek(x); expert FFN backward with weight w_k.
    std::vector<float> dw(sel.size(), 0.0f);
    for (std::size_t k = 0; k < sel.size(); ++k) {
      const std::size_t e = static_cast<std::size_t>(sel[k]);
      const Tensor y = expert_forward(w.experts[e], xt);
      double dot = 0.0;
      for (std::int64_t c = 0; c < x.cols(); ++c) {
        dot += static_cast<double>(dyt.at(0, c)) * y.at(0, c);
      }
      dw[k] = static_cast<float>(dot);
      Tensor dy_scaled = dyt;
      for (std::int64_t i = 0; i < dy_scaled.size(); ++i) {
        dy_scaled.data()[i] *= sel_w[k];
      }
      const Tensor dxe = expert_backward(w.experts[e], grads.experts[e], xt,
                                         dy_scaled);
      for (std::int64_t c = 0; c < x.cols(); ++c) dx.at(t, c) += dxe.at(0, c);
    }

    // Renormalized-softmax jacobian: w_k = p_k / s with s = sum of selected.
    // dp_j (j selected) = dw_j/s - sum_k dw_k p_k / s^2.
    double weighted = 0.0;
    for (std::size_t k = 0; k < sel.size(); ++k) {
      weighted += static_cast<double>(dw[k]) *
                  p[static_cast<std::size_t>(sel[k])];
    }
    std::vector<float> dp(static_cast<std::size_t>(dims.experts), 0.0f);
    for (std::size_t k = 0; k < sel.size(); ++k) {
      dp[static_cast<std::size_t>(sel[k])] = static_cast<float>(
          dw[k] / renorm - weighted / (renorm * renorm));
    }
    // Softmax jacobian: dz_i = p_i (dp_i - sum_j dp_j p_j).
    double dot = 0.0;
    for (std::int64_t e = 0; e < dims.experts; ++e) {
      dot += static_cast<double>(dp[static_cast<std::size_t>(e)]) *
             p[static_cast<std::size_t>(e)];
    }
    for (std::int64_t e = 0; e < dims.experts; ++e) {
      dlogits.at(t, e) = p[static_cast<std::size_t>(e)] *
                         (dp[static_cast<std::size_t>(e)] -
                          static_cast<float>(dot));
    }
  }

  grads.router.add_(matmul_tn(x, dlogits));
  dx.add_(matmul_nt(dlogits, w.router));
  return dx;
}

std::vector<std::int64_t> expert_load(const MoeDims& dims,
                                      const Routing& routing) {
  std::vector<std::int64_t> load(static_cast<std::size_t>(dims.experts), 0);
  for (const auto& sel : routing.expert) {
    for (std::int64_t e : sel) ++load[static_cast<std::size_t>(e)];
  }
  return load;
}

}  // namespace slim::num

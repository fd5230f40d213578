#include "src/numerics/norm_act.hpp"

#include <cmath>
#include <cstring>

#include "src/numerics/arena.hpp"
#include "src/numerics/isa.hpp"

namespace slim::num {

namespace {

constexpr std::int64_t kRowGrain = 16;
constexpr std::int64_t kFlatGrain = 1 << 14;

using detail::parallel_chunks;

// Chunk bodies (isa.hpp): each compiles once per ISA path.

struct RmsNormRows {
  const Tensor& x;
  const Tensor& weight;
  Tensor& y;
};

SLIM_CHUNK_BODY void rmsnorm_rows(const RmsNormRows& g, std::int64_t r0,
                                  std::int64_t r1) {
  const Tensor &x = g.x, &weight = g.weight;
  const std::int64_t n = x.cols();
  for (std::int64_t r = r0; r < r1; ++r) {
    double mean_sq = 0.0;
    for (std::int64_t c = 0; c < n; ++c) {
      mean_sq += static_cast<double>(x.at(r, c)) * x.at(r, c);
    }
    mean_sq /= static_cast<double>(n);
    const float inv_rms =
        1.0f / std::sqrt(static_cast<float>(mean_sq) + kRmsEps);
    for (std::int64_t c = 0; c < n; ++c) {
      g.y.at(r, c) = x.at(r, c) * inv_rms * weight.at(0, c);
    }
  }
}

// dx rows directly; this chunk's dweight partial into its own row of
// `dweight_partials`.
struct RmsNormBwdRows {
  const Tensor& x;
  const Tensor& weight;
  const Tensor& dy;
  Tensor& dx;
  float* dweight_partials;
};

SLIM_CHUNK_BODY void rmsnorm_bwd_rows(const RmsNormBwdRows& g,
                                      std::int64_t r0, std::int64_t r1) {
  const Tensor &x = g.x, &weight = g.weight, &dy = g.dy;
  const std::int64_t n = x.cols();
  float* dw = g.dweight_partials + (r0 / kRowGrain) * n;
  std::memset(dw, 0, static_cast<std::size_t>(n) * sizeof(float));
  for (std::int64_t r = r0; r < r1; ++r) {
    double mean_sq = 0.0;
    for (std::int64_t c = 0; c < n; ++c) {
      mean_sq += static_cast<double>(x.at(r, c)) * x.at(r, c);
    }
    mean_sq /= static_cast<double>(n);
    const float rms2 = static_cast<float>(mean_sq) + kRmsEps;
    const float inv_rms = 1.0f / std::sqrt(rms2);
    // dot = sum_c x_c * w_c * dy_c
    double dot = 0.0;
    for (std::int64_t c = 0; c < n; ++c) {
      dot += static_cast<double>(x.at(r, c)) * weight.at(0, c) * dy.at(r, c);
      dw[c] += dy.at(r, c) * x.at(r, c) * inv_rms;
    }
    const float k =
        static_cast<float>(dot) / (static_cast<float>(n) * rms2) * inv_rms;
    for (std::int64_t c = 0; c < n; ++c) {
      g.dx.at(r, c) = dy.at(r, c) * weight.at(0, c) * inv_rms - x.at(r, c) * k;
    }
  }
}

struct Swiglu {
  const float* gate;
  const float* up;
  float* out;
};

SLIM_CHUNK_BODY void swiglu_elems(const Swiglu& g, std::int64_t lo,
                                  std::int64_t hi) {
  for (std::int64_t i = lo; i < hi; ++i) g.out[i] = silu(g.gate[i]) * g.up[i];
}

struct SwigluBwd {
  const float* gate;
  const float* up;
  const float* dout;
  float* dgate;
  float* dup;
};

SLIM_CHUNK_BODY void swiglu_bwd_elems(const SwigluBwd& g, std::int64_t lo,
                                      std::int64_t hi) {
  for (std::int64_t i = lo; i < hi; ++i) {
    g.dgate[i] = g.dout[i] * g.up[i] * silu_grad(g.gate[i]);
    g.dup[i] = g.dout[i] * silu(g.gate[i]);
  }
}

}  // namespace

Tensor rmsnorm(const Tensor& x, const Tensor& weight) {
  SLIM_CHECK(weight.rows() == 1 && weight.cols() == x.cols(),
             "rmsnorm weight shape");
  // Every element of y is written exactly once — uninit is safe.
  Tensor y = Tensor::uninit(x.rows(), x.cols());
  parallel_chunks<rmsnorm_rows>(0, x.rows(), kRowGrain,
                                RmsNormRows{x, weight, y});
  return y;
}

Tensor rmsnorm_bwd(const Tensor& x, const Tensor& weight, const Tensor& dy,
                   Tensor& dweight) {
  SLIM_CHECK(dweight.rows() == 1 && dweight.cols() == x.cols(),
             "rmsnorm dweight shape");
  Tensor dx = Tensor::uninit(x.rows(), x.cols());
  const std::int64_t n = x.cols();
  // dweight is a reduction over rows: each chunk sums into its own partial
  // row, the partials are folded in ascending chunk order afterwards — the
  // thread-count-independent combine. The partial rows come from the
  // CALLER's workspace as one lease; workers zero their own disjoint row.
  const std::int64_t n_chunks = util::chunk_count(0, x.rows(), kRowGrain);
  WorkspaceLease<float> dweight_partials(n_chunks * n);
  parallel_chunks<rmsnorm_bwd_rows>(
      0, x.rows(), kRowGrain,
      RmsNormBwdRows{x, weight, dy, dx, dweight_partials.data()});
  for (std::int64_t ch = 0; ch < n_chunks; ++ch) {
    const float* dw = dweight_partials.data() + ch * n;
    for (std::int64_t c = 0; c < n; ++c) dweight.at(0, c) += dw[c];
  }
  return dx;
}

Tensor swiglu(const Tensor& gate, const Tensor& up) {
  SLIM_CHECK(gate.rows() == up.rows() && gate.cols() == up.cols(),
             "swiglu shape mismatch");
  // Every element of out is written exactly once — uninit is safe.
  Tensor out = Tensor::uninit(gate.rows(), gate.cols());
  parallel_chunks<swiglu_elems>(0, gate.size(), kFlatGrain,
                                Swiglu{gate.data(), up.data(), out.data()});
  return out;
}

void swiglu_bwd(const Tensor& gate, const Tensor& up, const Tensor& dout,
                Tensor& dgate, Tensor& dup) {
  // Both outputs are fully written — uninit is safe.
  dgate = Tensor::uninit(gate.rows(), gate.cols());
  dup = Tensor::uninit(up.rows(), up.cols());
  parallel_chunks<swiglu_bwd_elems>(
      0, gate.size(), kFlatGrain,
      SwigluBwd{gate.data(), up.data(), dout.data(), dgate.data(), dup.data()});
}

}  // namespace slim::num

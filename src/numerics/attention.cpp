#include "src/numerics/attention.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/numerics/arena.hpp"
#include "src/numerics/exp.hpp"
#include "src/numerics/isa.hpp"

namespace slim::num {

namespace {
constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Query rows per chunk. Rows are independent in the forward (each owns its
// own online-softmax state) so chunks write disjoint rows; the backward's
// dk/dv reductions keep per-chunk partials folded in chunk order.
constexpr std::int64_t kQueryGrain = 8;

// Keys per stack tile of score / dP values, and keys whose dot products run
// side by side within a tile: one exp block (exp.hpp).
constexpr std::int64_t kKeyTile = 64;
constexpr std::int64_t kKeyBlock = kExpLanes;
static_assert(kKeyTile % kKeyBlock == 0);

using detail::parallel_chunks;

/// `count` rounded up to whole key blocks.
constexpr std::int64_t round_up(std::int64_t count) {
  return (count + kKeyBlock - 1) / kKeyBlock * kKeyBlock;
}

/// Key-contiguous copy of the first `count` rows of a row-major chunk with
/// `n` columns: cols[c * stride + r] = rows[r * n + c], and the pad keys
/// [count, stride) are zero, so whole key blocks read finite values.
[[gnu::always_inline]] inline void transpose_keys(const float* rows,
                                                  std::int64_t n,
                                                  std::int64_t count,
                                                  std::int64_t stride,
                                                  float* cols) {
  for (std::int64_t c = 0; c < n; ++c) {
    float* col = cols + c * stride;
    for (std::int64_t r = 0; r < count; ++r) col[r] = rows[r * n + c];
    for (std::int64_t r = count; r < stride; ++r) col[r] = 0.0f;
  }
}

/// out[t] = x · column t of `cols` (n rows, `stride` apart) for t in
/// [0, count), count a multiple of kKeyBlock. Each dot is a double sum in
/// ascending row order — the bits of one serial loop per key — and the
/// kKeyBlock keys of one row load as one vector.
[[gnu::always_inline]] inline void dot_cols(const float* x, const float* cols,
                                            std::int64_t n,
                                            std::int64_t stride,
                                            std::int64_t count, double* out) {
  for (std::int64_t t = 0; t < count; t += kKeyBlock) {
    double acc[kKeyBlock] = {};
    for (std::int64_t c = 0; c < n; ++c) {
      const double xc = x[c];
      const float* col = cols + c * stride + t;
      for (std::int64_t b = 0; b < kKeyBlock; ++b) acc[b] += xc * col[b];
    }
    for (std::int64_t b = 0; b < kKeyBlock; ++b) out[t + b] = acc[b];
  }
}

// Chunk bodies over query rows (isa.hpp): each compiles once per ISA path.

struct PartialRows {
  const Tensor& q;
  const Tensor& k;
  const Tensor& v;
  std::int64_t q_offset, k_offset;
  float scale;
  AttnPartial& part;
};

SLIM_CHUNK_BODY void partial_rows(const PartialRows& g, std::int64_t i0,
                                  std::int64_t i1) {
  const Tensor &q = g.q, &k = g.k, &v = g.v;
  Tensor& out = g.part.out;
  const std::int64_t kv = k.rows(), kc = k.cols(), d = v.cols();
  // A row sees no fewer keys than the row before it, so the body's last row
  // bounds the keys any of its rows reads.
  const std::int64_t seen =
      std::clamp<std::int64_t>(g.q_offset + i1 - g.k_offset, 0, kv);
  if (seen == 0) return;
  // One lease from this worker's reusable workspace: the score row, then K
  // key-contiguous. Every score slot a row reads is written first (its
  // scores, then its pad lanes), so nothing needs zeroing.
  const std::int64_t stride = round_up(seen);
  WorkspaceLease<float> lease(stride * (1 + kc));
  float* scores = lease.data();
  float* kt = scores + stride;
  transpose_keys(k.data(), kc, seen, stride, kt);
  for (std::int64_t i = i0; i < i1; ++i) {
    const std::int64_t visible =
        std::clamp<std::int64_t>(g.q_offset + i - g.k_offset + 1, 0, kv);
    if (visible == 0) continue;
    // Row scores and max, the max folded in ascending key order.
    float m = kNegInf;
    for (std::int64_t t0 = 0; t0 < visible; t0 += kKeyTile) {
      const std::int64_t nt = std::min(kKeyTile, visible - t0);
      double dots[kKeyTile];
      dot_cols(q.data() + i * kc, kt + t0, kc, stride, round_up(nt), dots);
      for (std::int64_t t = 0; t < nt; ++t) {
        const float sc = static_cast<float>(dots[t]) * g.scale;
        scores[t0 + t] = sc;
        m = std::max(m, sc);
      }
    }
    // Weights in whole exp blocks; the pad lanes hold m and are never read.
    const std::int64_t padded = round_up(visible);
    for (std::int64_t j = visible; j < padded; ++j) scores[j] = m;
    exp_shifted(scores, m, padded, scores);
    double l = 0.0;
    for (std::int64_t j = 0; j < visible; ++j) {
      const float w = scores[j];
      l += w;
      for (std::int64_t c = 0; c < d; ++c) out.at(i, c) += w * v.at(j, c);
    }
    const float inv_l = 1.0f / static_cast<float>(l);
    for (std::int64_t c = 0; c < d; ++c) out.at(i, c) *= inv_l;
    g.part.m[static_cast<std::size_t>(i)] = m;
    g.part.l[static_cast<std::size_t>(i)] = static_cast<float>(l);
  }
}

struct MergeRows {
  const AttnPartial& a;
  const AttnPartial& b;
  AttnPartial& out;
};

SLIM_CHUNK_BODY void merge_rows(const MergeRows& g, std::int64_t i0,
                                std::int64_t i1) {
  const AttnPartial &a = g.a, &b = g.b;
  AttnPartial& out = g.out;
  const std::int64_t d = a.out.cols();
  for (std::int64_t i = i0; i < i1; ++i) {
    const std::size_t si = static_cast<std::size_t>(i);
    const float la = a.l[si], lb = b.l[si];
    if (la == 0.0f && lb == 0.0f) continue;
    if (la == 0.0f) {
      out.m[si] = b.m[si];
      out.l[si] = lb;
      for (std::int64_t c = 0; c < d; ++c) out.out.at(i, c) = b.out.at(i, c);
      continue;
    }
    if (lb == 0.0f) {
      out.m[si] = a.m[si];
      out.l[si] = la;
      for (std::int64_t c = 0; c < d; ++c) out.out.at(i, c) = a.out.at(i, c);
      continue;
    }
    const float m = std::max(a.m[si], b.m[si]);
    const float wa = la * exp_f32(a.m[si] - m);
    const float wb = lb * exp_f32(b.m[si] - m);
    const float l = wa + wb;
    for (std::int64_t c = 0; c < d; ++c) {
      out.out.at(i, c) = (a.out.at(i, c) * wa + b.out.at(i, c) * wb) / l;
    }
    out.m[si] = m;
    out.l[si] = l;
  }
}

// D_i = dout_i . out_i, one double sum per row in ascending column order.
struct RowSums {
  const Tensor& dout;
  const Tensor& out;
  float* D;
};

SLIM_CHUNK_BODY void output_rowsums(const RowSums& g, std::int64_t i0,
                                    std::int64_t i1) {
  const std::int64_t d = g.out.cols();
  for (std::int64_t i = i0; i < i1; ++i) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < d; ++c) {
      sum += static_cast<double>(g.dout.at(i, c)) * g.out.at(i, c);
    }
    g.D[i] = static_cast<float>(sum);
  }
}

// One KV chunk's backward for query rows [i0, i1): dq rows directly, dk/dv
// into the query chunk's own partial slab. kt and vt are the chunk's K and
// V key-contiguous (transpose_keys, `stride` keys per column).
struct BwdRows {
  const Tensor& q;
  const KvChunk& chunk;
  const float* kt;
  const float* vt;
  std::int64_t stride;
  std::int64_t q_offset;
  float scale;
  const AttnPartial& fwd;
  const Tensor& dout;
  const float* D;
  Tensor& dq;
  float* dk_partials;
  float* dv_partials;
};

SLIM_CHUNK_BODY void streamed_bwd_rows(const BwdRows& g, std::int64_t i0,
                                       std::int64_t i1) {
  const KvChunk& chunk = g.chunk;
  const std::int64_t kv = chunk.k.rows();
  const std::int64_t kc = chunk.k.cols(), vc = chunk.v.cols();
  const std::int64_t qc = i0 / kQueryGrain;
  float* dkp = g.dk_partials + qc * kv * kc;
  float* dvp = g.dv_partials + qc * kv * vc;
  std::memset(dkp, 0, static_cast<std::size_t>(kv * kc) * sizeof(float));
  std::memset(dvp, 0, static_cast<std::size_t>(kv * vc) * sizeof(float));
  for (std::int64_t i = i0; i < i1; ++i) {
    const std::size_t si = static_cast<std::size_t>(i);
    if (g.fwd.l[si] == 0.0f) continue;
    const std::int64_t visible =
        std::clamp<std::int64_t>(g.q_offset + i - chunk.pos + 1, 0, kv);
    const float m = g.fwd.m[si];
    const float inv_l = 1.0f / g.fwd.l[si];
    const float* qi = g.q.data() + i * kc;
    const float* douti = g.dout.data() + i * g.dout.cols();
    float* dqi = g.dq.data() + i * kc;
    for (std::int64_t t0 = 0; t0 < visible; t0 += kKeyTile) {
      const std::int64_t nt = std::min(kKeyTile, visible - t0);
      const std::int64_t padded = round_up(nt);
      double dots[kKeyTile], dps[kKeyTile];
      dot_cols(qi, g.kt + t0, kc, g.stride, padded, dots);
      dot_cols(douti, g.vt + t0, vc, g.stride, padded, dps);
      // p and dS in whole exp blocks; the pad lanes hold m and are never
      // read.
      float p[kKeyTile], ds[kKeyTile];
      std::int64_t t = 0;
      for (; t < nt; ++t) p[t] = static_cast<float>(dots[t]) * g.scale;
      for (; t < padded; ++t) p[t] = m;
      exp_shifted(p, m, padded, p);
      for (t = 0; t < padded; ++t) {
        p[t] *= inv_l;
        ds[t] = p[t] * (static_cast<float>(dps[t]) - g.D[i]) * g.scale;
      }
      for (t = 0; t < nt; ++t) {
        const std::int64_t j = t0 + t;
        const float* kj = chunk.k.data() + j * kc;
        float* dkj = dkp + j * kc;
        for (std::int64_t c = 0; c < kc; ++c) {
          dqi[c] += ds[t] * kj[c];
          dkj[c] += ds[t] * qi[c];
        }
        float* dvj = dvp + j * vc;
        for (std::int64_t c = 0; c < vc; ++c) dvj[c] += p[t] * douti[c];
      }
    }
  }
}

// Folds the partial slabs of query chunks [qc0, qc1) into dk/dv, in
// ascending chunk order.
struct SlabFold {
  const float* dk_partials;
  const float* dv_partials;
  float* dk;
  float* dv;
  std::int64_t dk_size, dv_size;
};

SLIM_CHUNK_BODY void fold_slabs(const SlabFold& g, std::int64_t qc0,
                                std::int64_t qc1) {
  for (std::int64_t qc = qc0; qc < qc1; ++qc) {
    const float* dkp = g.dk_partials + qc * g.dk_size;
    const float* dvp = g.dv_partials + qc * g.dv_size;
    for (std::int64_t e = 0; e < g.dk_size; ++e) g.dk[e] += dkp[e];
    for (std::int64_t e = 0; e < g.dv_size; ++e) g.dv[e] += dvp[e];
  }
}

}  // namespace

AttnPartial attn_partial(const Tensor& q, const Tensor& k, const Tensor& v,
                         std::int64_t q_offset, std::int64_t k_offset,
                         float scale) {
  SLIM_CHECK(q.cols() == k.cols(), "q/k head-dim mismatch");
  SLIM_CHECK(k.rows() == v.rows(), "k/v length mismatch");
  const std::int64_t s = q.rows(), d = v.cols();
  AttnPartial part;
  part.out = Tensor(s, d);
  part.m.assign(static_cast<std::size_t>(s), kNegInf);
  part.l.assign(static_cast<std::size_t>(s), 0.0f);

  parallel_chunks<partial_rows>(
      0, s, kQueryGrain, PartialRows{q, k, v, q_offset, k_offset, scale, part});
  return part;
}

AttnPartial attn_merge(const AttnPartial& a, const AttnPartial& b) {
  SLIM_CHECK(a.q_len() == b.q_len() && a.out.cols() == b.out.cols(),
             "merge shape mismatch");
  const std::int64_t s = a.q_len(), d = a.out.cols();
  AttnPartial out;
  out.out = Tensor(s, d);
  out.m.assign(static_cast<std::size_t>(s), kNegInf);
  out.l.assign(static_cast<std::size_t>(s), 0.0f);
  parallel_chunks<merge_rows>(0, s, kQueryGrain, MergeRows{a, b, out});
  return out;
}

Tensor attn_reference(const Tensor& q, const Tensor& k, const Tensor& v,
                      std::int64_t q_offset, float scale) {
  return attn_partial(q, k, v, q_offset, /*k_offset=*/0, scale).out;
}

void attn_reference_bwd(const Tensor& q, const Tensor& k, const Tensor& v,
                        std::int64_t q_offset, float scale, const Tensor& dout,
                        Tensor& dq, Tensor& dk, Tensor& dv) {
  const std::int64_t s = q.rows(), kv = k.rows(), d = v.cols();
  dq = Tensor(q.rows(), q.cols());
  dk = Tensor(k.rows(), k.cols());
  dv = Tensor(v.rows(), v.cols());
  for (std::int64_t i = 0; i < s; ++i) {
    const std::int64_t visible =
        std::clamp<std::int64_t>(q_offset + i + 1, 0, kv);
    if (visible == 0) continue;
    std::vector<float> p(static_cast<std::size_t>(visible));
    float m = kNegInf;
    for (std::int64_t j = 0; j < visible; ++j) {
      double dot = 0.0;
      for (std::int64_t c = 0; c < q.cols(); ++c) {
        dot += static_cast<double>(q.at(i, c)) * k.at(j, c);
      }
      p[static_cast<std::size_t>(j)] = static_cast<float>(dot) * scale;
      m = std::max(m, p[static_cast<std::size_t>(j)]);
    }
    double l = 0.0;
    for (std::int64_t j = 0; j < visible; ++j) {
      p[static_cast<std::size_t>(j)] =
          std::exp(p[static_cast<std::size_t>(j)] - m);
      l += p[static_cast<std::size_t>(j)];
    }
    for (std::int64_t j = 0; j < visible; ++j) {
      p[static_cast<std::size_t>(j)] /= static_cast<float>(l);
    }
    // dp_j = dout_i . v_j ; rowsum = sum_j p_j dp_j
    double rowsum = 0.0;
    std::vector<float> dp(static_cast<std::size_t>(visible));
    for (std::int64_t j = 0; j < visible; ++j) {
      double dot = 0.0;
      for (std::int64_t c = 0; c < d; ++c) {
        dot += static_cast<double>(dout.at(i, c)) * v.at(j, c);
      }
      dp[static_cast<std::size_t>(j)] = static_cast<float>(dot);
      rowsum += p[static_cast<std::size_t>(j)] * dot;
    }
    for (std::int64_t j = 0; j < visible; ++j) {
      const float pj = p[static_cast<std::size_t>(j)];
      const float ds =
          pj * (dp[static_cast<std::size_t>(j)] - static_cast<float>(rowsum)) *
          scale;
      for (std::int64_t c = 0; c < q.cols(); ++c) {
        dq.at(i, c) += ds * k.at(j, c);
        dk.at(j, c) += ds * q.at(i, c);
      }
      for (std::int64_t c = 0; c < d; ++c) {
        dv.at(j, c) += pj * dout.at(i, c);
      }
    }
  }
}

AttnPartial attn_streamed(const Tensor& q, const std::vector<KvChunk>& chunks,
                          std::int64_t q_offset, float scale) {
  AttnPartial acc;
  acc.out = Tensor(q.rows(), chunks.empty() ? q.cols() : chunks[0].v.cols());
  acc.m.assign(static_cast<std::size_t>(q.rows()), kNegInf);
  acc.l.assign(static_cast<std::size_t>(q.rows()), 0.0f);
  bool first = true;
  for (const KvChunk& chunk : chunks) {
    AttnPartial part =
        attn_partial(q, chunk.k, chunk.v, q_offset, chunk.pos, scale);
    acc = first ? std::move(part) : attn_merge(acc, part);
    first = false;
  }
  return acc;
}

void attn_streamed_bwd(const Tensor& q, const std::vector<KvChunk>& chunks,
                       std::int64_t q_offset, float scale,
                       const AttnPartial& fwd, const Tensor& dout, Tensor& dq,
                       std::vector<Tensor>& dk_chunks,
                       std::vector<Tensor>& dv_chunks) {
  SLIM_CHECK(dk_chunks.size() == chunks.size() &&
                 dv_chunks.size() == chunks.size(),
             "gradient chunk buffers must match chunk count");
  const std::int64_t s = q.rows(), d = fwd.out.cols();
  dq = Tensor(q.rows(), q.cols());
  // D_i = dout_i . out_i — the flash-attention rowsum shortcut that spares
  // a second pass over all chunks. Workspace-leased: every slot is written
  // by the parallel pass before any chunk loop reads it.
  WorkspaceLease<float> D(s);
  parallel_chunks<output_rowsums>(0, s, kQueryGrain,
                                  RowSums{dout, fwd.out, D.data()});

  for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
    const KvChunk& chunk = chunks[ci];
    Tensor& dk = dk_chunks[ci];
    Tensor& dv = dv_chunks[ci];
    SLIM_CHECK(dk.rows() == chunk.k.rows() && dv.rows() == chunk.v.rows(),
               "chunk gradient shape mismatch");
    const std::int64_t kv = chunk.k.rows();
    const std::int64_t kc = chunk.k.cols(), vc = chunk.v.cols();
    SLIM_CHECK(kc == q.cols() && vc == d, "chunk head-dim mismatch");
    // dq rows are disjoint across query chunks; dk/dv reduce over query
    // rows, so each query chunk accumulates into its own partial slab and
    // the slabs fold in ascending chunk order below — the thread-count
    // independent combine. The slabs live in the CALLER's workspace (one
    // lease instead of 2*n_qchunks fresh tensors); workers zero their own
    // disjoint slab before accumulating into it. After its slabs, each lease
    // holds the chunk's K (dk's) or V (dv's) key-contiguous, which the
    // workers' score and dP tiles read.
    const std::int64_t n_qchunks = util::chunk_count(0, s, kQueryGrain);
    const std::int64_t stride = round_up(kv);
    WorkspaceLease<float> dk_partials(n_qchunks * kv * kc + kc * stride);
    WorkspaceLease<float> dv_partials(n_qchunks * kv * vc + vc * stride);
    float* kt = dk_partials.data() + n_qchunks * kv * kc;
    float* vt = dv_partials.data() + n_qchunks * kv * vc;
    transpose_keys(chunk.k.data(), kc, kv, stride, kt);
    transpose_keys(chunk.v.data(), vc, kv, stride, vt);
    parallel_chunks<streamed_bwd_rows>(
        0, s, kQueryGrain,
        BwdRows{q, chunk, kt, vt, stride, q_offset, scale, fwd, dout,
                D.data(), dq, dk_partials.data(), dv_partials.data()});
    detail::run_chunk<fold_slabs>(
        SlabFold{dk_partials.data(), dv_partials.data(), dk.data(), dv.data(),
                 kv * kc, kv * vc},
        0, n_qchunks);
  }
}

}  // namespace slim::num

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

// Query rows per chunk of the backward, the merge and the D rowsums. The
// backward's dk/dv reductions keep one partial slab per chunk, folded in
// chunk order.
constexpr std::int64_t kQueryGrain = 8;
// Query rows per forward chunk. Rows are independent in the forward (each
// owns its own online-softmax state) so chunks write disjoint rows. Each
// chunk holds a scratch region in the call's lease (partial_rows), so a
// coarser grain keeps the lease small.
constexpr std::int64_t kForwardGrain = 32;

// The register block of the forward and backward bodies: kRowBlock query
// rows side by side in the lanes of one f64x4 / f32x4, against Tile::kKeys
// keys at a time (one f64x4 of scores per key), with output columns in
// blocks of Tile::V. Each path's tile fills eight of its sixteen vector
// registers with scores: eight ymm on AVX2, four keys' worth of xmm pairs
// on the baseline. K and V copies pad keys to whole kKeyPad blocks.
constexpr std::int64_t kRowBlock = 4;
constexpr std::int64_t kKeyPad = 8;
struct WideTile {
  static constexpr std::int64_t kKeys = 8;
  using V = detail::f32x8;
};
struct NarrowTile {
  static constexpr std::int64_t kKeys = 4;
  using V = detail::f32x4;
};
static_assert(kQueryGrain % kRowBlock == 0);
static_assert(kForwardGrain % kRowBlock == 0);
static_assert(kKeyPad % WideTile::kKeys == 0);
static_assert(kKeyPad % NarrowTile::kKeys == 0);
static_assert(kRowBlock * NarrowTile::kKeys % kExpLanes == 0);

using detail::f32x4;
using detail::f32x8;
using detail::f64x4;
using detail::i32x4;
using detail::i64x4;
using detail::load;
using detail::parallel_chunks;
using detail::store;

/// `count` rounded up to a multiple of `to`.
constexpr std::int64_t round_up(std::int64_t count, std::int64_t to) {
  return (count + to - 1) / to * to;
}

/// Key-contiguous double copy of the first `count` rows of a row-major
/// chunk with `n` columns: cols[c * stride + r] = rows[r * n + c], and the
/// pad keys [count, stride) are zero, so whole key blocks read finite
/// values.
void transpose_keys(const float* rows, std::int64_t n, std::int64_t count,
                    std::int64_t stride, double* cols) {
  for (std::int64_t c = 0; c < n; ++c) {
    double* col = cols + c * stride;
    for (std::int64_t r = 0; r < count; ++r) col[r] = rows[r * n + c];
    for (std::int64_t r = count; r < stride; ++r) col[r] = 0.0;
  }
}

/// One register block of query rows. Lane r is row `row[r]` and sees keys
/// [0, vis[r]). A lane with vis 0 writes nothing: a row that sees no key of
/// the chunk, or a lane past the chunk's last row (it repeats that row, so
/// its loads stay in bounds). Keys [0, lo) are visible to every lane and
/// [lo, hi) to some.
struct RowBlock {
  std::int64_t row[kRowBlock];
  std::int32_t vis[kRowBlock];
  std::int64_t lo, hi;

  /// Lane mask of the rows that see key j.
  [[gnu::always_inline]] i32x4 sees(std::int64_t j) const {
    const i32x4 v = {vis[0], vis[1], vis[2], vis[3]};
    return (i32x4{} + static_cast<std::int32_t>(j)) < v;
  }
};

/// The block of rows [i, i + kRowBlock) of a chunk ending at i1; `visible`
/// gives a row's visible key count.
template <class Visible>
[[gnu::always_inline]] inline RowBlock row_block(std::int64_t i,
                                                 std::int64_t i1,
                                                 const Visible& visible) {
  RowBlock b;
  b.lo = std::numeric_limits<std::int64_t>::max();
  b.hi = 0;
  for (std::int64_t r = 0; r < kRowBlock; ++r) {
    b.row[r] = std::min(i + r, i1 - 1);
    b.vis[r] = static_cast<std::int32_t>(i + r < i1 ? visible(b.row[r]) : 0);
    b.lo = std::min<std::int64_t>(b.lo, b.vis[r]);
    b.hi = std::max<std::int64_t>(b.hi, b.vis[r]);
  }
  return b;
}

/// xt[c * kRowBlock + r] = row `b.row[r]` of x (n columns), column c, as
/// double: the block's rows side by side, one f64x4 per column.
[[gnu::always_inline]] inline void gather_rows(const float* x, std::int64_t n,
                                               const RowBlock& b, double* xt) {
  for (std::int64_t c = 0; c < n; ++c) {
    for (std::int64_t r = 0; r < kRowBlock; ++r) {
      xt[c * kRowBlock + r] = x[b.row[r] * n + c];
    }
  }
}

/// dots[t], lane r = the dot of the block's row r (xt, n columns) with key
/// key0 + t of `cols` (key-contiguous, `stride` keys per column): one double
/// sum per (row, key) in ascending column order, the bits of one serial
/// loop. A block's rows share each column's key loads.
template <std::int64_t kKeys>
[[gnu::always_inline]] inline void dot_block(const double* xt,
                                             const double* cols,
                                             std::int64_t n,
                                             std::int64_t stride,
                                             std::int64_t key0,
                                             f64x4 (&dots)[kKeys]) {
  for (std::int64_t t = 0; t < kKeys; ++t) dots[t] = f64x4{};
  for (std::int64_t c = 0; c < n; ++c) {
    const f64x4 x = load<f64x4>(xt + c * kRowBlock);
    const double* col = cols + c * stride + key0;
    for (std::int64_t t = 0; t < kKeys; ++t) dots[t] += x * col[t];
  }
}

/// w[e] = exp_f32(w[e] - m[e % kRowBlock]) for e in [0, n), n a multiple
/// of kExpLanes: key-major values, each lane shifted by its own row's max,
/// in whole exp blocks.
[[gnu::always_inline]] inline void exp_lanes(float* w, const f32x4& m,
                                             std::int64_t n) {
  float shift[kExpLanes];
  for (std::int64_t b = 0; b < kExpLanes; ++b) shift[b] = m[b % kRowBlock];
  for (std::int64_t e = 0; e < n; e += kExpLanes) {
    for (std::int64_t b = 0; b < kExpLanes; ++b) {
      w[e + b] = exp_f32(w[e + b] - shift[b]);
    }
  }
}

/// Calls body.template operator()<V>(c0) on the column blocks of [0, n):
/// blocks of Wide (f32x8 or f32x4), then one f32x4 block if Wide is wider,
/// then single floats.
template <class Wide, class Body>
[[gnu::always_inline]] inline void for_column_blocks(std::int64_t n,
                                                     const Body& body) {
  constexpr std::int64_t lanes = sizeof(Wide) / sizeof(float);
  std::int64_t c = 0;
  for (; c + lanes <= n; c += lanes) body.template operator()<Wide>(c);
  if (lanes > 4 && c + 4 <= n) {
    body.template operator()<f32x4>(c);
    c += 4;
  }
  for (; c < n; ++c) body.template operator()<float>(c);
}

/// Runs step.template operator()<masked>(j) for the keys j in [begin, end)
/// in ascending order: unmasked below b.lo, where every lane sees the key;
/// masked above, where step must test each lane.
template <class Step>
[[gnu::always_inline]] inline void for_keys(const RowBlock& b,
                                            std::int64_t begin,
                                            std::int64_t end,
                                            const Step& step) {
  const std::int64_t split = std::clamp(b.lo, begin, end);
  for (std::int64_t j = begin; j < split; ++j) {
    step.template operator()<false>(j);
  }
  for (std::int64_t j = split; j < end; ++j) step.template operator()<true>(j);
}

// Chunk bodies over query rows (isa.hpp): each compiles once per ISA path.

struct PartialRows {
  const Tensor& q;
  const Tensor& v;
  const double* kt;  // K key-contiguous: q.cols() x stride
  std::int64_t stride;
  double* scratch;  // per query chunk: chunk_scratch doubles
  std::int64_t chunk_scratch;
  std::int64_t first_visible;  // keys row 0 sees: q_offset - k_offset + 1
  std::int64_t kv;
  float scale;
  AttnPartial& part;
};

template <class Tile>
[[gnu::always_inline]] inline void partial_rows_tiled(const PartialRows& g,
                                                      std::int64_t i0,
                                                      std::int64_t i1) {
  constexpr std::int64_t kKeys = Tile::kKeys;
  const std::int64_t kc = g.q.cols(), d = g.v.cols();
  // The chunk's scratch: its row block's q columns, then the block's
  // scores / weights key-major (stride keys x kRowBlock lanes). Every slot
  // a block reads it writes first.
  double* qt = g.scratch + i0 / kForwardGrain * g.chunk_scratch;
  float* w = reinterpret_cast<float*>(qt + kc * kRowBlock);
  float* out = g.part.out.data();
  for (std::int64_t i = i0; i < i1; i += kRowBlock) {
    const RowBlock b = row_block(i, i1, [&](std::int64_t row) {
      return std::clamp<std::int64_t>(g.first_visible + row, 0, g.kv);
    });
    if (b.hi == 0) continue;
    gather_rows(g.q.data(), kc, b, qt);
    // Scores, and each row's max folded over its visible keys in ascending
    // key order.
    const std::int64_t keys = round_up(b.hi, kKeys);
    f32x4 m = f32x4{} + kNegInf;
    for (std::int64_t t0 = 0; t0 < keys; t0 += kKeys) {
      f64x4 dots[kKeys];
      dot_block(qt, g.kt, kc, g.stride, t0, dots);
      for (std::int64_t t = 0; t < kKeys; ++t) {
        const f32x4 s = __builtin_convertvector(dots[t], f32x4) * g.scale;
        store(w + (t0 + t) * kRowBlock, s);
        m = b.sees(t0 + t) & (m < s) ? s : m;
      }
    }
    // Weights in whole exp blocks; a lane's keys past its visible count
    // hold garbage and are never read.
    exp_lanes(w, m, keys * kRowBlock);
    // Each row's normalizer: its weights summed in double, in ascending key
    // order.
    f64x4 l = {};
    for (std::int64_t j = 0; j < b.hi; ++j) {
      const f64x4 wj =
          __builtin_convertvector(load<f32x4>(w + j * kRowBlock), f64x4);
      l = __builtin_convertvector(b.sees(j), i64x4) ? l + wj : l;
    }
    const f32x4 lf = __builtin_convertvector(l, f32x4);
    const f32x4 inv_l = 1.0f / lf;
    // out rows: the weighted V rows summed in fp32 in ascending key order,
    // from zero, in registers, then scaled by 1/l.
    for_column_blocks<typename Tile::V>(d, [&]<class V>(std::int64_t c0)
                                              __attribute__((always_inline)) {
      V acc[kRowBlock] = {};
      for_keys(b, 0, b.hi, [&]<bool kMasked>(std::int64_t j)
                               __attribute__((always_inline)) {
        const V vj = load<V>(g.v.data() + j * d + c0);
        for (std::int64_t r = 0; r < kRowBlock; ++r) {
          if (!kMasked || j < b.vis[r]) acc[r] += w[j * kRowBlock + r] * vj;
        }
      });
      for (std::int64_t r = 0; r < kRowBlock; ++r) {
        if (b.vis[r] > 0) store(out + b.row[r] * d + c0, acc[r] * inv_l[r]);
      }
    });
    for (std::int64_t r = 0; r < kRowBlock; ++r) {
      if (b.vis[r] == 0) continue;
      const std::size_t row = static_cast<std::size_t>(b.row[r]);
      g.part.m[row] = m[r];
      g.part.l[row] = lf[r];
    }
  }
}

// partial_rows runs on the AVX2 path, partial_rows_narrow on the baseline
// one (isa.hpp's active_path).

SLIM_CHUNK_BODY void partial_rows(const PartialRows& g, std::int64_t i0,
                                  std::int64_t i1) {
  partial_rows_tiled<WideTile>(g, i0, i1);
}

SLIM_CHUNK_BODY void partial_rows_narrow(const PartialRows& g,
                                         std::int64_t i0, std::int64_t i1) {
  partial_rows_tiled<NarrowTile>(g, i0, i1);
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
  const double* kt;
  const double* vt;
  std::int64_t stride;
  double* scratch;  // per query chunk: chunk_scratch doubles
  std::int64_t chunk_scratch;
  std::int64_t q_offset;
  float scale;
  const AttnPartial& fwd;
  const Tensor& dout;
  const float* D;
  Tensor& dq;
  float* dk_partials;
  float* dv_partials;
};

template <class Tile>
[[gnu::always_inline]] inline void streamed_bwd_rows_tiled(const BwdRows& g,
                                                           std::int64_t i0,
                                                           std::int64_t i1) {
  constexpr std::int64_t kKeys = Tile::kKeys;
  const KvChunk& chunk = g.chunk;
  const std::int64_t kv = chunk.k.rows();
  const std::int64_t kc = chunk.k.cols(), vc = chunk.v.cols();
  const std::int64_t qc = i0 / kQueryGrain;
  float* dkp = g.dk_partials + qc * kv * kc;
  float* dvp = g.dv_partials + qc * kv * vc;
  std::memset(dkp, 0, static_cast<std::size_t>(kv * kc) * sizeof(float));
  std::memset(dvp, 0, static_cast<std::size_t>(kv * vc) * sizeof(float));
  // The chunk's scratch: its row block's q columns, then its dout columns.
  double* qt = g.scratch + qc * g.chunk_scratch;
  double* dt = qt + kc * kRowBlock;
  for (std::int64_t i = i0; i < i1; i += kRowBlock) {
    const RowBlock b = row_block(i, i1, [&](std::int64_t row) {
      if (g.fwd.l[static_cast<std::size_t>(row)] == 0.0f) {
        return std::int64_t{0};
      }
      return std::clamp<std::int64_t>(g.q_offset + row - chunk.pos + 1, 0, kv);
    });
    if (b.hi == 0) continue;
    gather_rows(g.q.data(), kc, b, qt);
    gather_rows(g.dout.data(), vc, b, dt);
    f32x4 m, inv_l, D;
    for (std::int64_t r = 0; r < kRowBlock; ++r) {
      const std::size_t row = static_cast<std::size_t>(b.row[r]);
      m[r] = g.fwd.m[row];
      inv_l[r] = 1.0f / g.fwd.l[row];
      D[r] = g.D[row];
    }
    for (std::int64_t t0 = 0; t0 < b.hi; t0 += kKeys) {
      // p and dS of the block's rows against keys [t0, t0 + kKeys),
      // key-major (lane r of key t at t * kRowBlock + r), in whole exp
      // blocks; a lane's keys past its visible count are never read.
      float p[kKeys * kRowBlock], ds[kKeys * kRowBlock];
      f64x4 dots[kKeys];
      dot_block(qt, g.kt, kc, g.stride, t0, dots);
      for (std::int64_t t = 0; t < kKeys; ++t) {
        store(p + t * kRowBlock,
              __builtin_convertvector(dots[t], f32x4) * g.scale);
      }
      exp_lanes(p, m, kKeys * kRowBlock);
      dot_block(dt, g.vt, vc, g.stride, t0, dots);
      for (std::int64_t t = 0; t < kKeys; ++t) {
        const f32x4 pt = load<f32x4>(p + t * kRowBlock) * inv_l;
        store(p + t * kRowBlock, pt);
        store(ds + t * kRowBlock,
              pt * (__builtin_convertvector(dots[t], f32x4) - D) * g.scale);
      }
      const std::int64_t t1 = std::min(t0 + kKeys, b.hi);
      // dq rows stay in registers across the keys; each dk slab row takes
      // the block's rows in ascending order, one load and one store per key.
      for_column_blocks<typename Tile::V>(kc, [&]<class V>(std::int64_t c0)
                                                  __attribute__((always_inline)) {
        V dq[kRowBlock], q[kRowBlock];
        for (std::int64_t r = 0; r < kRowBlock; ++r) {
          q[r] = load<V>(g.q.data() + b.row[r] * kc + c0);
          dq[r] = b.vis[r] > 0 ? load<V>(g.dq.data() + b.row[r] * kc + c0)
                               : V{};
        }
        for_keys(b, t0, t1, [&]<bool kMasked>(std::int64_t j)
                                __attribute__((always_inline)) {
          const float* sj = ds + (j - t0) * kRowBlock;
          const V kj = load<V>(chunk.k.data() + j * kc + c0);
          V dk = load<V>(dkp + j * kc + c0);
          for (std::int64_t r = 0; r < kRowBlock; ++r) {
            if (kMasked && j >= b.vis[r]) continue;
            dq[r] += sj[r] * kj;
            dk += sj[r] * q[r];
          }
          store(dkp + j * kc + c0, dk);
        });
        for (std::int64_t r = 0; r < kRowBlock; ++r) {
          if (b.vis[r] > 0) store(g.dq.data() + b.row[r] * kc + c0, dq[r]);
        }
      });
      for_column_blocks<typename Tile::V>(vc, [&]<class V>(std::int64_t c0)
                                                  __attribute__((always_inline)) {
        V dout[kRowBlock];
        for (std::int64_t r = 0; r < kRowBlock; ++r) {
          dout[r] = load<V>(g.dout.data() + b.row[r] * vc + c0);
        }
        for_keys(b, t0, t1, [&]<bool kMasked>(std::int64_t j)
                                __attribute__((always_inline)) {
          const float* pj = p + (j - t0) * kRowBlock;
          V dv = load<V>(dvp + j * vc + c0);
          for (std::int64_t r = 0; r < kRowBlock; ++r) {
            if (kMasked && j >= b.vis[r]) continue;
            dv += pj[r] * dout[r];
          }
          store(dvp + j * vc + c0, dv);
        });
      });
    }
  }
}

// streamed_bwd_rows runs on the AVX2 path, streamed_bwd_rows_narrow on the
// baseline one (isa.hpp's active_path).

SLIM_CHUNK_BODY void streamed_bwd_rows(const BwdRows& g, std::int64_t i0,
                                       std::int64_t i1) {
  streamed_bwd_rows_tiled<WideTile>(g, i0, i1);
}

SLIM_CHUNK_BODY void streamed_bwd_rows_narrow(const BwdRows& g,
                                              std::int64_t i0,
                                              std::int64_t i1) {
  streamed_bwd_rows_tiled<NarrowTile>(g, i0, i1);
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

  // The last row sees the most keys.
  const std::int64_t seen =
      std::clamp<std::int64_t>(q_offset + s - k_offset, 0, k.rows());
  if (seen == 0) return part;
  // One lease for the call: K key-contiguous, then every query chunk's
  // scratch (partial_rows).
  const std::int64_t kc = k.cols();
  const std::int64_t stride = round_up(seen, kKeyPad);
  const std::int64_t chunk_scratch =
      round_up(kc * kRowBlock + stride * kRowBlock / 2, 8);
  WorkspaceLease<double> lease(
      kc * stride + util::chunk_count(0, s, kForwardGrain) * chunk_scratch);
  transpose_keys(k.data(), kc, seen, stride, lease.data());
  parallel_chunks<partial_rows, partial_rows_narrow>(
      0, s, kForwardGrain,
      PartialRows{q, v, lease.data(), stride, lease.data() + kc * stride,
                  chunk_scratch, q_offset - k_offset + 1, k.rows(), scale,
                  part});
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
    // independent combine. Everything the chunk bodies share lives in one
    // lease from the CALLER's workspace: the chunk's K and V
    // key-contiguous, which the score and dP blocks read, every query
    // chunk's scratch (streamed_bwd_rows), then the slabs, which workers
    // zero (each its own, disjoint) before accumulating into them.
    const std::int64_t n_qchunks = util::chunk_count(0, s, kQueryGrain);
    const std::int64_t stride = round_up(kv, kKeyPad);
    const std::int64_t chunk_scratch = round_up((kc + vc) * kRowBlock, 8);
    const std::int64_t keys = (kc + vc) * stride + n_qchunks * chunk_scratch;
    const std::int64_t slab_floats = n_qchunks * kv * (kc + vc);
    WorkspaceLease<double> lease(keys + (slab_floats + 1) / 2);
    double* kt = lease.data();
    double* vt = kt + kc * stride;
    transpose_keys(chunk.k.data(), kc, kv, stride, kt);
    transpose_keys(chunk.v.data(), vc, kv, stride, vt);
    float* dk_partials = reinterpret_cast<float*>(lease.data() + keys);
    float* dv_partials = dk_partials + n_qchunks * kv * kc;
    parallel_chunks<streamed_bwd_rows, streamed_bwd_rows_narrow>(
        0, s, kQueryGrain,
        BwdRows{q, chunk, kt, vt, stride, vt + vc * stride, chunk_scratch,
                q_offset, scale, fwd, dout, D.data(), dq, dk_partials,
                dv_partials});
    detail::run_chunk<fold_slabs>(
        SlabFold{dk_partials, dv_partials, dk.data(), dv.data(), kv * kc,
                 kv * vc},
        0, n_qchunks);
  }
}

}  // namespace slim::num

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
// owns its own online-softmax state) so chunks write disjoint rows, and
// the grain changes no bit. Each chunk holds a scratch region in the
// call's lease (partial_rows) as long as the visible keys.
constexpr std::int64_t kForwardGrain = 32;
// Keys per block of the backward: each block's K and V copies are shared
// by the group's heads, and a query chunk's dk/dv slab spans one block.
// Any size gives the same bits.
constexpr std::int64_t kKeyBlock = 256;
// Keys per chunk of the slab fold. Keys fold independently.
constexpr std::int64_t kFoldGrain = 32;

// The register block of the forward and backward bodies: kRowBlock query
// rows side by side in the lanes of one f64x4 / f32x4, against Tile::kKeys
// keys at a time (one f64x4 of scores per key), with output columns in
// blocks of Tile::V. Each path's tile fills eight of its sixteen vector
// registers with scores: eight ymm on AVX2, four keys' worth of xmm pairs
// on the baseline. The K and V copies hold keys in tiles of kKeyPad.
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
static_assert(kKeyBlock % kKeyPad == 0);
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

/// Where key j's column c of n sits in a key-tiled double copy: tiles of
/// kKeyPad keys, each holding its keys' n columns side by side, kKeyPad
/// doubles per column. A key block reads one contiguous tile, whatever the
/// key count (a column stride of a power-of-two key count would put a
/// block's columns in one cache set).
constexpr std::int64_t tiled(std::int64_t j, std::int64_t c, std::int64_t n) {
  return j / kKeyPad * n * kKeyPad + c * kKeyPad + j % kKeyPad;
}

/// Key-tiled double copy of `count` rows of a row-major matrix (rows `ld`
/// floats apart, first `n` columns) as keys [key0, key0 + count).
void tile_keys(const float* rows, std::int64_t ld, std::int64_t n,
               std::int64_t count, std::int64_t key0, double* tiles) {
  for (std::int64_t r = 0; r < count; ++r) {
    for (std::int64_t c = 0; c < n; ++c) {
      tiles[tiled(key0 + r, c, n)] = rows[r * ld + c];
    }
  }
}

/// Zeroes keys [count, round_up(count, kKeyPad)) of a key-tiled copy with
/// n columns, so whole key blocks read finite values.
void zero_pad_keys(double* tiles, std::int64_t n, std::int64_t count) {
  for (std::int64_t j = count; j % kKeyPad != 0; ++j) {
    for (std::int64_t c = 0; c < n; ++c) tiles[tiled(j, c, n)] = 0.0;
  }
}

/// The keys of the group's cache that its last query row sees, the most
/// any row sees, checking that the cache's chunks are contiguous in
/// position: key j of the cache is at global position cache[0].pos + j.
std::int64_t seen_keys(const HeadGroup& g) {
  std::int64_t keys = 0;
  for (const KvRows& c : g.cache) {
    SLIM_CHECK(c.pos == g.cache.front().pos + keys,
               "KV cache chunks must be contiguous in position");
    keys += c.rows;
  }
  if (keys == 0) return 0;
  return std::clamp<std::int64_t>(g.q_offset + g.rows - g.cache.front().pos,
                                  0, keys);
}

/// Calls fn(chunk, r0, r1, key) for each cached chunk holding some of the
/// cache's keys [k0, k1): its rows [r0, r1), row r0 being key `key`.
template <class Fn>
void for_cache_rows(std::span<const KvRows> cache, std::int64_t k0,
                    std::int64_t k1, const Fn& fn) {
  std::int64_t key = 0;
  for (const KvRows& c : cache) {
    if (key >= k1) break;
    const std::int64_t r0 = std::max<std::int64_t>(k0 - key, 0);
    const std::int64_t r1 = std::min(k1 - key, c.rows);
    if (r0 < r1) fn(c, r0, r1, key + r0);
    key += c.rows;
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

/// xt[c * kRowBlock + r] = row `b.row[r]` of x (rows `ld` floats apart),
/// column c < n, as double: the block's rows side by side, one f64x4 per
/// column.
[[gnu::always_inline]] inline void gather_rows(const float* x, std::int64_t ld,
                                               std::int64_t n,
                                               const RowBlock& b, double* xt) {
  for (std::int64_t c = 0; c < n; ++c) {
    for (std::int64_t r = 0; r < kRowBlock; ++r) {
      xt[c * kRowBlock + r] = x[b.row[r] * ld + c];
    }
  }
}

/// dots[t], lane r = the dot of the block's row r (xt, n columns) with key
/// key0 + t of `tiles` (key-tiled, n columns): one double sum per (row,
/// key) in ascending column order, the bits of one serial loop. A block's
/// rows share each column's key loads, and its keys lie in one tile.
template <std::int64_t kKeys>
[[gnu::always_inline]] inline void dot_block(const double* xt,
                                             const double* tiles,
                                             std::int64_t n,
                                             std::int64_t key0,
                                             f64x4 (&dots)[kKeys]) {
  static_assert(kKeyPad % kKeys == 0);
  for (std::int64_t t = 0; t < kKeys; ++t) dots[t] = f64x4{};
  const double* tile = tiles + tiled(key0, 0, n);
  for (std::int64_t c = 0; c < n; ++c) {
    const f64x4 x = load<f64x4>(xt + c * kRowBlock);
    const double* col = tile + c * kKeyPad;
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

// One head's forward over every visible key: q rows `q_ld` floats apart,
// K key-tiled, V rows contiguous; out rows `out_ld` floats apart.
struct PartialRows {
  const float* q;
  std::int64_t q_ld;
  std::int64_t kc;   // q and K columns
  const double* kt;  // K key-tiled
  const float* v;    // V rows, d floats each
  std::int64_t d;
  double* scratch;   // per query chunk: chunk_scratch doubles
  std::int64_t chunk_scratch;
  std::int64_t first_visible;  // keys row 0 sees: q_offset - k_offset + 1
  std::int64_t kv;
  float scale;
  float* out;
  std::int64_t out_ld;
  float* m;
  float* l;
};

template <class Tile>
[[gnu::always_inline]] inline void partial_rows_tiled(const PartialRows& g,
                                                      std::int64_t i0,
                                                      std::int64_t i1) {
  constexpr std::int64_t kKeys = Tile::kKeys;
  const std::int64_t kc = g.kc, d = g.d;
  // The chunk's scratch: its row block's q columns, then the block's
  // scores / weights key-major (kRowBlock lanes per key). Every slot a
  // block reads it writes first.
  double* qt = g.scratch + i0 / kForwardGrain * g.chunk_scratch;
  float* w = reinterpret_cast<float*>(qt + kc * kRowBlock);
  for (std::int64_t i = i0; i < i1; i += kRowBlock) {
    const RowBlock b = row_block(i, i1, [&](std::int64_t row) {
      return std::clamp<std::int64_t>(g.first_visible + row, 0, g.kv);
    });
    if (b.hi == 0) continue;
    gather_rows(g.q, g.q_ld, kc, b, qt);
    // Scores, and each row's max folded over its visible keys in ascending
    // key order.
    const std::int64_t keys = round_up(b.hi, kKeys);
    f32x4 m = f32x4{} + kNegInf;
    for (std::int64_t t0 = 0; t0 < keys; t0 += kKeys) {
      f64x4 dots[kKeys];
      dot_block(qt, g.kt, kc, t0, dots);
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
        const V vj = load<V>(g.v + j * d + c0);
        for (std::int64_t r = 0; r < kRowBlock; ++r) {
          if (!kMasked || j < b.vis[r]) acc[r] += w[j * kRowBlock + r] * vj;
        }
      });
      for (std::int64_t r = 0; r < kRowBlock; ++r) {
        if (b.vis[r] > 0) {
          store(g.out + b.row[r] * g.out_ld + c0, acc[r] * inv_l[r]);
        }
      }
    });
    for (std::int64_t r = 0; r < kRowBlock; ++r) {
      if (b.vis[r] == 0) continue;
      g.m[b.row[r]] = m[r];
      g.l[b.row[r]] = lf[r];
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
  const float* dout;
  std::int64_t dout_ld;
  const float* out;
  std::int64_t out_ld;
  std::int64_t d;
  float* D;
};

SLIM_CHUNK_BODY void output_rowsums(const RowSums& g, std::int64_t i0,
                                    std::int64_t i1) {
  for (std::int64_t i = i0; i < i1; ++i) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < g.d; ++c) {
      sum += static_cast<double>(g.dout[i * g.dout_ld + c]) *
             g.out[i * g.out_ld + c];
    }
    g.D[i] = static_cast<float>(sum);
  }
}

/// Keys of a block that the query chunk ending at row i1 sees at most (its
/// last row's): the part of the chunk's slab that is zeroed and folded.
std::int64_t chunk_keys(std::int64_t first_visible, std::int64_t i1,
                        std::int64_t keys) {
  return std::clamp<std::int64_t>(first_visible + i1 - 1, 0, keys);
}

// One head's backward against one key block for query rows [i0, i1): dq
// rows directly, dk/dv into the query chunk's own partial slab. The block's
// K and V are key-tiled (kt, vt) and K's rows are contiguous too (k).
struct BwdRows {
  const float* q;
  std::int64_t q_ld;
  const float* dout;
  std::int64_t dout_ld;
  float* dq;
  std::int64_t dq_ld;
  const float* m;  // the forward's statistics and D, per query row
  const float* l;
  const float* D;
  std::int64_t hd;
  const float* k;
  const double* kt;
  const double* vt;
  std::int64_t keys;           // in the block
  std::int64_t first_visible;  // keys of the block row 0 sees
  double* scratch;             // per query chunk: chunk_scratch doubles
  std::int64_t chunk_scratch;
  float scale;
  float* dk_slabs;  // per query chunk: `slab` floats of dk, and of dv
  float* dv_slabs;
  std::int64_t slab;
};

template <class Tile>
[[gnu::always_inline]] inline void streamed_bwd_rows_tiled(const BwdRows& g,
                                                           std::int64_t i0,
                                                           std::int64_t i1) {
  constexpr std::int64_t kKeys = Tile::kKeys;
  const std::int64_t hd = g.hd;
  const std::int64_t qc = i0 / kQueryGrain;
  // The slab rows of the keys the chunk's rows see start from zero.
  float* dkp = g.dk_slabs + qc * g.slab;
  float* dvp = g.dv_slabs + qc * g.slab;
  const std::int64_t seen = chunk_keys(g.first_visible, i1, g.keys);
  std::memset(dkp, 0, static_cast<std::size_t>(seen * hd) * sizeof(float));
  std::memset(dvp, 0, static_cast<std::size_t>(seen * hd) * sizeof(float));
  // The chunk's scratch: its row block's q columns, then its dout columns.
  double* qt = g.scratch + qc * g.chunk_scratch;
  double* dt = qt + hd * kRowBlock;
  for (std::int64_t i = i0; i < i1; i += kRowBlock) {
    const RowBlock b = row_block(i, i1, [&](std::int64_t row) {
      if (g.l[row] == 0.0f) return std::int64_t{0};
      return std::clamp<std::int64_t>(g.first_visible + row, 0, g.keys);
    });
    if (b.hi == 0) continue;
    gather_rows(g.q, g.q_ld, hd, b, qt);
    gather_rows(g.dout, g.dout_ld, hd, b, dt);
    f32x4 m, inv_l, D;
    for (std::int64_t r = 0; r < kRowBlock; ++r) {
      m[r] = g.m[b.row[r]];
      inv_l[r] = 1.0f / g.l[b.row[r]];
      D[r] = g.D[b.row[r]];
    }
    for (std::int64_t t0 = 0; t0 < b.hi; t0 += kKeys) {
      // p and dS of the block's rows against keys [t0, t0 + kKeys),
      // key-major (lane r of key t at t * kRowBlock + r), in whole exp
      // blocks; a lane's keys past its visible count are never read.
      float p[kKeys * kRowBlock], ds[kKeys * kRowBlock];
      f64x4 dots[kKeys];
      dot_block(qt, g.kt, hd, t0, dots);
      for (std::int64_t t = 0; t < kKeys; ++t) {
        store(p + t * kRowBlock,
              __builtin_convertvector(dots[t], f32x4) * g.scale);
      }
      exp_lanes(p, m, kKeys * kRowBlock);
      dot_block(dt, g.vt, hd, t0, dots);
      for (std::int64_t t = 0; t < kKeys; ++t) {
        const f32x4 pt = load<f32x4>(p + t * kRowBlock) * inv_l;
        store(p + t * kRowBlock, pt);
        store(ds + t * kRowBlock,
              pt * (__builtin_convertvector(dots[t], f32x4) - D) * g.scale);
      }
      const std::int64_t t1 = std::min(t0 + kKeys, b.hi);
      // dq rows stay in registers across the keys; each dk slab row takes
      // the block's rows in ascending order, one load and one store per key.
      for_column_blocks<typename Tile::V>(hd, [&]<class V>(std::int64_t c0)
                                                  __attribute__((always_inline)) {
        V dq[kRowBlock], q[kRowBlock];
        for (std::int64_t r = 0; r < kRowBlock; ++r) {
          q[r] = load<V>(g.q + b.row[r] * g.q_ld + c0);
          dq[r] = b.vis[r] > 0 ? load<V>(g.dq + b.row[r] * g.dq_ld + c0)
                               : V{};
        }
        for_keys(b, t0, t1, [&]<bool kMasked>(std::int64_t j)
                                __attribute__((always_inline)) {
          const float* sj = ds + (j - t0) * kRowBlock;
          const V kj = load<V>(g.k + j * hd + c0);
          V dk = load<V>(dkp + j * hd + c0);
          for (std::int64_t r = 0; r < kRowBlock; ++r) {
            if (kMasked && j >= b.vis[r]) continue;
            dq[r] += sj[r] * kj;
            dk += sj[r] * q[r];
          }
          store(dkp + j * hd + c0, dk);
        });
        for (std::int64_t r = 0; r < kRowBlock; ++r) {
          if (b.vis[r] > 0) store(g.dq + b.row[r] * g.dq_ld + c0, dq[r]);
        }
      });
      for_column_blocks<typename Tile::V>(hd, [&]<class V>(std::int64_t c0)
                                                  __attribute__((always_inline)) {
        V dout[kRowBlock];
        for (std::int64_t r = 0; r < kRowBlock; ++r) {
          dout[r] = load<V>(g.dout + b.row[r] * g.dout_ld + c0);
        }
        for_keys(b, t0, t1, [&]<bool kMasked>(std::int64_t j)
                                __attribute__((always_inline)) {
          const float* pj = p + (j - t0) * kRowBlock;
          V dv = load<V>(dvp + j * hd + c0);
          for (std::int64_t r = 0; r < kRowBlock; ++r) {
            if (kMasked && j >= b.vis[r]) continue;
            dv += pj[r] * dout[r];
          }
          store(dvp + j * hd + c0, dv);
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

// One head's dk/dv for keys [j0, j1) of a block: zeroed, then every query
// chunk's slab rows that the chunk sees, in ascending chunk order.
struct SlabFold {
  const float* dk_slabs;
  const float* dv_slabs;
  std::int64_t slab;
  std::int64_t hd;
  std::int64_t rows;           // query rows
  std::int64_t first_visible;  // keys of the block row 0 sees
  float* dk;
  float* dv;
};

SLIM_CHUNK_BODY void fold_slabs(const SlabFold& g, std::int64_t j0,
                                std::int64_t j1) {
  std::fill(g.dk + j0 * g.hd, g.dk + j1 * g.hd, 0.0f);
  std::fill(g.dv + j0 * g.hd, g.dv + j1 * g.hd, 0.0f);
  for (std::int64_t i0 = 0; i0 < g.rows; i0 += kQueryGrain) {
    const std::int64_t i1 = std::min(i0 + kQueryGrain, g.rows);
    const std::int64_t e1 = chunk_keys(g.first_visible, i1, j1) * g.hd;
    const float* dkp = g.dk_slabs + i0 / kQueryGrain * g.slab;
    const float* dvp = g.dv_slabs + i0 / kQueryGrain * g.slab;
    for (std::int64_t e = j0 * g.hd; e < e1; ++e) g.dk[e] += dkp[e];
    for (std::int64_t e = j0 * g.hd; e < e1; ++e) g.dv[e] += dvp[e];
  }
}

}  // namespace

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

void attn_group_fwd(const HeadGroup& g, float* out, std::int64_t out_ld,
                    float* m, float* l) {
  const std::int64_t s = g.rows, hd = g.head_dim;
  std::fill_n(m, g.heads * s, kNegInf);
  std::fill_n(l, g.heads * s, 0.0f);
  const std::int64_t seen = seen_keys(g);
  if (seen == 0) return;
  const std::int64_t pos0 = g.cache.front().pos;
  // One lease for the group: the visible keys of every cached chunk, K
  // key-tiled and V's rows, read once from the cache and shared by the
  // group's heads, then every query chunk's scratch (partial_rows).
  const std::int64_t padded = round_up(seen, kKeyPad);
  const std::int64_t v_doubles = (seen * hd + 1) / 2;
  const std::int64_t chunk_scratch =
      round_up(hd * kRowBlock + padded * kRowBlock / 2, 8);
  WorkspaceLease<double> lease(hd * padded + v_doubles +
                               util::chunk_count(0, s, kForwardGrain) *
                                   chunk_scratch);
  double* kt = lease.data();
  float* v = reinterpret_cast<float*>(kt + hd * padded);
  double* scratch = kt + hd * padded + v_doubles;
  for_cache_rows(g.cache, 0, seen,
                 [&](const KvRows& c, std::int64_t r0, std::int64_t r1,
                     std::int64_t key) {
                   const std::int64_t at = r0 * g.kv_ld + g.kv_col;
                   tile_keys(c.k + at, g.kv_ld, hd, r1 - r0, key, kt);
                   for (std::int64_t r = 0; r < r1 - r0; ++r) {
                     std::copy_n(c.v + at + r * g.kv_ld, hd,
                                 v + (key + r) * hd);
                   }
                 });
  zero_pad_keys(kt, hd, seen);
  for (std::int64_t h = 0; h < g.heads; ++h) {
    parallel_chunks<partial_rows, partial_rows_narrow>(
        0, s, kForwardGrain,
        PartialRows{g.q + h * hd, g.q_ld, hd, kt, v, hd, scratch,
                    chunk_scratch, g.q_offset - pos0 + 1, seen, g.scale,
                    out + h * hd, out_ld, m + h * s, l + h * s});
  }
}

void attn_group_bwd(const HeadGroup& g, const float* out, std::int64_t out_ld,
                    const float* m, const float* l, const float* dout,
                    std::int64_t dout_ld, float* dq, std::int64_t dq_ld) {
  const std::int64_t s = g.rows, hd = g.head_dim;
  const std::int64_t seen = seen_keys(g);
  if (seen == 0) return;
  const std::int64_t pos0 = g.cache.front().pos;
  // One lease for the group, from the CALLER's workspace. Doubles: a key
  // block's K and V key-tiled, which the score and dP blocks read,
  // and every query chunk's scratch (streamed_bwd_rows). Floats: D for
  // every head, the block's K rows, every query chunk's dk and dv slabs
  // (one block long; workers zero their own before accumulating), and one
  // head's folded dk and dv.
  const std::int64_t n_qchunks = util::chunk_count(0, s, kQueryGrain);
  const std::int64_t block = std::min(kKeyBlock, round_up(seen, kKeyPad));
  const std::int64_t slab = block * hd;
  const std::int64_t chunk_scratch = round_up(2 * hd * kRowBlock, 8);
  const std::int64_t doubles = 2 * hd * block + n_qchunks * chunk_scratch;
  const std::int64_t floats =
      g.heads * s + slab + 2 * n_qchunks * slab + 2 * slab;
  WorkspaceLease<double> lease(doubles + (floats + 1) / 2);
  double* kt = lease.data();
  double* vt = kt + hd * block;
  double* scratch = vt + hd * block;
  float* D = reinterpret_cast<float*>(lease.data() + doubles);
  float* k = D + g.heads * s;
  float* dk_slabs = k + slab;
  float* dv_slabs = dk_slabs + n_qchunks * slab;
  float* dk = dv_slabs + n_qchunks * slab;
  float* dv = dk + slab;

  // D_i = dout_i . out_i — the flash-attention rowsum shortcut that spares
  // a second pass over the keys.
  for (std::int64_t h = 0; h < g.heads; ++h) {
    parallel_chunks<output_rowsums>(
        0, s, kQueryGrain,
        RowSums{dout + h * hd, dout_ld, out + h * hd, out_ld, hd, D + h * s});
  }
  for (std::int64_t b0 = 0; b0 < seen; b0 += kKeyBlock) {
    const std::int64_t b1 = std::min(b0 + kKeyBlock, seen);
    for_cache_rows(g.cache, b0, b1,
                   [&](const KvRows& c, std::int64_t r0, std::int64_t r1,
                       std::int64_t key) {
                     const std::int64_t at = r0 * g.kv_ld + g.kv_col;
                     const std::int64_t j = key - b0;
                     tile_keys(c.k + at, g.kv_ld, hd, r1 - r0, j, kt);
                     tile_keys(c.v + at, g.kv_ld, hd, r1 - r0, j, vt);
                     for (std::int64_t r = 0; r < r1 - r0; ++r) {
                       std::copy_n(c.k + at + r * g.kv_ld, hd,
                                   k + (j + r) * hd);
                     }
                   });
    zero_pad_keys(kt, hd, b1 - b0);
    zero_pad_keys(vt, hd, b1 - b0);
    const std::int64_t first_visible = g.q_offset - (pos0 + b0) + 1;
    for (std::int64_t h = 0; h < g.heads; ++h) {
      // dq rows are disjoint across query chunks; dk/dv reduce over query
      // rows, so each query chunk accumulates into its own slab and the
      // slabs fold in ascending chunk order — the thread-count
      // independent combine.
      parallel_chunks<streamed_bwd_rows, streamed_bwd_rows_narrow>(
          0, s, kQueryGrain,
          BwdRows{g.q + h * hd, g.q_ld, dout + h * hd, dout_ld, dq + h * hd,
                  dq_ld, m + h * s, l + h * s, D + h * s, hd, k, kt, vt,
                  b1 - b0, first_visible, scratch, chunk_scratch,
                  g.scale, dk_slabs, dv_slabs, slab});
      parallel_chunks<fold_slabs>(
          0, b1 - b0, kFoldGrain,
          SlabFold{dk_slabs, dv_slabs, slab, hd, s, first_visible, dk, dv});
      // The head's gradient joins the cache's after the previous head's.
      for_cache_rows(g.cache, b0, b1,
                     [&](const KvRows& c, std::int64_t r0, std::int64_t r1,
                         std::int64_t key) {
                       for (std::int64_t r = r0; r < r1; ++r) {
                         const std::int64_t at = r * g.kv_ld + g.kv_col;
                         const std::int64_t e = (key - b0 + r - r0) * hd;
                         for (std::int64_t x = 0; x < hd; ++x) {
                           c.dk[at + x] += dk[e + x];
                           c.dv[at + x] += dv[e + x];
                         }
                       }
                     });
    }
  }
}

namespace {

/// One head's chunks as the cache-wide pass reads them, with their
/// gradient buffers when given.
std::vector<KvRows> chunk_rows(const Tensor& q,
                               const std::vector<KvChunk>& chunks,
                               std::vector<Tensor>* dk_chunks,
                               std::vector<Tensor>* dv_chunks) {
  std::vector<KvRows> rows;
  rows.reserve(chunks.size());
  for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
    const KvChunk& chunk = chunks[ci];
    SLIM_CHECK(chunk.k.cols() == q.cols() && chunk.v.cols() == q.cols() &&
                   chunk.k.rows() == chunk.v.rows(),
               "chunk head-dim mismatch");
    KvRows r{chunk.k.data(), chunk.v.data(), nullptr, nullptr,
             chunk.k.rows(), chunk.pos};
    if (dk_chunks != nullptr) {
      Tensor& dk = (*dk_chunks)[ci];
      Tensor& dv = (*dv_chunks)[ci];
      SLIM_CHECK(dk.rows() == chunk.k.rows() && dv.rows() == chunk.v.rows() &&
                     dk.cols() == q.cols() && dv.cols() == q.cols(),
                 "chunk gradient shape mismatch");
      r.dk = dk.data();
      r.dv = dv.data();
    }
    rows.push_back(r);
  }
  return rows;
}

HeadGroup single_head(const Tensor& q, std::span<const KvRows> cache,
                      std::int64_t q_offset, float scale) {
  const std::int64_t hd = q.cols();
  return HeadGroup{cache, hd, 0, q.data(), hd, q.rows(), q_offset, 1, hd,
                   scale};
}

/// attn_group_fwd for one head over `cache`, as an AttnPartial.
AttnPartial single_head_fwd(const Tensor& q, std::span<const KvRows> cache,
                            std::int64_t q_offset, float scale) {
  AttnPartial part;
  part.out = Tensor(q.rows(), q.cols());
  part.m.resize(static_cast<std::size_t>(q.rows()));
  part.l.resize(static_cast<std::size_t>(q.rows()));
  attn_group_fwd(single_head(q, cache, q_offset, scale), part.out.data(),
                 q.cols(), part.m.data(), part.l.data());
  return part;
}

}  // namespace

AttnPartial attn_partial(const Tensor& q, const Tensor& k, const Tensor& v,
                         std::int64_t q_offset, std::int64_t k_offset,
                         float scale) {
  SLIM_CHECK(k.cols() == q.cols() && v.cols() == q.cols(),
             "q/k/v head-dim mismatch");
  SLIM_CHECK(k.rows() == v.rows(), "k/v length mismatch");
  const KvRows chunk{k.data(), v.data(), nullptr, nullptr, k.rows(), k_offset};
  return single_head_fwd(q, {&chunk, 1}, q_offset, scale);
}

AttnPartial attn_streamed(const Tensor& q, const std::vector<KvChunk>& chunks,
                          std::int64_t q_offset, float scale) {
  return single_head_fwd(q, chunk_rows(q, chunks, nullptr, nullptr), q_offset,
                         scale);
}

void attn_streamed_bwd(const Tensor& q, const std::vector<KvChunk>& chunks,
                       std::int64_t q_offset, float scale,
                       const AttnPartial& fwd, const Tensor& dout, Tensor& dq,
                       std::vector<Tensor>& dk_chunks,
                       std::vector<Tensor>& dv_chunks) {
  SLIM_CHECK(dk_chunks.size() == chunks.size() &&
                 dv_chunks.size() == chunks.size(),
             "gradient chunk buffers must match chunk count");
  const std::int64_t s = q.rows(), hd = q.cols();
  SLIM_CHECK(fwd.out.rows() == s && fwd.out.cols() == hd &&
                 dout.rows() == s && dout.cols() == hd &&
                 fwd.m.size() == static_cast<std::size_t>(s) &&
                 fwd.l.size() == static_cast<std::size_t>(s),
             "forward statistics shape mismatch");
  const std::vector<KvRows> cache =
      chunk_rows(q, chunks, &dk_chunks, &dv_chunks);
  dq = Tensor(s, hd);
  attn_group_bwd(single_head(q, cache, q_offset, scale), fwd.out.data(), hd,
                 fwd.m.data(), fwd.l.data(), dout.data(), hd, dq.data(), hd);
}

}  // namespace slim::num

// Tests for the attention substrate: the online-softmax merge identity
// (the mathematical core of both the chunked KV cache and context
// exchange), streamed forward/backward equivalence, bit-exactness against
// the kernels' scalar loops and finite-difference gradient checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/numerics/attention.hpp"
#include "src/numerics/exp.hpp"
#include "src/util/rng.hpp"
#include "tests/isa_paths.hpp"

namespace slim::num {
namespace {

constexpr float kScale = 0.35f;

struct SplitCase {
  std::int64_t q_len;
  std::int64_t kv_len;
  std::int64_t q_offset;
  std::int64_t split;
};

class MergeTest : public ::testing::TestWithParam<SplitCase> {};

// merge(attn(Q, KV[0:s]), attn(Q, KV[s:])) == attn(Q, KV) — exactly the
// identity that lets a device compute part of its attention remotely
// (context exchange) or chunk-by-chunk (KV cache).
TEST_P(MergeTest, MergeEqualsMonolithic) {
  const SplitCase c = GetParam();
  Rng rng(c.q_len * 131 + c.kv_len * 7 + c.split);
  const Tensor q = Tensor::randn(c.q_len, 16, rng, 1.0f);
  const Tensor k = Tensor::randn(c.kv_len, 16, rng, 1.0f);
  const Tensor v = Tensor::randn(c.kv_len, 16, rng, 1.0f);

  const AttnPartial full = attn_partial(q, k, v, c.q_offset, 0, kScale);
  const AttnPartial a = attn_partial(q, k.slice_rows(0, c.split),
                                     v.slice_rows(0, c.split), c.q_offset, 0,
                                     kScale);
  const AttnPartial b = attn_partial(q, k.slice_rows(c.split, c.kv_len),
                                     v.slice_rows(c.split, c.kv_len),
                                     c.q_offset, c.split, kScale);
  const AttnPartial merged = attn_merge(a, b);
  EXPECT_LT(merged.out.max_abs_diff(full.out), 2e-6f);
  for (std::int64_t i = 0; i < c.q_len; ++i) {
    const std::size_t si = static_cast<std::size_t>(i);
    if (full.l[si] == 0.0f) continue;
    // Global statistics agree too: l relative to the same max.
    const float lm = merged.l[si] * std::exp(merged.m[si] - full.m[si]);
    EXPECT_NEAR(lm / full.l[si], 1.0f, 1e-4f);
  }
}

TEST_P(MergeTest, MergeIsCommutative) {
  const SplitCase c = GetParam();
  Rng rng(c.q_len * 17 + c.kv_len + c.split * 3);
  const Tensor q = Tensor::randn(c.q_len, 8, rng, 1.0f);
  const Tensor k = Tensor::randn(c.kv_len, 8, rng, 1.0f);
  const Tensor v = Tensor::randn(c.kv_len, 8, rng, 1.0f);
  const AttnPartial a = attn_partial(q, k.slice_rows(0, c.split),
                                     v.slice_rows(0, c.split), c.q_offset, 0,
                                     kScale);
  const AttnPartial b = attn_partial(q, k.slice_rows(c.split, c.kv_len),
                                     v.slice_rows(c.split, c.kv_len),
                                     c.q_offset, c.split, kScale);
  const AttnPartial ab = attn_merge(a, b);
  const AttnPartial ba = attn_merge(b, a);
  EXPECT_LT(ab.out.max_abs_diff(ba.out), 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MergeTest,
    ::testing::Values(SplitCase{4, 8, 4, 3}, SplitCase{8, 8, 0, 4},
                      SplitCase{1, 16, 15, 8}, SplitCase{6, 12, 6, 1},
                      SplitCase{6, 12, 6, 11}, SplitCase{5, 20, 15, 10},
                      SplitCase{3, 9, 8, 5}));

TEST(MergeTest, ThreeWayAssociative) {
  Rng rng(99);
  const Tensor q = Tensor::randn(5, 8, rng, 1.0f);
  const Tensor k = Tensor::randn(12, 8, rng, 1.0f);
  const Tensor v = Tensor::randn(12, 8, rng, 1.0f);
  auto part = [&](std::int64_t lo, std::int64_t hi) {
    return attn_partial(q, k.slice_rows(lo, hi), v.slice_rows(lo, hi), 11, lo,
                        kScale);
  };
  const AttnPartial left =
      attn_merge(attn_merge(part(0, 4), part(4, 8)), part(8, 12));
  const AttnPartial right =
      attn_merge(part(0, 4), attn_merge(part(4, 8), part(8, 12)));
  EXPECT_LT(left.out.max_abs_diff(right.out), 1e-6f);
}

TEST(CausalMaskTest, FullyMaskedRowsHaveZeroNormalizer) {
  Rng rng(5);
  const Tensor q = Tensor::randn(4, 8, rng, 1.0f);
  const Tensor k = Tensor::randn(4, 8, rng, 1.0f);
  const Tensor v = Tensor::randn(4, 8, rng, 1.0f);
  // Keys start at position 10 but queries sit at 0..3: nothing visible.
  const AttnPartial part = attn_partial(q, k, v, 0, 10, kScale);
  for (float l : part.l) EXPECT_EQ(l, 0.0f);
  EXPECT_FLOAT_EQ(part.out.l2norm(), 0.0f);
}

TEST(CausalMaskTest, DiagonalVisibility) {
  Rng rng(6);
  const Tensor q = Tensor::randn(3, 4, rng, 1.0f);
  const Tensor k = Tensor::randn(3, 4, rng, 1.0f);
  const Tensor v = Tensor::randn(3, 4, rng, 1.0f);
  // q_offset == k_offset: row i sees keys 0..i. Row 0 sees exactly one key
  // so its output is v[0].
  const AttnPartial part = attn_partial(q, k, v, 0, 0, kScale);
  for (std::int64_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(part.out.at(0, c), v.at(0, c), 1e-6f);
  }
}

struct StreamCase {
  std::int64_t q_len;
  std::int64_t chunks;
  std::int64_t chunk_len;
};

class StreamedTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(StreamedTest, ForwardMatchesReference) {
  const StreamCase c = GetParam();
  Rng rng(c.q_len + c.chunks * 13);
  const std::int64_t kv_len = c.chunks * c.chunk_len;
  const std::int64_t q_offset = kv_len - c.q_len;
  const Tensor q = Tensor::randn(c.q_len, 8, rng, 1.0f);
  const Tensor k = Tensor::randn(kv_len, 8, rng, 1.0f);
  const Tensor v = Tensor::randn(kv_len, 8, rng, 1.0f);
  std::vector<KvChunk> chunks;
  for (std::int64_t i = 0; i < c.chunks; ++i) {
    chunks.push_back({k.slice_rows(i * c.chunk_len, (i + 1) * c.chunk_len),
                      v.slice_rows(i * c.chunk_len, (i + 1) * c.chunk_len),
                      i * c.chunk_len});
  }
  const AttnPartial streamed = attn_streamed(q, chunks, q_offset, kScale);
  const Tensor ref = attn_reference(q, k, v, q_offset, kScale);
  EXPECT_LT(streamed.out.max_abs_diff(ref), 2e-6f);
}

TEST_P(StreamedTest, BackwardMatchesReference) {
  const StreamCase c = GetParam();
  Rng rng(c.q_len * 3 + c.chunks);
  const std::int64_t kv_len = c.chunks * c.chunk_len;
  const std::int64_t q_offset = kv_len - c.q_len;
  const Tensor q = Tensor::randn(c.q_len, 8, rng, 1.0f);
  const Tensor k = Tensor::randn(kv_len, 8, rng, 1.0f);
  const Tensor v = Tensor::randn(kv_len, 8, rng, 1.0f);
  const Tensor dout = Tensor::randn(c.q_len, 8, rng, 1.0f);

  Tensor dq_ref, dk_ref, dv_ref;
  attn_reference_bwd(q, k, v, q_offset, kScale, dout, dq_ref, dk_ref, dv_ref);

  std::vector<KvChunk> chunks;
  std::vector<Tensor> dk_chunks, dv_chunks;
  for (std::int64_t i = 0; i < c.chunks; ++i) {
    chunks.push_back({k.slice_rows(i * c.chunk_len, (i + 1) * c.chunk_len),
                      v.slice_rows(i * c.chunk_len, (i + 1) * c.chunk_len),
                      i * c.chunk_len});
    dk_chunks.emplace_back(c.chunk_len, 8);
    dv_chunks.emplace_back(c.chunk_len, 8);
  }
  const AttnPartial fwd = attn_streamed(q, chunks, q_offset, kScale);
  Tensor dq;
  attn_streamed_bwd(q, chunks, q_offset, kScale, fwd, dout, dq, dk_chunks,
                    dv_chunks);
  EXPECT_LT(dq.max_abs_diff(dq_ref), 5e-6f);
  EXPECT_LT(Tensor::vcat(dk_chunks).max_abs_diff(dk_ref), 5e-6f);
  EXPECT_LT(Tensor::vcat(dv_chunks).max_abs_diff(dv_ref), 5e-6f);
}

INSTANTIATE_TEST_SUITE_P(Sweep, StreamedTest,
                         ::testing::Values(StreamCase{4, 1, 4},
                                           StreamCase{4, 2, 4},
                                           StreamCase{4, 4, 4},
                                           StreamCase{2, 3, 5},
                                           StreamCase{8, 8, 2},
                                           StreamCase{16, 2, 8},
                                           StreamCase{24, 3, 100}));

// ---- Bit-exact oracle -------------------------------------------------------
//
// The kernels' loops in plain scalar form: one serial double dot per
// (query, key), query rows grouped 8 at a time for the dk/dv partial slabs,
// the slabs folded in ascending group order. The kernels must reproduce
// these bits exactly, however they block the work.

constexpr float kNegInf = -std::numeric_limits<float>::infinity();
constexpr std::int64_t kOracleQueryGrain = 8;

AttnPartial oracle_attn_partial(const Tensor& q, const Tensor& k,
                                const Tensor& v, std::int64_t q_offset,
                                std::int64_t k_offset, float scale) {
  const std::int64_t s = q.rows(), kv = k.rows(), d = v.cols();
  AttnPartial part;
  part.out = Tensor(s, d);
  part.m.assign(static_cast<std::size_t>(s), kNegInf);
  part.l.assign(static_cast<std::size_t>(s), 0.0f);
  std::vector<float> scores(static_cast<std::size_t>(kv));
  for (std::int64_t i = 0; i < s; ++i) {
    const std::int64_t visible =
        std::clamp<std::int64_t>(q_offset + i - k_offset + 1, 0, kv);
    if (visible == 0) continue;
    float m = kNegInf;
    for (std::int64_t j = 0; j < visible; ++j) {
      double dot = 0.0;
      for (std::int64_t c = 0; c < q.cols(); ++c) {
        dot += static_cast<double>(q.at(i, c)) * k.at(j, c);
      }
      const float sc = static_cast<float>(dot) * scale;
      scores[static_cast<std::size_t>(j)] = sc;
      m = std::max(m, sc);
    }
    double l = 0.0;
    for (std::int64_t j = 0; j < visible; ++j) {
      const float w = exp_f32(scores[static_cast<std::size_t>(j)] - m);
      l += w;
      for (std::int64_t c = 0; c < d; ++c) {
        part.out.at(i, c) += w * v.at(j, c);
      }
    }
    const float inv_l = 1.0f / static_cast<float>(l);
    for (std::int64_t c = 0; c < d; ++c) part.out.at(i, c) *= inv_l;
    part.m[static_cast<std::size_t>(i)] = m;
    part.l[static_cast<std::size_t>(i)] = static_cast<float>(l);
  }
  return part;
}

void oracle_attn_streamed_bwd(const Tensor& q,
                              const std::vector<KvChunk>& chunks,
                              std::int64_t q_offset, float scale,
                              const AttnPartial& fwd, const Tensor& dout,
                              Tensor& dq, std::vector<Tensor>& dk_chunks,
                              std::vector<Tensor>& dv_chunks) {
  const std::int64_t s = q.rows(), d = fwd.out.cols();
  dq = Tensor(q.rows(), q.cols());
  std::vector<float> D(static_cast<std::size_t>(s));
  for (std::int64_t i = 0; i < s; ++i) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < d; ++c) {
      sum += static_cast<double>(dout.at(i, c)) * fwd.out.at(i, c);
    }
    D[static_cast<std::size_t>(i)] = static_cast<float>(sum);
  }
  for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
    const KvChunk& chunk = chunks[ci];
    Tensor& dk = dk_chunks[ci];
    Tensor& dv = dv_chunks[ci];
    const std::int64_t kv = chunk.k.rows();
    const std::int64_t kc = chunk.k.cols(), vc = chunk.v.cols();
    for (std::int64_t i0 = 0; i0 < s; i0 += kOracleQueryGrain) {
      const std::int64_t i1 = std::min(s, i0 + kOracleQueryGrain);
      std::vector<float> dkp(static_cast<std::size_t>(kv * kc), 0.0f);
      std::vector<float> dvp(static_cast<std::size_t>(kv * vc), 0.0f);
      for (std::int64_t i = i0; i < i1; ++i) {
        const std::size_t si = static_cast<std::size_t>(i);
        if (fwd.l[si] == 0.0f) continue;
        const std::int64_t visible =
            std::clamp<std::int64_t>(q_offset + i - chunk.pos + 1, 0, kv);
        const float inv_l = 1.0f / fwd.l[si];
        for (std::int64_t j = 0; j < visible; ++j) {
          double dot = 0.0;
          for (std::int64_t c = 0; c < q.cols(); ++c) {
            dot += static_cast<double>(q.at(i, c)) * chunk.k.at(j, c);
          }
          const float pj =
              exp_f32(static_cast<float>(dot) * scale - fwd.m[si]) * inv_l;
          double dpj = 0.0;
          for (std::int64_t c = 0; c < d; ++c) {
            dpj += static_cast<double>(dout.at(i, c)) * chunk.v.at(j, c);
          }
          const float ds = pj * (static_cast<float>(dpj) - D[si]) * scale;
          for (std::int64_t c = 0; c < q.cols(); ++c) {
            dq.at(i, c) += ds * chunk.k.at(j, c);
            dkp[static_cast<std::size_t>(j * kc + c)] += ds * q.at(i, c);
          }
          for (std::int64_t c = 0; c < d; ++c) {
            dvp[static_cast<std::size_t>(j * vc + c)] += pj * dout.at(i, c);
          }
        }
      }
      for (std::int64_t e = 0; e < kv * kc; ++e) {
        dk.data()[e] += dkp[static_cast<std::size_t>(e)];
      }
      for (std::int64_t e = 0; e < kv * vc; ++e) {
        dv.data()[e] += dvp[static_cast<std::size_t>(e)];
      }
    }
  }
}

struct OracleCase {
  const char* name;
  std::int64_t head_dim;
  std::int64_t q_len;
  std::int64_t q_offset;
  std::int64_t k_start;  // global position of the first chunk's first key
  std::vector<std::int64_t> chunk_lens;
};

// Visible-key counts that are not multiples of any key block, chunks longer
// than a key tile, every head_dim the transformer blocks use (and one that
// leaves a column tail after its 8-wide blocks), rows with no visible key,
// chunks at nonzero offsets, chunks of 1 to 4 keys (a small training shape),
// where every exp block is mostly padding, train_long's last slice, and a
// ragged last row block.
std::vector<OracleCase> oracle_cases() {
  return {
      {"diagonal, 100 keys, head_dim 4", 4, 100, 0, 0, {100}},
      {"last slice of 1024 keys, head_dim 8", 8, 64, 960, 0, {1024}},
      {"three chunks, last fully masked, head_dim 16", 16, 40, 90, 0,
       {37, 100, 13}},
      {"first rows fully masked, head_dim 8", 8, 20, 0, 5, {9, 70}},
      {"short chunks, head_dim 16", 16, 12, 13, 0, {4, 4, 4, 4, 9}},
      {"chunks of 1 to 4 keys, head_dim 4", 4, 10, 0, 0, {1, 2, 3, 4}},
      {"two chunks, head_dim 32", 32, 24, 40, 0, {30, 35}},
      {"two chunks, head_dim 12", 12, 20, 30, 0, {17, 33}},
      {"train_long's last slice: 8 chunks of 128 keys, head_dim 16", 16, 128,
       896, 0, {128, 128, 128, 128, 128, 128, 128, 128}},
      {"dead and live rows in one row block, ragged last block, head_dim 8",
       8, 7, 0, 2, {3, 9}},
  };
}

TEST(AttentionOracleTest, PartialMatchesScalarLoopsBitForBit) {
  for_each_isa([&] {
    for (const OracleCase& c : oracle_cases()) {
      SCOPED_TRACE(c.name);
      Rng rng(static_cast<std::uint64_t>(c.q_len * 31 + c.head_dim));
      const Tensor q = Tensor::randn(c.q_len, c.head_dim, rng, 1.0f);
      std::int64_t pos = c.k_start;
      for (std::int64_t len : c.chunk_lens) {
        const Tensor k = Tensor::randn(len, c.head_dim, rng, 1.0f);
        const Tensor v = Tensor::randn(len, c.head_dim, rng, 1.0f);
        const AttnPartial got = attn_partial(q, k, v, c.q_offset, pos, kScale);
        const AttnPartial want =
            oracle_attn_partial(q, k, v, c.q_offset, pos, kScale);
        EXPECT_EQ(got.out.max_abs_diff(want.out), 0.0f) << "chunk at " << pos;
        EXPECT_EQ(got.m, want.m) << "chunk at " << pos;
        EXPECT_EQ(got.l, want.l) << "chunk at " << pos;
        pos += len;
      }
    }
  });
}

TEST(AttentionOracleTest, StreamedBackwardMatchesScalarLoopsBitForBit) {
  for_each_isa([&] {
    for (const OracleCase& c : oracle_cases()) {
      SCOPED_TRACE(c.name);
      Rng rng(static_cast<std::uint64_t>(c.q_len * 37 + c.head_dim));
      const Tensor q = Tensor::randn(c.q_len, c.head_dim, rng, 1.0f);
      const Tensor dout = Tensor::randn(c.q_len, c.head_dim, rng, 1.0f);
      std::vector<KvChunk> chunks;
      std::vector<Tensor> dk, dv, dk_want, dv_want;
      std::int64_t pos = c.k_start;
      for (std::int64_t len : c.chunk_lens) {
        chunks.push_back({Tensor::randn(len, c.head_dim, rng, 1.0f),
                          Tensor::randn(len, c.head_dim, rng, 1.0f), pos});
        dk.emplace_back(len, c.head_dim);
        dv.emplace_back(len, c.head_dim);
        pos += len;
      }
      dk_want = dk;
      dv_want = dv;
      const AttnPartial fwd = attn_streamed(q, chunks, c.q_offset, kScale);
      Tensor dq, dq_want;
      attn_streamed_bwd(q, chunks, c.q_offset, kScale, fwd, dout, dq, dk, dv);
      oracle_attn_streamed_bwd(q, chunks, c.q_offset, kScale, fwd, dout,
                               dq_want, dk_want, dv_want);
      EXPECT_EQ(dq.max_abs_diff(dq_want), 0.0f);
      for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
        EXPECT_EQ(dk[ci].max_abs_diff(dk_want[ci]), 0.0f) << "chunk " << ci;
        EXPECT_EQ(dv[ci].max_abs_diff(dv_want[ci]), 0.0f) << "chunk " << ci;
      }
    }
  });
}

// ---- One pass over the whole cache -----------------------------------------
//
// attn_streamed and attn_streamed_bwd make one pass over every visible key
// of the chunks, so how the keys are cut into chunks changes no bit. The
// backward walks the keys in fixed blocks; these cases cross two block
// boundaries (256 and 512 keys), with chunk and query-chunk boundaries off
// the block boundaries, and train_fine's shape: 64 chunks of 4 keys.

/// Chunks of the given lengths from position k_start, and the same keys and
/// values as one chunk.
struct ChunkedKv {
  std::vector<KvChunk> chunks;
  KvChunk whole;
};

ChunkedKv random_chunks(Rng& rng, std::int64_t head_dim, std::int64_t k_start,
                        const std::vector<std::int64_t>& lens) {
  ChunkedKv kv;
  std::vector<Tensor> ks, vs;
  std::int64_t pos = k_start;
  for (std::int64_t len : lens) {
    kv.chunks.push_back({Tensor::randn(len, head_dim, rng, 1.0f),
                         Tensor::randn(len, head_dim, rng, 1.0f), pos});
    ks.push_back(kv.chunks.back().k);
    vs.push_back(kv.chunks.back().v);
    pos += len;
  }
  kv.whole = {Tensor::vcat(ks), Tensor::vcat(vs), k_start};
  return kv;
}

std::vector<OracleCase> whole_cache_cases() {
  std::vector<OracleCase> cases = oracle_cases();
  cases.push_back({"40 rows against 580 keys in chunks across two key-block "
                   "boundaries, head_dim 8",
                   8, 40, 540, 0, {200, 100, 150, 130}});
  cases.push_back({"600-row diagonal across two key-block boundaries, "
                   "head_dim 4",
                   4, 600, 0, 0, {97, 203, 61, 239}});
  cases.push_back({"train_fine's last slice: 64 chunks of 4 keys, head_dim 4",
                   4, 4, 252, 0, std::vector<std::int64_t>(64, 4)});
  return cases;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(WholeCacheTest, StreamedForwardIsThePartialOverTheConcatenation) {
  for_each_isa_and_width([&] {
    for (const OracleCase& c : whole_cache_cases()) {
      SCOPED_TRACE(c.name);
      Rng rng(static_cast<std::uint64_t>(c.q_len * 41 + c.head_dim));
      const Tensor q = Tensor::randn(c.q_len, c.head_dim, rng, 1.0f);
      const ChunkedKv kv = random_chunks(rng, c.head_dim, c.k_start,
                                         c.chunk_lens);
      const AttnPartial got = attn_streamed(q, kv.chunks, c.q_offset, kScale);
      const AttnPartial want = attn_partial(q, kv.whole.k, kv.whole.v,
                                            c.q_offset, c.k_start, kScale);
      EXPECT_TRUE(same_bits(got.out, want.out));
      EXPECT_TRUE(same_bits(got.m, want.m));
      EXPECT_TRUE(same_bits(got.l, want.l));
    }
  });
}

TEST(WholeCacheTest, StreamedBackwardIsTheSameOverOneChunkAndTheOracle) {
  for_each_isa_and_width([&] {
    for (const OracleCase& c : whole_cache_cases()) {
      SCOPED_TRACE(c.name);
      Rng rng(static_cast<std::uint64_t>(c.q_len * 43 + c.head_dim));
      const Tensor q = Tensor::randn(c.q_len, c.head_dim, rng, 1.0f);
      const Tensor dout = Tensor::randn(c.q_len, c.head_dim, rng, 1.0f);
      const ChunkedKv kv = random_chunks(rng, c.head_dim, c.k_start,
                                         c.chunk_lens);
      const AttnPartial fwd = attn_streamed(q, kv.chunks, c.q_offset, kScale);
      auto zeros = [&](const std::vector<KvChunk>& chunks) {
        std::vector<Tensor> out;
        for (const KvChunk& chunk : chunks) {
          out.emplace_back(chunk.k.rows(), c.head_dim);
        }
        return out;
      };
      // Over the chunks, over one chunk, and the scalar loops over both.
      const std::vector<KvChunk> whole = {kv.whole};
      Tensor dq, dq_whole, dq_oracle, dq_oracle_whole;
      std::vector<Tensor> dk = zeros(kv.chunks), dv = zeros(kv.chunks);
      std::vector<Tensor> dk_whole = zeros(whole), dv_whole = zeros(whole);
      std::vector<Tensor> dk_oracle = dk, dv_oracle = dv;
      std::vector<Tensor> dk_oracle_whole = dk_whole,
                          dv_oracle_whole = dv_whole;
      attn_streamed_bwd(q, kv.chunks, c.q_offset, kScale, fwd, dout, dq, dk,
                        dv);
      attn_streamed_bwd(q, whole, c.q_offset, kScale, fwd, dout, dq_whole,
                        dk_whole, dv_whole);
      oracle_attn_streamed_bwd(q, kv.chunks, c.q_offset, kScale, fwd, dout,
                               dq_oracle, dk_oracle, dv_oracle);
      oracle_attn_streamed_bwd(q, whole, c.q_offset, kScale, fwd, dout,
                               dq_oracle_whole, dk_oracle_whole,
                               dv_oracle_whole);
      EXPECT_TRUE(same_bits(dq, dq_whole));
      EXPECT_TRUE(same_bits(dq, dq_oracle));
      EXPECT_TRUE(same_bits(dq, dq_oracle_whole));
      EXPECT_TRUE(same_bits(Tensor::vcat(dk), dk_whole[0]));
      EXPECT_TRUE(same_bits(Tensor::vcat(dv), dv_whole[0]));
      EXPECT_TRUE(same_bits(Tensor::vcat(dk), Tensor::vcat(dk_oracle)));
      EXPECT_TRUE(same_bits(Tensor::vcat(dv), Tensor::vcat(dv_oracle)));
      EXPECT_TRUE(same_bits(dk_whole[0], dk_oracle_whole[0]));
      EXPECT_TRUE(same_bits(dv_whole[0], dv_oracle_whole[0]));
    }
  });
}

TEST(AttentionGradCheckTest, FiniteDifferences) {
  Rng rng(31);
  const std::int64_t s = 3, kv = 5, d = 4;
  Tensor q = Tensor::randn(s, d, rng, 0.7f);
  Tensor k = Tensor::randn(kv, d, rng, 0.7f);
  Tensor v = Tensor::randn(kv, d, rng, 0.7f);
  const Tensor dout = Tensor::randn(s, d, rng, 1.0f);
  const std::int64_t q_offset = kv - s;

  Tensor dq, dk, dv;
  attn_reference_bwd(q, k, v, q_offset, kScale, dout, dq, dk, dv);

  auto loss = [&](const Tensor& qq, const Tensor& kk, const Tensor& vv) {
    const Tensor out = attn_reference(qq, kk, vv, q_offset, kScale);
    double sum = 0.0;
    for (std::int64_t i = 0; i < out.size(); ++i) {
      sum += static_cast<double>(out.data()[i]) * dout.data()[i];
    }
    return sum;
  };

  const float eps = 1e-3f;
  auto check = [&](Tensor& param, const Tensor& grad, const char* name) {
    for (std::int64_t i = 0; i < param.size(); i += 3) {
      const float orig = param.data()[i];
      param.data()[i] = orig + eps;
      const double hi = loss(q, k, v);
      param.data()[i] = orig - eps;
      const double lo = loss(q, k, v);
      param.data()[i] = orig;
      const double fd = (hi - lo) / (2.0 * eps);
      EXPECT_NEAR(fd, grad.data()[i], 5e-3)
          << name << " element " << i;
    }
  };
  check(q, dq, "dq");
  check(k, dk, "dk");
  check(v, dv, "dv");
}

}  // namespace
}  // namespace slim::num

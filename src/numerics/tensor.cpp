#include "src/numerics/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/numerics/arena.hpp"
#include "src/numerics/isa.hpp"

namespace slim::num {

namespace {

// Chunk widths for the parallel kernels. Fixed constants: chunk boundaries
// are a pure function of the iteration range (never the thread count), the
// determinism rule of src/util/thread_pool.hpp.
constexpr std::int64_t kRowGrain = 16;       // output rows per chunk
constexpr std::int64_t kFlatGrain = 1 << 14; // elements per chunk

// The matmul register tile: kTileRows rows of two V vectors of fp32
// accumulators, eight registers on either path (V = f32x8, 16 columns, on
// AVX2; V = f32x4, 8 columns, on the baseline). B is packed one k-panel of
// one tile column block at a time (at most 16 KiB, on the stack) and reused
// by every tile of a chunk's rows.
constexpr std::int64_t kTileRows = 4;
template <class V>
constexpr std::int64_t kTileCols = 2 * std::int64_t{sizeof(V) / sizeof(float)};
constexpr std::int64_t kKPanel = 256;
static_assert(kRowGrain % kTileRows == 0);

using detail::f32x4;
using detail::f32x8;
using detail::load;
using detail::parallel_chunks;
using detail::store;

// Chunk bodies (isa.hpp): each compiles once per ISA path.

struct ScaledAdd {
  float* dst;
  const float* src;
  float scale;
};

SLIM_CHUNK_BODY void scaled_add(const ScaledAdd& g, std::int64_t lo,
                                std::int64_t hi) {
  for (std::int64_t i = lo; i < hi; ++i) g.dst[i] += g.scale * g.src[i];
}

struct Transpose {
  const float* src;  // rows x cols
  float* dst;        // cols x rows
  std::int64_t rows, cols;
};

SLIM_CHUNK_BODY void transpose_rows(const Transpose& g, std::int64_t r0,
                                    std::int64_t r1) {
  // Column-outer: each column writes the chunk's rows as one contiguous run
  // of dst, and the chunk's source rows stay cached across columns. Row-outer
  // stores walk dst at a stride of `rows` floats, which at power-of-two
  // widths lands every store in the same few cache sets.
  for (std::int64_t c = 0; c < g.cols; ++c) {
    for (std::int64_t r = r0; r < r1; ++r) {
      g.dst[c * g.rows + r] = g.src[r * g.cols + c];
    }
  }
}

// C = op(A) * B for row-major B (k x n) and C (m x n). op(A) is A (m x k,
// row-major) for matmul and A^T (A k x m) for matmul_tn; the tile reads it
// through (row, k) strides, so both share one body.
struct Gemm {
  const float* a;
  const float* b;
  float* c;
  std::int64_t m, k, n;
};

/// B's rows [k0, k0 + kn), columns [j0, j0 + nj), as kn rows of
/// kTileCols<V> floats; columns past nj are zero.
template <class V>
[[gnu::always_inline]] inline void pack_panel(const Gemm& g, std::int64_t k0,
                                              std::int64_t kn, std::int64_t j0,
                                              std::int64_t nj, float* panel) {
  constexpr std::int64_t cols = kTileCols<V>, half = cols / 2;
  for (std::int64_t kk = 0; kk < kn; ++kk) {
    const float* src = g.b + (k0 + kk) * g.n + j0;
    float* dst = panel + kk * cols;
    if (nj == cols) {
      store(dst, load<V>(src));
      store(dst + half, load<V>(src + half));
    } else {
      std::int64_t j = 0;
      for (; j < nj; ++j) dst[j] = src[j];
      for (; j < cols; ++j) dst[j] = 0.0f;
    }
  }
}

/// The first nj < kTileCols<V> floats of a tile row of C, zero-padded, and
/// back.
template <class V>
[[gnu::always_inline]] inline void load_tile_row(const float* c,
                                                 std::int64_t nj, V& lo,
                                                 V& hi) {
  constexpr std::int64_t half = kTileCols<V> / 2;
  alignas(32) float row[kTileCols<V>] = {};
  std::copy_n(c, nj, row);
  lo = load<V>(row);
  hi = load<V>(row + half);
}

template <class V>
[[gnu::always_inline]] inline void store_tile_row(float* c, std::int64_t nj,
                                                  const V& lo, const V& hi) {
  constexpr std::int64_t half = kTileCols<V> / 2;
  alignas(32) float row[kTileCols<V>];
  store(row, lo);
  store(row + half, hi);
  std::copy_n(row, nj, c);
}

/// C rows [i, i + ni) x columns [j0, j0 + nj) over the k-panel [k0, k0 +
/// kn) of the packed B. Every accumulator is one output element: it starts
/// from zero on the first panel and from C's partial sum on later ones, and
/// adds a * b in ascending k. Tile rows past ni repeat row i + ni - 1 and
/// are never stored.
template <bool kTransposedA, class V>
[[gnu::always_inline]] inline void gemm_tile(const Gemm& g,
                                             const float* panel,
                                             std::int64_t i, std::int64_t ni,
                                             std::int64_t k0, std::int64_t kn,
                                             std::int64_t j0,
                                             std::int64_t nj) {
  constexpr std::int64_t cols = kTileCols<V>, half = cols / 2;
  const std::int64_t row_stride = kTransposedA ? 1 : g.k;
  const std::int64_t k_stride = kTransposedA ? g.m : 1;
  const float* a[kTileRows];
  V lo[kTileRows], hi[kTileRows];
  for (std::int64_t r = 0; r < kTileRows; ++r) {
    const std::int64_t row = i + std::min(r, ni - 1);
    a[r] = g.a + row * row_stride + k0 * k_stride;
    float* c = g.c + row * g.n + j0;
    if (k0 == 0) {
      lo[r] = hi[r] = V{};
    } else if (nj == cols) {
      lo[r] = load<V>(c);
      hi[r] = load<V>(c + half);
    } else {
      load_tile_row(c, nj, lo[r], hi[r]);
    }
  }
  for (std::int64_t kk = 0; kk < kn; ++kk) {
    const V b_lo = load<V>(panel + kk * cols);
    const V b_hi = load<V>(panel + kk * cols + half);
    for (std::int64_t r = 0; r < kTileRows; ++r) {
      const float av = a[r][kk * k_stride];
      lo[r] += av * b_lo;
      hi[r] += av * b_hi;
    }
  }
  for (std::int64_t r = 0; r < ni; ++r) {
    float* c = g.c + (i + r) * g.n + j0;
    if (nj == cols) {
      store(c, lo[r]);
      store(c + half, hi[r]);
    } else {
      store_tile_row(c, nj, lo[r], hi[r]);
    }
  }
}

template <bool kTransposedA, class V>
[[gnu::always_inline]] inline void gemm_rows(const Gemm& g, std::int64_t i0,
                                             std::int64_t i1) {
  constexpr std::int64_t cols = kTileCols<V>;
  alignas(64) float panel[kKPanel * cols];
  for (std::int64_t k0 = 0; k0 < g.k; k0 += kKPanel) {
    const std::int64_t kn = std::min(kKPanel, g.k - k0);
    for (std::int64_t j0 = 0; j0 < g.n; j0 += cols) {
      const std::int64_t nj = std::min(cols, g.n - j0);
      pack_panel<V>(g, k0, kn, j0, nj, panel);
      for (std::int64_t i = i0; i < i1; i += kTileRows) {
        gemm_tile<kTransposedA, V>(g, panel, i, std::min(kTileRows, i1 - i),
                                   k0, kn, j0, nj);
      }
    }
  }
}

// matmul_rows and matmul_tn_rows run on the AVX2 path, the _narrow bodies
// on the baseline one (isa.hpp's active_path).

SLIM_CHUNK_BODY void matmul_rows(const Gemm& g, std::int64_t i0,
                                 std::int64_t i1) {
  gemm_rows<false, f32x8>(g, i0, i1);
}

SLIM_CHUNK_BODY void matmul_rows_narrow(const Gemm& g, std::int64_t i0,
                                        std::int64_t i1) {
  gemm_rows<false, f32x4>(g, i0, i1);
}

SLIM_CHUNK_BODY void matmul_tn_rows(const Gemm& g, std::int64_t i0,
                                    std::int64_t i1) {
  gemm_rows<true, f32x8>(g, i0, i1);
}

SLIM_CHUNK_BODY void matmul_tn_rows_narrow(const Gemm& g, std::int64_t i0,
                                           std::int64_t i1) {
  gemm_rows<true, f32x4>(g, i0, i1);
}

}  // namespace

Tensor::Tensor(std::int64_t rows, std::int64_t cols, bool zero_fill)
    : rows_(rows), cols_(cols) {
  SLIM_CHECK(rows >= 0 && cols >= 0, "negative tensor shape");
  allocate(zero_fill);
}

void Tensor::allocate(bool zero_fill) {
  const std::int64_t n = rows_ * cols_;
  if (n == 0) {
    data_ = nullptr;
    owned_ = false;
    return;
  }
  Arena* arena = ArenaBinding::current_arena();
  if (arena != nullptr) {
    data_ = arena->allocate_floats(n, ArenaBinding::current_category());
    owned_ = false;
    detail::count_tensor_arena_alloc();
  } else {
    data_ = new float[static_cast<std::size_t>(n)];
    owned_ = true;
    detail::count_tensor_heap_alloc();
  }
  if (zero_fill) {
    std::memset(data_, 0, static_cast<std::size_t>(n) * sizeof(float));
  }
}

void Tensor::destroy() {
  if (owned_) delete[] data_;
  data_ = nullptr;
  owned_ = false;
}

Tensor::Tensor(const Tensor& other) : rows_(other.rows_), cols_(other.cols_) {
  allocate(/*zero_fill=*/false);
  if (size() > 0) {
    std::memcpy(data_, other.data_,
                static_cast<std::size_t>(size()) * sizeof(float));
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  // Same-size assignment reuses the existing buffer (keeps repeated
  // gradient staging from re-allocating); otherwise allocate fresh via the
  // current thread's binding.
  if (size() != other.size()) {
    destroy();
    rows_ = other.rows_;
    cols_ = other.cols_;
    allocate(/*zero_fill=*/false);
  } else {
    rows_ = other.rows_;
    cols_ = other.cols_;
  }
  if (size() > 0) {
    std::memcpy(data_, other.data_,
                static_cast<std::size_t>(size()) * sizeof(float));
  }
  return *this;
}

Tensor Tensor::randn(std::int64_t rows, std::int64_t cols, Rng& rng,
                     float scale) {
  Tensor t = Tensor::uninit(rows, cols);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t.data_[i] = rng.next_float_symmetric(scale);
  }
  return t;
}

Tensor Tensor::slice_rows(std::int64_t begin, std::int64_t end) const {
  SLIM_CHECK(0 <= begin && begin <= end && end <= rows_, "bad row slice");
  Tensor out = Tensor::uninit(end - begin, cols_);
  if (out.size() > 0) {
    std::memcpy(out.data_, data_ + begin * cols_,
                static_cast<std::size_t>(out.size()) * sizeof(float));
  }
  return out;
}

Tensor Tensor::slice_cols(std::int64_t begin, std::int64_t end) const {
  SLIM_CHECK(0 <= begin && begin <= end && end <= cols_, "bad col slice");
  Tensor out = Tensor::uninit(rows_, end - begin);
  const std::int64_t width = end - begin;
  for (std::int64_t r = 0; r < rows_; ++r) {
    const float* src = data() + r * cols_ + begin;
    std::copy(src, src + width, out.data() + r * width);
  }
  return out;
}

void Tensor::assign_cols(std::int64_t col_begin, const Tensor& src) {
  SLIM_CHECK(src.rows_ == rows_ && col_begin >= 0 &&
                 col_begin + src.cols_ <= cols_,
             "assign_cols shape mismatch");
  for (std::int64_t r = 0; r < rows_; ++r) {
    const float* from = src.data() + r * src.cols_;
    std::copy(from, from + src.cols_, data() + r * cols_ + col_begin);
  }
}

Tensor Tensor::vcat(const std::vector<Tensor>& parts) {
  if (parts.empty()) return {};
  std::int64_t rows = 0;
  for (const Tensor& p : parts) {
    SLIM_CHECK(p.cols() == parts.front().cols(), "vcat column mismatch");
    rows += p.rows();
  }
  Tensor out = Tensor::uninit(rows, parts.front().cols());
  std::int64_t r = 0;
  for (const Tensor& p : parts) {
    out.assign_rows(r, p);
    r += p.rows();
  }
  return out;
}

void Tensor::fill(float value) {
  std::fill(data_, data_ + size(), value);
}

void Tensor::add_(const Tensor& other) { add_scaled_(other, 1.0f); }

void Tensor::add_scaled_(const Tensor& other, float scale) {
  SLIM_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
             "add_ shape mismatch");
  parallel_chunks<scaled_add>(0, size(), kFlatGrain,
                              ScaledAdd{data_, other.data_, scale});
}

Tensor Tensor::transposed() const {
  Tensor out = Tensor::uninit(cols_, rows_);
  parallel_chunks<transpose_rows>(0, rows_, kRowGrain,
                                  Transpose{data_, out.data_, rows_, cols_});
  return out;
}

void Tensor::assign_rows(std::int64_t row_begin, const Tensor& src) {
  SLIM_CHECK(src.cols_ == cols_ && row_begin + src.rows_ <= rows_,
             "assign_rows shape mismatch");
  if (src.size() > 0) {
    std::memcpy(data_ + row_begin * cols_, src.data_,
                static_cast<std::size_t>(src.size()) * sizeof(float));
  }
}

float Tensor::max_abs_diff(const Tensor& other) const {
  SLIM_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
             "max_abs_diff shape mismatch");
  float best = 0.0f;
  for (std::int64_t i = 0; i < size(); ++i) {
    best = std::max(best, std::fabs(data_[i] - other.data_[i]));
  }
  return best;
}

bool Tensor::allclose(const Tensor& other, float atol) const {
  return max_abs_diff(other) <= atol;
}

float Tensor::l2norm() const {
  double sum = 0.0;
  for (std::int64_t i = 0; i < size(); ++i) {
    sum += static_cast<double>(data_[i]) * data_[i];
  }
  return static_cast<float>(std::sqrt(sum));
}

// Accumulation policy (shared by all three matmul variants): fp32 partial
// sums in ascending-k order, the same convention as fp32 GEMM on the
// hardware the substrate stands in for, so forward and backward projections
// round symmetrically. The register tile vectorizes across output columns,
// never across k, which keeps every element's sum in that order. There is
// no zero-operand fast path: 0 * NaN must stay NaN (IEEE propagation) and
// kernel timing must not depend on the data.

Tensor matmul(const Tensor& a, const Tensor& b) {
  SLIM_CHECK(a.cols() == b.rows(), "matmul shape mismatch");
  Tensor c(a.rows(), b.cols());  // zero-init: stays zero when k = 0
  parallel_chunks<matmul_rows, matmul_rows_narrow>(
      0, a.rows(), kRowGrain,
      Gemm{a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols()});
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  SLIM_CHECK(a.cols() == b.cols(), "matmul_nt shape mismatch");
  // Packing B^T's panels straight from B would gather every element once
  // per row chunk; one transpose per call keeps the packing contiguous.
  return matmul(a, b.transposed());
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  SLIM_CHECK(a.rows() == b.rows(), "matmul_tn shape mismatch");
  Tensor c(a.cols(), b.cols());  // zero-init: stays zero when k = 0
  parallel_chunks<matmul_tn_rows, matmul_tn_rows_narrow>(
      0, a.cols(), kRowGrain,
      Gemm{a.data(), b.data(), c.data(), a.cols(), a.rows(), b.cols()});
  return c;
}

}  // namespace slim::num

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
constexpr std::int64_t kKBlock = 128;        // k-panel kept hot in cache

using detail::parallel_chunks;

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
  for (std::int64_t r = r0; r < r1; ++r) {
    for (std::int64_t c = 0; c < g.cols; ++c) {
      g.dst[c * g.rows + r] = g.src[r * g.cols + c];
    }
  }
}

// C += A * B for row-major A (m x k), B (k x n), C (m x n).
struct Gemm {
  const float* a;
  const float* b;
  float* c;
  std::int64_t k, n;
};

SLIM_CHUNK_BODY void matmul_rows(const Gemm& g, std::int64_t i0,
                                 std::int64_t i1) {
  // Row-chunked saxpy form, k-panelled so the panel of B stays cached
  // across the chunk's rows. Per output element the adds still happen in
  // ascending-k order: identical bits to the unpanelled loop.
  const std::int64_t k = g.k, n = g.n;
  for (std::int64_t k0 = 0; k0 < k; k0 += kKBlock) {
    const std::int64_t k1 = std::min(k, k0 + kKBlock);
    for (std::int64_t i = i0; i < i1; ++i) {
      float* crow = g.c + i * n;
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        const float av = g.a[i * k + kk];
        const float* brow = g.b + kk * n;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

// C += A^T * B for row-major A (k x m), B (k x n), C (m x n).
struct GemmTn {
  const float* a;
  const float* b;
  float* c;
  std::int64_t k, m, n;
};

SLIM_CHUNK_BODY void matmul_tn_rows(const GemmTn& g, std::int64_t i0,
                                    std::int64_t i1) {
  // Chunk over output rows (columns of A); within a chunk keep k outer so
  // each row of B streams once per chunk and is reused for every output
  // row in it.
  const std::int64_t m = g.m, n = g.n;
  for (std::int64_t kk = 0; kk < g.k; ++kk) {
    const float* arow = g.a + kk * m;
    const float* brow = g.b + kk * n;
    for (std::int64_t i = i0; i < i1; ++i) {
      const float av = arow[i];
      float* crow = g.c + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
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
// round symmetrically. Loops vectorize across output columns, never across
// k, which keeps every element's sum in that order. There is no
// zero-operand fast path: 0 * NaN must stay NaN (IEEE propagation) and
// kernel timing must not depend on the data.

Tensor matmul(const Tensor& a, const Tensor& b) {
  SLIM_CHECK(a.cols() == b.rows(), "matmul shape mismatch");
  Tensor c(a.rows(), b.cols());  // zero-init: the k-panels accumulate
  parallel_chunks<matmul_rows>(
      0, a.rows(), kRowGrain,
      Gemm{a.data(), b.data(), c.data(), a.cols(), b.cols()});
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  SLIM_CHECK(a.cols() == b.cols(), "matmul_nt shape mismatch");
  // A per-output dot over k is one serial add chain the compiler may not
  // reorder; matmul's saxpy form vectorizes across output columns instead,
  // with the same ascending-k sum per element.
  return matmul(a, b.transposed());
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  SLIM_CHECK(a.rows() == b.rows(), "matmul_tn shape mismatch");
  Tensor c(a.cols(), b.cols());  // zero-init: accumulates over k
  parallel_chunks<matmul_tn_rows>(
      0, a.cols(), kRowGrain,
      GemmTn{a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols()});
  return c;
}

}  // namespace slim::num

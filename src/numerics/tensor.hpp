#pragma once

// Minimal dense float tensor (row-major, rank <= 2 semantics) for the
// numerics substrate. The substrate exists to prove SlimPipe's slice-wise
// math (streaming causal attention, online softmax merges,
// sharded-vocabulary losses, LIFO backward) is bit-for-bit equivalent to
// monolithic execution. The hot kernels run on the shared parallel engine
// (src/util/thread_pool.hpp) under its determinism contract: fixed
// shape-derived chunking, index-ordered reduction, results bit-identical
// across SLIMPIPE_THREADS settings.
//
// Storage is ownership-aware (src/numerics/arena.hpp): a tensor's buffer
// either comes from the heap (owned, freed by the destructor) or from the
// arena bound to the constructing thread (non-owning; reclaimed when the
// arena scope that covers it is released). Copies are always deep and
// allocate through the same policy, so value semantics are unchanged.

#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/logging.hpp"
#include "src/util/rng.hpp"

namespace slim::num {

class Tensor {
 public:
  Tensor() = default;
  /// Zero-initialized (safe default: several kernels accumulate into their
  /// output, and attn_merge's skipped rows rely on zeros).
  Tensor(std::int64_t rows, std::int64_t cols) : Tensor(rows, cols, true) {}

  /// UNINITIALIZED storage: only for outputs every element of which is
  /// overwritten before being read (slice copies, transposes,
  /// rmsnorm/swiglu outputs, vcat). Never for accumulator outputs.
  static Tensor uninit(std::int64_t rows, std::int64_t cols) {
    return Tensor(rows, cols, false);
  }

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept { steal(other); }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(other);
    }
    return *this;
  }
  ~Tensor() { destroy(); }

  static Tensor randn(std::int64_t rows, std::int64_t cols, Rng& rng,
                      float scale = 0.1f);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }
  /// True when the buffer came from a bound arena (non-owning storage).
  bool arena_backed() const { return data_ != nullptr && !owned_; }

  float* data() { return data_; }
  const float* data() const { return data_; }

  float& at(std::int64_t r, std::int64_t c) {
    return data_[r * cols_ + c];
  }
  float at(std::int64_t r, std::int64_t c) const {
    return data_[r * cols_ + c];
  }

  /// Rows [begin, end) as a copy.
  Tensor slice_rows(std::int64_t begin, std::int64_t end) const;

  /// Columns [begin, end) as a copy.
  Tensor slice_cols(std::int64_t begin, std::int64_t end) const;

  /// Stacks `parts` vertically (all must share cols). Sizes the result
  /// once (uninitialized) and writes each part via assign_rows.
  static Tensor vcat(const std::vector<Tensor>& parts);

  void fill(float value);
  void add_(const Tensor& other);          // this += other
  void add_scaled_(const Tensor& other, float scale);
  Tensor transposed() const;

  /// Writes `src` into rows [row_begin, row_begin + src.rows()).
  void assign_rows(std::int64_t row_begin, const Tensor& src);

  /// Writes `src` into columns [col_begin, col_begin + src.cols()) of every
  /// row (row counts must match). Contiguous per-row copies — the writeback
  /// twin of slice_cols.
  void assign_cols(std::int64_t col_begin, const Tensor& src);

  /// Max absolute difference against `other` (shapes must match).
  float max_abs_diff(const Tensor& other) const;
  bool allclose(const Tensor& other, float atol = 1e-5f) const;

  float l2norm() const;

 private:
  Tensor(std::int64_t rows, std::int64_t cols, bool zero_fill);

  void allocate(bool zero_fill);
  void destroy();
  void steal(Tensor& other) {
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_ = other.data_;
    owned_ = other.owned_;
    other.rows_ = other.cols_ = 0;
    other.data_ = nullptr;
    other.owned_ = false;
  }

  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  float* data_ = nullptr;
  bool owned_ = false;  // heap-backed (delete[] on destroy) vs arena/null
};

// All three matmul variants share one accumulation policy: every output
// element is an fp32 sum starting from zero in ascending-k order (no
// double-precision detours, no zero-operand fast paths), so forward and
// backward projections round symmetrically, NaN/Inf propagate per IEEE, and
// the variants agree bit for bit on the same product (asserted exactly in
// tests/test_numerics_tensor.cpp). matmul_nt is matmul on B^T.

/// C = A * B           (m x k) * (k x n)
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A * B^T         (m x k) * (n x k)^T; computed as matmul(a, b^T).
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// C = A^T * B         (k x m)^T * (k x n)
Tensor matmul_tn(const Tensor& a, const Tensor& b);

}  // namespace slim::num

// Tests for the tensor substrate and the three matmul variants.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/numerics/tensor.hpp"
#include "src/util/rng.hpp"
#include "tests/isa_paths.hpp"

namespace slim::num {
namespace {

TEST(TensorTest, ShapeAndAccess) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6);
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0), 0.0f);
}

TEST(TensorTest, SliceRows) {
  Tensor t(4, 2);
  for (int r = 0; r < 4; ++r) t.at(r, 0) = static_cast<float>(r);
  const Tensor s = t.slice_rows(1, 3);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_FLOAT_EQ(s.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(s.at(1, 0), 2.0f);
  EXPECT_THROW(t.slice_rows(3, 2), std::logic_error);
}

TEST(TensorTest, SliceCols) {
  Tensor t(2, 4);
  for (int c = 0; c < 4; ++c) t.at(1, c) = static_cast<float>(c);
  const Tensor s = t.slice_cols(2, 4);
  EXPECT_EQ(s.cols(), 2);
  EXPECT_FLOAT_EQ(s.at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(s.at(1, 1), 3.0f);
}

TEST(TensorTest, VcatRoundTrip) {
  Rng rng(1);
  const Tensor t = Tensor::randn(6, 3, rng);
  const Tensor joined =
      Tensor::vcat({t.slice_rows(0, 2), t.slice_rows(2, 5), t.slice_rows(5, 6)});
  EXPECT_TRUE(joined.allclose(t, 0.0f));
}

TEST(TensorTest, AssignRows) {
  Tensor t(4, 2);
  Tensor src(2, 2);
  src.fill(7.0f);
  t.assign_rows(1, src);
  EXPECT_FLOAT_EQ(t.at(1, 0), 7.0f);
  EXPECT_FLOAT_EQ(t.at(2, 1), 7.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(t.at(3, 0), 0.0f);
}

TEST(TensorTest, AddScaled) {
  Tensor a(1, 3), b(1, 3);
  a.fill(1.0f);
  b.fill(2.0f);
  a.add_scaled_(b, 0.5f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 2.0f);
}

TEST(TensorTest, Transpose) {
  Rng rng(2);
  const Tensor t = Tensor::randn(3, 5, rng);
  const Tensor tt = t.transposed();
  EXPECT_EQ(tt.rows(), 5);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 5; ++c) EXPECT_FLOAT_EQ(tt.at(c, r), t.at(r, c));
  }
}

TEST(TensorTest, Norms) {
  Tensor t(1, 2);
  t.at(0, 0) = 3.0f;
  t.at(0, 1) = 4.0f;
  EXPECT_FLOAT_EQ(t.l2norm(), 5.0f);
}

class MatmulTest : public ::testing::Test {
 protected:
  MatmulTest() : rng_(11) {}
  Rng rng_;

  static Tensor naive(const Tensor& a, const Tensor& b) {
    Tensor c(a.rows(), b.cols());
    for (std::int64_t i = 0; i < a.rows(); ++i) {
      for (std::int64_t j = 0; j < b.cols(); ++j) {
        double sum = 0.0;
        for (std::int64_t k = 0; k < a.cols(); ++k) {
          sum += static_cast<double>(a.at(i, k)) * b.at(k, j);
        }
        c.at(i, j) = static_cast<float>(sum);
      }
    }
    return c;
  }

  // The accumulation policy all three variants promise (tensor.hpp): fp32
  // partial sums in ascending-k order, starting from zero.
  static Tensor naive_fp32(const Tensor& a, const Tensor& b) {
    Tensor c(a.rows(), b.cols());
    for (std::int64_t i = 0; i < a.rows(); ++i) {
      for (std::int64_t j = 0; j < b.cols(); ++j) {
        float sum = 0.0f;
        for (std::int64_t k = 0; k < a.cols(); ++k) {
          sum += a.at(i, k) * b.at(k, j);
        }
        c.at(i, j) = sum;
      }
    }
    return c;
  }
};

TEST_F(MatmulTest, MatchesNaive) {
  const Tensor a = Tensor::randn(7, 5, rng_, 1.0f);
  const Tensor b = Tensor::randn(5, 9, rng_, 1.0f);
  EXPECT_LT(matmul(a, b).max_abs_diff(naive(a, b)), 1e-5f);
}

TEST_F(MatmulTest, NtMatchesNaive) {
  const Tensor a = Tensor::randn(4, 6, rng_, 1.0f);
  const Tensor b = Tensor::randn(8, 6, rng_, 1.0f);
  EXPECT_LT(matmul_nt(a, b).max_abs_diff(naive(a, b.transposed())), 1e-5f);
}

TEST_F(MatmulTest, TnMatchesNaive) {
  const Tensor a = Tensor::randn(6, 4, rng_, 1.0f);
  const Tensor b = Tensor::randn(6, 8, rng_, 1.0f);
  EXPECT_LT(matmul_tn(a, b).max_abs_diff(naive(a.transposed(), b)), 1e-5f);
}

// Bit for bit, not within a tolerance: the parity tests across backends and
// pool widths rely on every variant rounding exactly like this. k = 300
// crosses matmul's 128-wide k-panels, m = 37 crosses the 16-row chunks, and
// n = 23 is odd.
// True when every element of `got` has the bits of `want`'s, or both are
// NaN.
::testing::AssertionResult SameValues(const Tensor& got, const Tensor& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  for (std::int64_t e = 0; e < got.size(); ++e) {
    const float x = got.data()[e], y = want.data()[e];
    if ((std::isnan(x) && std::isnan(y)) ||
        std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y)) {
      continue;
    }
    return ::testing::AssertionFailure()
           << "element " << e << ": " << x << " != " << y;
  }
  return ::testing::AssertionSuccess();
}

// Shapes that fill whole 4 x 16 register tiles and leave every row and
// column tail, with k of one element, across one 256-deep k-panel boundary
// and across two.
TEST_F(MatmulTest, AllVariantsMatchAscendingKFp32Exactly) {
  for (std::int64_t k : {1, 300, 520}) {
    for (std::int64_t m : {1, 3, 4, 5, 37, 128}) {
      for (std::int64_t n : {1, 7, 8, 15, 16, 17, 23, 384}) {
        const Tensor a = Tensor::randn(m, k, rng_, 1.0f);
        const Tensor b = Tensor::randn(k, n, rng_, 1.0f);
        const Tensor expect = naive_fp32(a, b);
        const Tensor at = a.transposed(), bt = b.transposed();
        for_each_isa([&] {
          SCOPED_TRACE(::testing::Message()
                       << "m " << m << ", n " << n << ", k " << k);
          EXPECT_TRUE(SameValues(matmul(a, b), expect));
          EXPECT_TRUE(SameValues(matmul_nt(a, bt), expect));
          EXPECT_TRUE(SameValues(matmul_tn(at, b), expect));
        });
      }
    }
  }
}

TEST_F(MatmulTest, EmptyInnerDimensionGivesZeros) {
  const Tensor a(5, 0), b(0, 17);
  const Tensor zeros(5, 17);
  for_each_isa([&] {
    EXPECT_TRUE(SameValues(matmul(a, b), zeros));
    EXPECT_TRUE(SameValues(matmul_nt(a, b.transposed()), zeros));
    EXPECT_TRUE(SameValues(matmul_tn(a.transposed(), b), zeros));
  });
}

TEST_F(MatmulTest, ShapeMismatchThrows) {
  const Tensor a(2, 3), b(4, 5);
  EXPECT_THROW(matmul(a, b), std::logic_error);
  EXPECT_THROW(matmul_nt(a, b), std::logic_error);
  EXPECT_THROW(matmul_tn(a, b), std::logic_error);
}

TEST(TensorTest, AssignCols) {
  Tensor t(3, 4);
  Tensor src(3, 2);
  src.fill(7.0f);
  t.assign_cols(1, src);
  for (std::int64_t r = 0; r < 3; ++r) {
    EXPECT_FLOAT_EQ(t.at(r, 0), 0.0f);
    EXPECT_FLOAT_EQ(t.at(r, 1), 7.0f);
    EXPECT_FLOAT_EQ(t.at(r, 2), 7.0f);
    EXPECT_FLOAT_EQ(t.at(r, 3), 0.0f);
  }
  EXPECT_THROW(t.assign_cols(3, src), std::logic_error);
}

TEST(TensorTest, SliceColsAssignColsRoundTrip) {
  Rng rng(3);
  const Tensor t = Tensor::randn(5, 7, rng);
  Tensor rebuilt(5, 7);
  rebuilt.assign_cols(0, t.slice_cols(0, 3));
  rebuilt.assign_cols(3, t.slice_cols(3, 7));
  EXPECT_TRUE(rebuilt.allclose(t, 0.0f));
}

// Regression: the matmul kernels once skipped zero left-hand operands as a
// "fast path", which silently dropped NaN/Inf from the right-hand side
// (0 * NaN must stay NaN per IEEE) and made kernel timing data-dependent.
// All three variants must propagate non-finite values through zero rows.
class MatmulNanTest : public MatmulTest {
 protected:
  static constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  static constexpr float kInf = std::numeric_limits<float>::infinity();
};

TEST_F(MatmulNanTest, ZeroTimesNanPropagates) {
  Tensor a(2, 3);  // all zeros
  Tensor b(3, 2);
  b.at(1, 0) = kNaN;
  b.at(2, 1) = kInf;
  const Tensor c = matmul(a, b);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));
  EXPECT_TRUE(std::isnan(c.at(1, 0)));
  EXPECT_TRUE(std::isnan(c.at(0, 1)));  // 0 * inf = NaN
}

TEST_F(MatmulNanTest, NtZeroTimesNanPropagates) {
  Tensor a(2, 3);  // all zeros
  Tensor b(2, 3);  // rows are the transposed columns
  b.at(0, 1) = kNaN;
  b.at(1, 2) = kInf;
  const Tensor c = matmul_nt(a, b);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));
  EXPECT_TRUE(std::isnan(c.at(1, 0)));
  EXPECT_TRUE(std::isnan(c.at(0, 1)));
}

TEST_F(MatmulNanTest, TnZeroTimesNanPropagates) {
  Tensor a(3, 2);  // all zeros (k x m layout)
  Tensor b(3, 2);
  b.at(1, 0) = kNaN;
  b.at(2, 1) = kInf;
  const Tensor c = matmul_tn(a, b);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));
  EXPECT_TRUE(std::isnan(c.at(1, 0)));
  EXPECT_TRUE(std::isnan(c.at(0, 1)));
}

// A NaN in A inside a whole 4 x 16 tile poisons its row of C, one in B its
// column; every other element keeps its ascending-k fp32 bits.
TEST_F(MatmulNanTest, NanInsideAFullTileMatchesTheScalarLoop) {
  Tensor a = Tensor::randn(8, 40, rng_, 1.0f);
  Tensor b = Tensor::randn(40, 32, rng_, 1.0f);
  a.at(5, 17) = kNaN;
  b.at(23, 20) = kNaN;
  const Tensor expect = naive_fp32(a, b);
  for_each_isa([&] {
    const Tensor c = matmul(a, b);
    EXPECT_TRUE(SameValues(c, expect));
    EXPECT_TRUE(SameValues(matmul_nt(a, b.transposed()), expect));
    EXPECT_TRUE(SameValues(matmul_tn(a.transposed(), b), expect));
    for (std::int64_t j = 0; j < c.cols(); ++j) {
      EXPECT_TRUE(std::isnan(c.at(5, j)));
    }
    for (std::int64_t i = 0; i < c.rows(); ++i) {
      EXPECT_TRUE(std::isnan(c.at(i, 20)));
    }
    EXPECT_FALSE(std::isnan(c.at(4, 19)));
  });
}

TEST_F(MatmulNanTest, NanInLeftOperandPropagates) {
  Tensor a(2, 2), b(2, 2);
  a.at(0, 0) = kNaN;
  const Tensor c = matmul(a, b);       // B all zero: NaN * 0 = NaN
  EXPECT_TRUE(std::isnan(c.at(0, 0)));
  EXPECT_TRUE(std::isnan(c.at(0, 1)));
  EXPECT_FALSE(std::isnan(c.at(1, 0)));
}

}  // namespace
}  // namespace slim::num

// Finite-difference gradient checks for RMSNorm, SwiGLU and RoPE, the
// memory-thrifty recompute identities the paper's §5 relies on, and the
// accuracy of the library's own exp.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "src/numerics/exp.hpp"
#include "src/numerics/norm_act.hpp"
#include "src/numerics/rope.hpp"
#include "src/util/rng.hpp"
#include "tests/isa_paths.hpp"

namespace slim::num {
namespace {

double dot(const Tensor& a, const Tensor& b) {
  double sum = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    sum += static_cast<double>(a.data()[i]) * b.data()[i];
  }
  return sum;
}

TEST(RmsNormTest, NormalizesRows) {
  for_each_isa([&] {
    Rng rng(1);
    const Tensor x = Tensor::randn(4, 16, rng, 2.0f);
    Tensor w(1, 16);
    w.fill(1.0f);
    const Tensor y = rmsnorm(x, w);
    for (std::int64_t r = 0; r < 4; ++r) {
      double ms = 0.0;
      for (std::int64_t c = 0; c < 16; ++c) {
        ms += static_cast<double>(y.at(r, c)) * y.at(r, c);
      }
      EXPECT_NEAR(ms / 16.0, 1.0, 1e-3);
    }
  });
}

TEST(RmsNormTest, WeightScales) {
  for_each_isa([&] {
    Rng rng(2);
    const Tensor x = Tensor::randn(2, 8, rng, 1.0f);
    Tensor w1(1, 8), w2(1, 8);
    w1.fill(1.0f);
    w2.fill(2.0f);
    const Tensor y1 = rmsnorm(x, w1);
    const Tensor y2 = rmsnorm(x, w2);
    for (std::int64_t i = 0; i < y1.size(); ++i) {
      EXPECT_NEAR(y2.data()[i], 2.0f * y1.data()[i], 1e-6f);
    }
  });
}

TEST(RmsNormTest, GradCheck) {
  for_each_isa([&] {
    Rng rng(3);
    Tensor x = Tensor::randn(3, 8, rng, 1.0f);
    Tensor w = Tensor::randn(1, 8, rng, 0.5f);
    for (std::int64_t i = 0; i < w.size(); ++i) w.data()[i] += 1.0f;
    const Tensor dy = Tensor::randn(3, 8, rng, 1.0f);

    Tensor dw(1, 8);
    const Tensor dx = rmsnorm_bwd(x, w, dy, dw);

    const float eps = 1e-3f;
    for (std::int64_t i = 0; i < x.size(); i += 2) {
      const float orig = x.data()[i];
      x.data()[i] = orig + eps;
      const double hi = dot(rmsnorm(x, w), dy);
      x.data()[i] = orig - eps;
      const double lo = dot(rmsnorm(x, w), dy);
      x.data()[i] = orig;
      EXPECT_NEAR((hi - lo) / (2.0 * eps), dx.data()[i], 5e-3);
    }
    for (std::int64_t i = 0; i < w.size(); ++i) {
      const float orig = w.data()[i];
      w.data()[i] = orig + eps;
      const double hi = dot(rmsnorm(x, w), dy);
      w.data()[i] = orig - eps;
      const double lo = dot(rmsnorm(x, w), dy);
      w.data()[i] = orig;
      EXPECT_NEAR((hi - lo) / (2.0 * eps), dw.data()[i], 5e-3);
    }
  });
}

TEST(SwigluTest, MatchesDefinition) {
  for_each_isa([&] {
    Rng rng(4);
    const Tensor g = Tensor::randn(2, 6, rng, 1.5f);
    const Tensor u = Tensor::randn(2, 6, rng, 1.5f);
    const Tensor out = swiglu(g, u);
    for (std::int64_t i = 0; i < out.size(); ++i) {
      const float gi = g.data()[i];
      const float expected = gi / (1.0f + std::exp(-gi)) * u.data()[i];
      EXPECT_NEAR(out.data()[i], expected, 1e-6f);
    }
  });
}

TEST(SwigluTest, GradCheck) {
  for_each_isa([&] {
    Rng rng(5);
    Tensor g = Tensor::randn(2, 6, rng, 1.0f);
    Tensor u = Tensor::randn(2, 6, rng, 1.0f);
    const Tensor dout = Tensor::randn(2, 6, rng, 1.0f);
    Tensor dg, du;
    swiglu_bwd(g, u, dout, dg, du);
    const float eps = 1e-3f;
    for (std::int64_t i = 0; i < g.size(); ++i) {
      float orig = g.data()[i];
      g.data()[i] = orig + eps;
      const double hi = dot(swiglu(g, u), dout);
      g.data()[i] = orig - eps;
      const double lo = dot(swiglu(g, u), dout);
      g.data()[i] = orig;
      EXPECT_NEAR((hi - lo) / (2.0 * eps), dg.data()[i], 3e-3);

      orig = u.data()[i];
      u.data()[i] = orig + eps;
      const double hi2 = dot(swiglu(g, u), dout);
      u.data()[i] = orig - eps;
      const double lo2 = dot(swiglu(g, u), dout);
      u.data()[i] = orig;
      EXPECT_NEAR((hi2 - lo2) / (2.0 * eps), du.data()[i], 3e-3);
    }
  });
}

TEST(SiluTest, GradMatchesFiniteDifference) {
  for (float x : {-3.0f, -1.0f, 0.0f, 0.5f, 2.0f}) {
    const float eps = 1e-3f;
    const float fd = (silu(x + eps) - silu(x - eps)) / (2.0f * eps);
    EXPECT_NEAR(silu_grad(x), fd, 1e-3f);
  }
}

// ---- exp_f32 ---------------------------------------------------------------

constexpr float kInf = std::numeric_limits<float>::infinity();

/// |got - want| in units of the float spacing at `want` (2^-149 below the
/// normal range).
double ulp_error(float got, double want) {
  const double mag = std::fabs(want);
  const double ulp =
      mag < 0x1p-126 ? 0x1p-149 : std::ldexp(1.0, std::ilogb(mag) - 23);
  return std::fabs(static_cast<double>(got) - want) / ulp;
}

/// Calls check(x) for every `step`-th float from `from` towards `to` (same
/// sign, |from| <= |to|), by bit pattern.
template <class Check>
void for_floats(float from, float to, std::uint32_t step, Check check) {
  const std::uint32_t last = std::bit_cast<std::uint32_t>(to);
  for (std::uint32_t bits = std::bit_cast<std::uint32_t>(from); bits <= last;
       bits += step) {
    check(std::bit_cast<float>(bits));
  }
}

TEST(ExpTest, WithinOneUlpOfDoubleExp) {
  double worst = 0.0;
  float worst_x = 0.0f;
  const auto check = [&](float x) {
    const double want = std::exp(static_cast<double>(x));
    if (std::isinf(static_cast<float>(want))) return;  // OverflowIsInfinite
    const double err = ulp_error(exp_f32(x), want);
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
  };
  for_floats(0.0f, 89.0f, 4099, check);
  for_floats(-0.0f, -104.0f, 4099, check);
  EXPECT_LE(worst, 1.0) << "at x = " << worst_x;
}

TEST(ExpTest, ZeroIsExactlyOne) {
  EXPECT_EQ(exp_f32(0.0f), 1.0f);
  EXPECT_EQ(exp_f32(-0.0f), 1.0f);
}

// Every float across the underflow edge, exhaustively: +0 exactly where the
// correctly rounded exp is 0.
TEST(ExpTest, UnderflowIsPositiveZero) {
  for_floats(-103.5f, -104.5f, 1, [](float x) {
    const float want = static_cast<float>(std::exp(static_cast<double>(x)));
    const float got = exp_f32(x);
    if (want == 0.0f) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got), 0u) << "x = " << x;
    } else {
      EXPECT_GT(got, 0.0f) << "x = " << x;
    }
  });
  for (float x : {-105.0f, -1000.0f, -std::numeric_limits<float>::max(),
                  -kInf}) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(exp_f32(x)), 0u) << "x = " << x;
  }
}

// Every float across the overflow edge, exhaustively: +inf exactly where
// the correctly rounded exp is.
TEST(ExpTest, OverflowIsInfinite) {
  for_floats(88.5f, 89.5f, 1, [](float x) {
    const float want = static_cast<float>(std::exp(static_cast<double>(x)));
    const float got = exp_f32(x);
    if (std::isinf(want)) {
      EXPECT_EQ(got, kInf) << "x = " << x;
    } else {
      EXPECT_LT(got, kInf) << "x = " << x;
    }
  });
  for (float x : {90.0f, 1000.0f, std::numeric_limits<float>::max(), kInf}) {
    EXPECT_EQ(exp_f32(x), kInf) << "x = " << x;
  }
}

TEST(ExpTest, NanStaysNan) {
  for (float x : {std::numeric_limits<float>::quiet_NaN(),
                  -std::numeric_limits<float>::quiet_NaN(),
                  std::numeric_limits<float>::signaling_NaN()}) {
    EXPECT_TRUE(std::isnan(exp_f32(x)));
  }
}

// The 2^n scale runs in two halves, so a subnormal result rounds instead of
// flushing to zero.
TEST(ExpTest, SubnormalResultsSurvive) {
  const float got = exp_f32(-100.0f);
  EXPECT_GT(got, 0.0f);
  EXPECT_LT(got, std::numeric_limits<float>::min());
  EXPECT_LE(ulp_error(got, std::exp(-100.0)), 1.0);
}

TEST(RopeTest, PreservesNorm) {
  Rng rng(6);
  Tensor x = Tensor::randn(5, 8, rng, 1.0f);
  const float before = x.l2norm();
  rope_apply(x, 8, 17);
  EXPECT_NEAR(x.l2norm(), before, 1e-4f);
}

TEST(RopeTest, BackwardIsInverse) {
  Rng rng(7);
  Tensor x = Tensor::randn(5, 8, rng, 1.0f);
  const Tensor orig = x;
  rope_apply(x, 8, 123);
  rope_apply_bwd(x, 8, 123);
  EXPECT_LT(x.max_abs_diff(orig), 1e-5f);
}

TEST(RopeTest, PositionZeroFirstPairIdentity) {
  // theta = 0 at position 0 regardless of frequency: rotation is identity.
  Rng rng(8);
  Tensor x = Tensor::randn(1, 8, rng, 1.0f);
  const Tensor orig = x;
  rope_apply(x, 8, 0);
  EXPECT_LT(x.max_abs_diff(orig), 1e-6f);
}

TEST(RopeTest, RelativePositionProperty) {
  // <rope(q, i), rope(k, j)> depends only on i - j: shifting both
  // positions by the same amount keeps all dot products.
  Rng rng(9);
  const Tensor q0 = Tensor::randn(1, 8, rng, 1.0f);
  const Tensor k0 = Tensor::randn(1, 8, rng, 1.0f);
  auto rotated_dot = [&](std::int64_t qi, std::int64_t kj) {
    Tensor q = q0, k = k0;
    rope_apply(q, 8, qi);
    rope_apply(k, 8, kj);
    double sum = 0.0;
    for (std::int64_t c = 0; c < 8; ++c) {
      sum += static_cast<double>(q.at(0, c)) * k.at(0, c);
    }
    return sum;
  };
  EXPECT_NEAR(rotated_dot(5, 2), rotated_dot(105, 102), 1e-4);
  EXPECT_NEAR(rotated_dot(9, 9), rotated_dot(0, 0), 1e-4);
}

TEST(RopeTest, GradCheck) {
  Rng rng(10);
  Tensor x = Tensor::randn(2, 4, rng, 1.0f);
  const Tensor dout = Tensor::randn(2, 4, rng, 1.0f);
  // d/dx of <rope(x), dout> is rope_bwd(dout).
  Tensor grad = dout;
  rope_apply_bwd(grad, 4, 7);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < x.size(); ++i) {
    const float orig = x.data()[i];
    auto value = [&]() {
      Tensor y = x;
      rope_apply(y, 4, 7);
      return dot(y, dout);
    };
    x.data()[i] = orig + eps;
    const double hi = value();
    x.data()[i] = orig - eps;
    const double lo = value();
    x.data()[i] = orig;
    EXPECT_NEAR((hi - lo) / (2.0 * eps), grad.data()[i], 2e-3);
  }
}

// One pass over a tensor of k head_dim-wide bands rotates each band as the
// band alone, a tensor of its own, would rotate: the same angles and the
// same per-element arithmetic, bit for bit.
TEST(RopeTest, EveryBandRotatesAsItsOwnTensor) {
  struct Case {
    std::int64_t head_dim, bands;
  };
  Rng rng(11);
  for (const Case c : {Case{4, 8}, Case{16, 8}, Case{16, 4}}) {
    for (const std::int64_t pos : {std::int64_t{0}, std::int64_t{896}}) {
      SCOPED_TRACE("head_dim " + std::to_string(c.head_dim) + ", " +
                   std::to_string(c.bands) + " bands, position " +
                   std::to_string(pos));
      const Tensor x = Tensor::randn(5, c.bands * c.head_dim, rng, 1.0f);
      Tensor all = x;
      rope_apply(all, c.head_dim, pos);
      for (std::int64_t b = 0; b < c.bands; ++b) {
        Tensor band = x.slice_cols(b * c.head_dim, (b + 1) * c.head_dim);
        rope_apply(band, c.head_dim, pos);
        const Tensor got =
            all.slice_cols(b * c.head_dim, (b + 1) * c.head_dim);
        EXPECT_EQ(std::memcmp(got.data(), band.data(),
                              static_cast<std::size_t>(band.size()) *
                                  sizeof(float)),
                  0)
            << "band " << b;
      }
      rope_apply_bwd(all, c.head_dim, pos);
      EXPECT_LT(all.max_abs_diff(x), 1e-5f);
    }
  }
}

}  // namespace
}  // namespace slim::num

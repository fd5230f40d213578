#include "src/numerics/rope.hpp"

#include <cmath>

namespace slim::num {

namespace {
void rotate(Tensor& x, std::int64_t head_dim, std::int64_t pos_offset,
            float sign) {
  SLIM_CHECK(head_dim > 0 && head_dim % 2 == 0,
             "RoPE requires an even head dimension");
  SLIM_CHECK(x.cols() % head_dim == 0,
             "RoPE requires whole head_dim-wide bands");
  const std::int64_t d = head_dim;
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    const float pos = static_cast<float>(pos_offset + r);
    float* row = x.data() + r * x.cols();
    for (std::int64_t i = 0; i < d / 2; ++i) {
      const float theta =
          pos * std::pow(kRopeBase, -2.0f * static_cast<float>(i) /
                                        static_cast<float>(d));
      const float c = std::cos(theta), s = sign * std::sin(theta);
      for (float* band = row; band < row + x.cols(); band += d) {
        const float x0 = band[2 * i], x1 = band[2 * i + 1];
        band[2 * i] = x0 * c - x1 * s;
        band[2 * i + 1] = x0 * s + x1 * c;
      }
    }
  }
}
}  // namespace

void rope_apply(Tensor& x, std::int64_t head_dim, std::int64_t pos_offset) {
  rotate(x, head_dim, pos_offset, 1.0f);
}

void rope_apply_bwd(Tensor& dx, std::int64_t head_dim,
                    std::int64_t pos_offset) {
  rotate(dx, head_dim, pos_offset, -1.0f);
}

}  // namespace slim::num

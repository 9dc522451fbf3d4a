#include "nn/pooling.h"

#include <algorithm>
#include <sstream>

#include "runtime/scheduler.h"

namespace goldfish::nn {

MaxPool2d::MaxPool2d(long kernel, long stride)
    : kernel_(kernel), stride_(stride) {
  GOLDFISH_CHECK(kernel > 0 && stride > 0, "bad pool dims");
}

namespace {

// Grain of the (n, c) plane loops: about 4K window outputs per chunk.
long plane_grain(long out_plane) {
  return std::max(1L, 4096 / std::max(1L, out_plane));
}

/// Max-pool one (H, W) plane `img` into its (oh, ow) outputs and argmax
/// entries (plane offsets plus `base`). Nonzero kK/kS fix the kernel and
/// stride at compile time, so the window loops unroll (lenet5's 2×2/2
/// pools); zero reads them from `kernel`/`stride`.
///
/// Each window is seeded from its own first element, so a window of values
/// ≤ any sentinel (−inf) still owns its output and argmax; the strict >
/// keeps the first maximum in row-major window order, and a NaN never
/// displaces the running maximum (a NaN seed keeps the window). The update
/// is a select, not a branch: which element wins is data-dependent and
/// mispredicts.
template <long kK, long kS>
void pool_plane(const float* img, long W, long oh, long ow, long kernel,
                long stride, std::size_t base, float* o, std::size_t* arg) {
  const long K = kK > 0 ? kK : kernel;
  const long S = kS > 0 ? kS : stride;
  for (long y = 0; y < oh; ++y) {
    for (long xo = 0; xo < ow; ++xo, ++o, ++arg) {
      const long first = y * S * W + xo * S;
      long best_at = first;
      float best = img[first];
      for (long ky = 0; ky < K; ++ky) {
        const long row = first + ky * W;
        for (long kx = 0; kx < K; ++kx) {
          const float v = img[row + kx];
          const bool gt = v > best;
          best = gt ? v : best;
          best_at = gt ? row + kx : best_at;
        }
      }
      *o = best;
      *arg = base + static_cast<std::size_t>(best_at);
    }
  }
}

}  // namespace

const Tensor& MaxPool2d::forward(const Tensor& x, bool /*train*/) {
  GOLDFISH_CHECK(x.rank() == 4, "pool expects (N,C,H,W)");
  *in_shape_ = x.shape();
  const long N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const long oh = (H - kernel_) / stride_ + 1;
  const long ow = (W - kernel_) / stride_ + 1;
  GOLDFISH_CHECK(oh > 0 && ow > 0, "pool output collapses to zero");
  Tensor& out = out_.acquire({N, C, oh, ow});
  argmax_->resize(out.numel());  // every entry written below
  const long plane = H * W, out_plane = oh * ow;
  // Each (n, c) plane writes only its own outputs and argmax entries.
  parallel_for(N * C, [&](long p_lo, long p_hi) {
    for (long p = p_lo; p < p_hi; ++p) {
      const float* img = x.data() + p * plane;
      float* o = out.data() + p * out_plane;
      std::size_t* arg = argmax_->data() + p * out_plane;
      const auto base = static_cast<std::size_t>(p * plane);
      if (kernel_ == 2 && stride_ == 2) {
        pool_plane<2, 2>(img, W, oh, ow, 2, 2, base, o, arg);
      } else {
        pool_plane<0, 0>(img, W, oh, ow, kernel_, stride_, base, o, arg);
      }
    }
  }, plane_grain(out_plane));
  return out;
}

const Tensor& MaxPool2d::backward(const Tensor& grad_output) {
  const Shape& in_shape = *in_shape_;
  const std::vector<std::size_t>& argmax = *argmax_;
  GOLDFISH_CHECK(in_shape.size() == 4 && grad_output.numel() == argmax.size(),
                 "pool grad size mismatch");
  Tensor& gin = dx_.acquire(in_shape);
  const long H = in_shape[2], W = in_shape[3];
  const long plane = H * W;
  const long out_plane =
      ((H - kernel_) / stride_ + 1) * ((W - kernel_) / stride_ + 1);
  // Scatter-add target: only argmax positions receive writes. A plane's
  // argmax entries all point into its own input plane, so planes zero and
  // scatter independently, each in output order.
  parallel_for(in_shape[0] * in_shape[1], [&](long p_lo, long p_hi) {
    float* g = gin.data();
    std::fill(g + p_lo * plane, g + p_hi * plane, 0.0f);
    for (long i = p_lo * out_plane; i < p_hi * out_plane; ++i)
      g[argmax[std::size_t(i)]] += grad_output[std::size_t(i)];
  }, plane_grain(out_plane));
  return gin;
}

std::unique_ptr<Layer> MaxPool2d::clone() const {
  return std::make_unique<MaxPool2d>(*this);
}

std::string MaxPool2d::name() const {
  std::ostringstream os;
  os << "maxpool(k" << kernel_ << ", s" << stride_ << ")";
  return os.str();
}

const Tensor& GlobalAvgPool::forward(const Tensor& x, bool /*train*/) {
  GOLDFISH_CHECK(x.rank() == 4, "gap expects (N,C,H,W)");
  *in_shape_ = x.shape();
  const long N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  Tensor& out = out_.acquire({N, C});
  const float inv = 1.0f / static_cast<float>(H * W);
  for (long n = 0; n < N; ++n) {
    for (long c = 0; c < C; ++c) {
      double acc = 0.0;
      for (long y = 0; y < H; ++y)
        for (long xo = 0; xo < W; ++xo) acc += x.at4(n, c, y, xo);
      out.at(n, c) = static_cast<float>(acc) * inv;
    }
  }
  return out;
}

const Tensor& GlobalAvgPool::backward(const Tensor& grad_output) {
  const Shape& in_shape = *in_shape_;
  GOLDFISH_CHECK(in_shape.size() == 4 && grad_output.rank() == 2 &&
                     grad_output.dim(0) == in_shape[0] &&
                     grad_output.dim(1) == in_shape[1],
                 "gap grad shape");
  const long N = in_shape[0], C = in_shape[1], H = in_shape[2],
             W = in_shape[3];
  Tensor& gin = dx_.acquire(in_shape);
  const float inv = 1.0f / static_cast<float>(H * W);
  for (long n = 0; n < N; ++n)
    for (long c = 0; c < C; ++c) {
      const float g = grad_output.at(n, c) * inv;
      for (long y = 0; y < H; ++y)
        for (long xo = 0; xo < W; ++xo) gin.at4(n, c, y, xo) = g;
    }
  return gin;
}

std::unique_ptr<Layer> GlobalAvgPool::clone() const {
  return std::make_unique<GlobalAvgPool>(*this);
}

}  // namespace goldfish::nn

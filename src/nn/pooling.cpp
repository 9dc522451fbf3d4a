#include "nn/pooling.h"

#include <sstream>

namespace goldfish::nn {

MaxPool2d::MaxPool2d(long kernel, long stride)
    : kernel_(kernel), stride_(stride) {
  GOLDFISH_CHECK(kernel > 0 && stride > 0, "bad pool dims");
}

MaxPool2d::MaxPool2d(const MaxPool2d& other)
    : Layer(other), kernel_(other.kernel_), stride_(other.stride_) {}

const Tensor& MaxPool2d::forward(const Tensor& x, bool /*train*/) {
  GOLDFISH_CHECK(x.rank() == 4, "pool expects (N,C,H,W)");
  in_shape_ = x.shape();
  const long N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const long oh = (H - kernel_) / stride_ + 1;
  const long ow = (W - kernel_) / stride_ + 1;
  GOLDFISH_CHECK(oh > 0 && ow > 0, "pool output collapses to zero");
  Tensor& out = slot(0, {N, C, oh, ow});
  argmax_.resize(out.numel());  // every entry written below
  const std::size_t plane = static_cast<std::size_t>(H * W);
  float* o = out.data();
  std::size_t* arg = argmax_.data();
  for (std::size_t base = 0; base < static_cast<std::size_t>(N * C) * plane;
       base += plane) {
    const float* img = x.data() + base;
    for (long y = 0; y < oh; ++y) {
      for (long xo = 0; xo < ow; ++xo, ++o, ++arg) {
        // Offsets within the plane. Seeded from the window's own first
        // element, so a window of values ≤ any sentinel (−inf) still owns
        // its output and argmax; the strict > keeps the first maximum in
        // row-major window order, and a NaN never displaces the running
        // maximum (a NaN seed keeps the window).
        const long first = y * stride_ * W + xo * stride_;
        long best_at = first;
        float best = img[first];
        for (long ky = 0; ky < kernel_; ++ky) {
          const long row = first + ky * W;
          const float* r = img + row;
          for (long kx = 0; kx < kernel_; ++kx) {
            if (r[kx] > best) {
              best = r[kx];
              best_at = row + kx;
            }
          }
        }
        *o = best;
        *arg = base + static_cast<std::size_t>(best_at);
      }
    }
  }
  return out;
}

const Tensor& MaxPool2d::backward(const Tensor& grad_output) {
  GOLDFISH_CHECK(grad_output.numel() == argmax_.size(),
                 "pool grad size mismatch");
  Tensor& gin = slot(1, in_shape_);
  gin.zero();  // scatter-add target: only argmax positions receive writes
  for (std::size_t i = 0; i < argmax_.size(); ++i)
    gin[argmax_[i]] += grad_output[i];
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
  in_shape_ = x.shape();
  const long N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  Tensor& out = slot(0, {N, C});
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
  const long N = in_shape_[0], C = in_shape_[1], H = in_shape_[2],
             W = in_shape_[3];
  GOLDFISH_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == N &&
                     grad_output.dim(1) == C,
                 "gap grad shape");
  Tensor& gin = slot(1, in_shape_);
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

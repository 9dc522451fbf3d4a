#include "nn/activations.h"

#include <algorithm>

namespace goldfish::nn {

const Tensor& ReLU::forward(const Tensor& x, bool /*train*/) {
  Tensor& y = y_.acquire(x.shape());
  Tensor& mask = mask_.acquire(x.shape());
  const float* xd = x.data();
  float* yd = y.data();
  float* md = mask.data();
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (xd[i] > 0.0f) {
      yd[i] = xd[i];
      md[i] = 1.0f;
    } else {
      yd[i] = 0.0f;
      md[i] = 0.0f;
    }
  }
  return y;
}

const Tensor& ReLU::backward(const Tensor& grad_output) {
  const Tensor& mask = mask_.read(grad_output.shape());
  Tensor& g = dx_.acquire(grad_output.shape());
  const float* gd_in = grad_output.data();
  const float* md = mask.data();
  float* gd = g.data();
  for (std::size_t i = 0; i < g.numel(); ++i) gd[i] = gd_in[i] * md[i];
  return g;
}

std::unique_ptr<Layer> ReLU::clone() const {
  return std::make_unique<ReLU>(*this);
}

const Tensor& Unflatten::forward(const Tensor& x, bool /*train*/) {
  if (x.rank() == 4) return x;  // already image-shaped
  GOLDFISH_CHECK(x.rank() == 2 && x.dim(1) == c_ * h_ * w_,
                 "unflatten input shape " + x.shape_str());
  Tensor& y = y_.acquire({x.dim(0), c_, h_, w_});
  std::copy(x.data(), x.data() + x.numel(), y.data());
  return y;
}

const Tensor& Unflatten::backward(const Tensor& grad_output) {
  Tensor& g = dx_.acquire({grad_output.dim(0), c_ * h_ * w_});
  std::copy(grad_output.data(), grad_output.data() + grad_output.numel(),
            g.data());
  return g;
}

std::unique_ptr<Layer> Unflatten::clone() const {
  return std::make_unique<Unflatten>(*this);
}

const Tensor& Flatten::forward(const Tensor& x, bool /*train*/) {
  GOLDFISH_CHECK(x.rank() >= 2, "flatten needs a batch dimension");
  *in_shape_ = x.shape();
  long features = 1;
  for (std::size_t i = 1; i < x.rank(); ++i) features *= x.dim(i);
  Tensor& y = y_.acquire({x.dim(0), features});
  std::copy(x.data(), x.data() + x.numel(), y.data());
  return y;
}

const Tensor& Flatten::backward(const Tensor& grad_output) {
  GOLDFISH_CHECK(!in_shape_->empty() &&
                     Tensor::shape_numel(*in_shape_) == grad_output.numel(),
                 "flatten grad size");
  Tensor& g = dx_.acquire(*in_shape_);
  std::copy(grad_output.data(), grad_output.data() + grad_output.numel(),
            g.data());
  return g;
}

std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>(*this);
}

}  // namespace goldfish::nn

#include "nn/linear.h"

#include <cmath>
#include <sstream>

#include "tensor/ops.h"

namespace goldfish::nn {

Linear::Linear(long in_features, long out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_(Tensor::randn({out_features, in_features}, rng, 0.0f,
                            std::sqrt(2.0f / static_cast<float>(in_features)))),
      bias_(Tensor::zeros({out_features})),
      grad_weight_(Tensor::zeros({out_features, in_features})),
      grad_bias_(Tensor::zeros({out_features})) {
  GOLDFISH_CHECK(in_features > 0 && out_features > 0, "bad linear dims");
}

Linear::Linear(const Linear& other)
    : ReluFusableLayer(),
      in_(other.in_),
      out_(other.out_),
      weight_(other.weight_),
      bias_(other.bias_),
      grad_weight_(Tensor::zeros(other.weight_.shape())),
      grad_bias_(Tensor::zeros(other.bias_.shape())) {}

const Tensor& Linear::forward(const Tensor& x, bool /*train*/) {
  GOLDFISH_CHECK(x.rank() == 2 && x.dim(1) == in_,
                 "linear input shape " + x.shape_str());
  *input_ = x;  // member copy: capacity reused across steps
  // Bias (and the peepholed ReLU) ride the GEMM writeback — no extra pass.
  Tensor& y = y_.acquire({x.dim(0), out_});
  gemm_fused_into(y, x, weight_, false, true,
                  fuse_relu() ? runtime::Epilogue::kBiasColRelu
                              : runtime::Epilogue::kBiasCol,
                  bias_);  // (N, out)
  return y;
}

const Tensor& Linear::accumulate_grads(const Tensor& grad_output) {
  GOLDFISH_CHECK(grad_output.rank() == 2 && grad_output.dim(1) == out_,
                 "linear grad shape");
  GOLDFISH_CHECK(!input_->empty(), "backward before forward");
  const Tensor* grad = &grad_output;
  if (fuse_relu()) {
    // The folded ReLU's mask: post-activation > 0 ⟺ pre-activation > 0.
    const Tensor& y = y_.read(grad_output.shape());
    Tensor& masked = masked_.acquire(grad_output.shape());
    mask_relu_grad(grad_output.data(), y.data(), masked.data(),
                   masked.numel());
    grad = &masked;
  }
  // dW = gradᵀ · x (accumulated in place) ; db = column sums
  gemm_acc(grad_weight_, *grad, *input_, true, false);
  const long n = grad->dim(0);
  for (long i = 0; i < n; ++i)
    for (long j = 0; j < out_; ++j)
      grad_bias_[std::size_t(j)] += grad->at(i, j);
  return *grad;
}

const Tensor& Linear::backward(const Tensor& grad_output) {
  const Tensor& grad = accumulate_grads(grad_output);
  Tensor& dx = dx_.acquire({grad.dim(0), in_});  // dx = grad · W
  gemm_into(dx, grad, weight_, false, false);
  return dx;
}

void Linear::backward_params(const Tensor& grad_output) {
  (void)accumulate_grads(grad_output);
}

std::vector<ParamRef> Linear::params() {
  return {{"weight", &weight_, &grad_weight_},
          {"bias", &bias_, &grad_bias_}};
}

std::unique_ptr<Layer> Linear::clone() const {
  return std::make_unique<Linear>(*this);
}

std::string Linear::name() const {
  std::ostringstream os;
  os << "linear(" << in_ << "->" << out_ << ")";
  return os.str();
}

}  // namespace goldfish::nn

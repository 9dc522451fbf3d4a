// Fully connected layer: y = x·Wᵀ + b.
#pragma once

#include "nn/layer.h"

namespace goldfish::nn {

class Linear final : public ReluFusableLayer {
 public:
  /// He-initialized weights (suits the ReLU networks all paper models use).
  Linear(long in_features, long out_features, Rng& rng);
  /// Copies the parameters only: gradients start at zero, unfused, and no
  /// forward cache is copied (what clone() returns).
  Linear(const Linear& other);
  Linear& operator=(const Linear&) = delete;

  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;
  std::size_t local_slots() const override { return 3; }  // y, masked g, dx

  long in_features() const { return in_; }
  long out_features() const { return out_; }

 private:
  long in_ = 0, out_ = 0;
  Tensor weight_;  // (out, in)
  Tensor bias_;    // (out)
  Tensor grad_weight_, grad_bias_;
  Tensor cached_input_;   // (N, in) from the last forward
  Tensor cached_output_;  // (N, out) post-ReLU, only kept when fused

  /// dW and db from `grad_output` (masked first when fused); returns the
  /// gradient the input-gradient GEMM consumes.
  const Tensor& accumulate_grads(const Tensor& grad_output);
};

}  // namespace goldfish::nn

// Fully connected layer: y = x·Wᵀ + b.
#pragma once

#include "nn/layer.h"

namespace goldfish::nn {

class Linear final : public Layer {
 public:
  /// He-initialized weights (suits the ReLU networks all paper models use).
  Linear(long in_features, long out_features, Rng& rng);

  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;
  std::size_t local_slots() const override { return 3; }  // y, masked g, dx

  long in_features() const { return in_; }
  long out_features() const { return out_; }

  /// Fold the ReLU that follows this layer into the GEMM writeback
  /// (Sequential sets this when it peepholes a Linear→ReLU pair). A fused
  /// forward returns the post-activation tensor and backward applies the
  /// ReLU mask itself, so the standalone ReLU layer must be skipped in both
  /// directions. Results are bit-identical to the unfused pair.
  void set_fuse_relu(bool fuse) { fuse_relu_ = fuse; }
  bool fuse_relu() const { return fuse_relu_; }

 private:
  long in_ = 0, out_ = 0;
  Tensor weight_;  // (out, in)
  Tensor bias_;    // (out)
  Tensor grad_weight_, grad_bias_;
  Tensor cached_input_;   // (N, in) from the last forward
  Tensor cached_output_;  // (N, out) post-ReLU, only kept when fused
  bool fuse_relu_ = false;

  /// dW and db from `grad_output` (masked first when fused); returns the
  /// gradient the input-gradient GEMM consumes.
  const Tensor& accumulate_grads(const Tensor& grad_output);
};

}  // namespace goldfish::nn

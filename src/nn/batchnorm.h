// Per-channel batch normalization for (N,C,H,W) tensors.
#pragma once

#include "nn/layer.h"

namespace goldfish::nn {

/// Standard batch-norm with learnable scale/shift and running statistics.
/// Training mode normalizes with batch statistics and updates the running
/// estimates; eval mode uses the running estimates (so a cloned teacher model
/// evaluates deterministically regardless of student batch composition).
class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(long channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;

 private:
  long channels_ = 0;
  float momentum_ = 0.1f;
  float eps_ = 1e-5f;
  Tensor gamma_, beta_;            // learnable (C)
  Tensor grad_gamma_, grad_beta_;  // accumulators (C)
  Tensor running_mean_, running_var_;
  PassBuffer<Tensor> out_, dx_;
  // Backward caches, written by training forwards only.
  PassBuffer<Tensor> xhat_;     // (N, C, H, W)
  PassBuffer<Tensor> inv_std_;  // (C)
};

}  // namespace goldfish::nn

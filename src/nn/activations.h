// Pointwise activation layers.
#pragma once

#include "nn/layer.h"

namespace goldfish::nn {

/// Rectified linear unit; caches the input sign mask for backward.
/// When a ReLU directly follows a Linear or Conv2d inside a Sequential, the
/// container peepholes the pair: the activation runs fused in the GEMM
/// writeback and this layer is skipped in both passes (so its y and mask
/// slots stay unset).
class ReLU final : public Layer {
 public:
  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "relu"; }
  std::size_t local_slots() const override { return 3; }  // y, mask, dx

 private:
  Shape mask_shape_;  // shape the mask slot was written for (empty = none)
};

/// Reshape (N, C·H·W) → (N,C,H,W). Datasets store flat feature vectors
/// (Table II reports dimensionality 784/3072); conv models prepend this.
class Unflatten final : public Layer {
 public:
  Unflatten(long channels, long height, long width)
      : c_(channels), h_(height), w_(width) {}

  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "unflatten"; }
  std::size_t local_slots() const override { return 2; }  // y, dx

 private:
  long c_, h_, w_;
};

/// Reshape (N,C,H,W) → (N, C·H·W); pure bookkeeping, gradient reshapes back.
class Flatten final : public Layer {
 public:
  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "flatten"; }
  std::size_t local_slots() const override { return 2; }  // y, dx

 private:
  Shape cached_shape_;
};

}  // namespace goldfish::nn

// Pointwise activation layers.
#pragma once

#include "nn/layer.h"

namespace goldfish::nn {

/// Rectified linear unit; caches the input sign mask for backward.
/// When a ReLU directly follows a Linear or Conv2d inside a Sequential, the
/// container peepholes the pair: the activation runs fused in the GEMM
/// writeback and this layer is skipped in both passes (so its buffers stay
/// empty).
class ReLU final : public Layer {
 public:
  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "relu"; }

 private:
  PassBuffer<Tensor> y_, mask_, dx_;
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

 private:
  long c_, h_, w_;
  PassBuffer<Tensor> y_, dx_;
};

/// Reshape (N,C,H,W) → (N, C·H·W); pure bookkeeping, gradient reshapes back.
class Flatten final : public Layer {
 public:
  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "flatten"; }

 private:
  PassBuffer<Shape> in_shape_;
  PassBuffer<Tensor> y_, dx_;
};

}  // namespace goldfish::nn

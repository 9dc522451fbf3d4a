// Spatial pooling layers.
#pragma once

#include "nn/layer.h"

namespace goldfish::nn {

/// Max pooling with square windows; caches argmax indices for backward.
/// Both passes run in parallel over the (n, c) planes, each plane in the
/// serial order, so results do not depend on the thread count.
class MaxPool2d final : public Layer {
 public:
  MaxPool2d(long kernel, long stride);

  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;

 private:
  long kernel_ = 2, stride_ = 2;
  PassBuffer<Shape> in_shape_;
  PassBuffer<std::vector<std::size_t>> argmax_;  // flat input index per output
  PassBuffer<Tensor> out_, dx_;
};

/// Global average pooling: (N,C,H,W) → (N,C). Used by the ResNet heads.
class GlobalAvgPool final : public Layer {
 public:
  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "gap"; }

 private:
  PassBuffer<Shape> in_shape_;
  PassBuffer<Tensor> out_, dx_;
};

}  // namespace goldfish::nn

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
  /// Copies the window geometry only, not the argmax cache (what clone()
  /// returns).
  MaxPool2d(const MaxPool2d& other);
  MaxPool2d& operator=(const MaxPool2d&) = delete;

  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;
  std::size_t local_slots() const override { return 2; }  // out, dx

 private:
  long kernel_ = 2, stride_ = 2;
  Shape in_shape_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
};

/// Global average pooling: (N,C,H,W) → (N,C). Used by the ResNet heads.
class GlobalAvgPool final : public Layer {
 public:
  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "gap"; }
  std::size_t local_slots() const override { return 2; }  // out, dx

 private:
  Shape in_shape_;
};

}  // namespace goldfish::nn

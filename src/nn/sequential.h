// Sequential container and the residual block used by the ResNet models.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace goldfish::nn {

/// Ordered chain of layers; forward runs left→right, backward right→left.
/// Linear→ReLU and Conv2d→ReLU pairs are peepholed into one fused GEMM
/// (bias + ReLU applied in the writeback) with the standalone ReLU skipped
/// in both passes; results are bit-identical to the unfused chain.
class Sequential final : public Layer {
 public:
  Sequential() = default;
  Sequential(const Sequential& other);
  Sequential& operator=(const Sequential& other);
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  void add(std::unique_ptr<Layer> layer);
  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  /// Backward down to the first layer with parameters, which accumulates
  /// its gradients without an input gradient; the parameter-free layers in
  /// front of it (Unflatten) run nothing.
  void backward_params(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;

 private:
  /// True when layers_[i] is a Linear or Conv2d immediately followed by a
  /// ReLU — the pair the forward/backward peephole fuses.
  bool fused_pair_at(std::size_t i) const;

  /// Right→left walk with the fused ReLUs folded into their Linear. With
  /// `params_only` the first parameterized layer runs backward_params and
  /// the walk stops there (returns null); otherwise returns ∂L/∂input.
  const Tensor* backward_walk(const Tensor& grad_output, bool params_only);

  std::vector<std::unique_ptr<Layer>> layers_;
  std::size_t first_param_ = 0;  // index of the first layer with parameters
                                 // (layers_.size() while there is none)
};

/// Pre-activation-free classic residual block:
///   y = relu( bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x) )
/// where shortcut is identity, or 1×1 strided conv + bn when the shape
/// changes (stage transitions in ResNet-32/56).
class ResidualBlock final : public Layer {
 public:
  /// in_h/in_w are the spatial dims entering the block.
  ResidualBlock(long in_channels, long out_channels, long stride, long in_h,
                long in_w, Rng& rng);
  /// Clones every sublayer; the copy carries no pass state.
  ResidualBlock(const ResidualBlock& other);
  ResidualBlock& operator=(const ResidualBlock&) = delete;

  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;

 private:
  std::unique_ptr<Layer> conv1_, bn1_, relu1_, conv2_, bn2_;
  std::unique_ptr<Layer> short_conv_, short_bn_;  // null for identity
  bool has_projection_ = false;
  PassBuffer<Tensor> mask_, masked_;  // the final ReLU's mask and g · mask
};

}  // namespace goldfish::nn

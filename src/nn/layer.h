// Layer abstraction: explicit forward/backward, no autograd tape.
//
// Each layer caches what its backward pass needs during forward, produces an
// input-gradient in backward, and accumulates parameter gradients internally.
// backward_params is the same pass without the input gradient: a model's
// first layer has nobody to hand one to.
// This is deliberately simpler than a tape: every layer's gradient is
// unit-testable in isolation against finite differences (see
// tests/nn_gradcheck_test.cpp), which is how we guarantee the substrate the
// unlearning results rest on is numerically correct.
//
// What a pass writes — outputs, masks, cached inputs, scratch — lives in the
// layer's own PassBuffer members: forward/backward return `const Tensor&`
// views of them, reshaped in place each pass, so steady-state passes
// allocate nothing and skip even the zero-fill. A returned reference stays
// valid until the same layer runs the same pass again. A copy of a layer
// carries none of it (PassBuffer copies start empty).
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "tensor/tensor.h"

namespace goldfish::nn {

/// One piece of a layer's pass state: a value its forward or backward
/// writes for a later pass to read (an output, a ReLU mask, a cached
/// input, an argmax table). Copying or assigning a PassBuffer yields an
/// empty one, so a copied layer — clone(), a Model copy — carries its
/// parameters and nothing its passes left behind.
template <class T>
class PassBuffer {
 public:
  PassBuffer() = default;
  PassBuffer(const PassBuffer&) noexcept {}
  PassBuffer& operator=(const PassBuffer&) noexcept {
    value_ = T();
    return *this;
  }
  PassBuffer(PassBuffer&&) noexcept = default;
  PassBuffer& operator=(PassBuffer&&) noexcept = default;

  T& operator*() { return value_; }
  const T& operator*() const { return value_; }
  T* operator->() { return &value_; }
  const T* operator->() const { return &value_; }

  /// The tensor reshaped to `shape` (Tensor::resize_uninit): contents
  /// intact when `shape` is the shape it already has, undefined otherwise,
  /// so a pass must overwrite (or explicitly zero) what it acquires.
  Tensor& acquire(const Shape& shape)
    requires std::is_same_v<T, Tensor>
  {
    value_.resize_uninit(shape);
    return value_;
  }

  /// What an earlier pass left at `shape`. Throws when no pass has filled
  /// the buffer at that shape: a readback never regrows.
  const Tensor& read(const Shape& shape) const
    requires std::is_same_v<T, Tensor>
  {
    GOLDFISH_CHECK(value_.rank() > 0 && value_.shape() == shape,
                   "pass buffer read at a shape no pass left in it");
    return value_;
  }

 private:
  T value_{};
};

/// A named view over a parameter and its gradient accumulator.
struct ParamRef {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Read-only view over a parameter's value (no gradient access) — what
/// const contexts (snapshotting, scalar counting, shape inspection) get.
struct ConstParamRef {
  std::string name;
  const Tensor* value = nullptr;
};

/// Base class for all network layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass. `train` toggles training-only behaviour (batch-norm
  /// statistics). Implementations cache activations needed by backward.
  /// The result references a buffer owned by this layer (or, for pure
  /// pass-throughs, the input itself) and is overwritten by the layer's
  /// next forward.
  virtual const Tensor& forward(const Tensor& x, bool train) = 0;

  /// Backward pass: input is ∂L/∂output, returns ∂L/∂input, and *adds*
  /// parameter gradients into the layer's accumulators (so multiple loss
  /// terms can be backpropagated before one optimizer step). The result
  /// references a buffer of this layer, clobbered by its next backward.
  virtual const Tensor& backward(const Tensor& grad_output) = 0;

  /// Parameter-gradient-only backward: adds exactly the parameter gradients
  /// backward() would, but need not produce ∂L/∂input. What Model::backward
  /// runs at the root. The default is the full backward; Linear and Conv2d
  /// skip their input-gradient GEMM, and Sequential stops at its first
  /// layer with parameters (the layers in front of it run no backward).
  virtual void backward_params(const Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// Parameters and their gradient accumulators, if any.
  virtual std::vector<ParamRef> params() { return {}; }

  /// Read-only parameter views. params() is logically const — it only
  /// exposes views and mutates nothing — so this is the one sanctioned
  /// const_cast seam; callers (Model::snapshot() const etc.) stay cast-free.
  std::vector<ConstParamRef> const_params() const {
    std::vector<ConstParamRef> out;
    for (const ParamRef& p : const_cast<Layer*>(this)->params())
      out.push_back({p.name, p.value});
    return out;
  }

  /// Deep copy, including parameter values (running stats too) but with
  /// freshly zeroed gradients and no pass state. Needed to spawn
  /// teacher/student and per-shard replicas.
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Short diagnostic name ("linear(400->120)").
  virtual std::string name() const = 0;

 protected:
  Layer() = default;
  Layer(const Layer&) = default;
  Layer& operator=(const Layer&) = default;
  Layer(Layer&&) = default;
  Layer& operator=(Layer&&) = default;
};

/// A layer whose GEMM writeback can absorb the ReLU that follows it
/// (Linear, Conv2d). Sequential sets the flag when it peepholes such a
/// pair: a fused forward returns the post-activation tensor and backward
/// applies the ReLU mask itself, so the standalone ReLU layer must be
/// skipped in both directions. Results are bit-identical to the unfused
/// pair. The flag is container-managed state (Sequential re-sets it on
/// every forward), so the layers' copy constructors start unfused.
class ReluFusableLayer : public Layer {
 public:
  void set_fuse_relu(bool fuse) { fuse_relu_ = fuse; }
  bool fuse_relu() const { return fuse_relu_; }

 protected:
  /// The folded ReLU's backward over `n` elements: out = g · [y > 0], where
  /// `y` is the post-activation output (y > 0 ⟺ pre-activation > 0). The
  /// product, not a select, so it is bitwise ReLU::backward's g · mask.
  static void mask_relu_grad(const float* g, const float* y, float* out,
                             std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = g[i] * (y[i] > 0.0f ? 1.0f : 0.0f);
  }

 private:
  bool fuse_relu_ = false;
};

}  // namespace goldfish::nn

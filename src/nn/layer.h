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
// Outputs live in a Workspace (see workspace.h): forward/backward return
// `const Tensor&` views of arena slots the layer claimed at attach time, so
// steady-state passes allocate nothing and skip even the zero-fill (the
// slots are reused uninitialized, Tensor::uninit-style). A layer that was
// never attached to a model-owned workspace lazily creates a private one, so
// standalone layers in tests behave identically. A returned reference stays
// valid until the same layer runs the same pass again.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/workspace.h"
#include "tensor/tensor.h"

namespace goldfish::nn {

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
  /// The result references a workspace slot owned by this layer (or, for
  /// pure pass-throughs, the input itself) and is overwritten by the
  /// layer's next forward.
  virtual const Tensor& forward(const Tensor& x, bool train) = 0;

  /// Backward pass: input is ∂L/∂output, returns ∂L/∂input, and *adds*
  /// parameter gradients into the layer's accumulators (so multiple loss
  /// terms can be backpropagated before one optimizer step). The result
  /// references a workspace slot, clobbered by the layer's next backward.
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
  /// freshly zeroed gradients and no workspace binding (the owning Model
  /// re-attaches). Needed to spawn teacher/student and per-shard replicas.
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Short diagnostic name ("linear(400->120)").
  virtual std::string name() const = 0;

  /// Bind this layer (and any children) to `ws`, claiming `local_slots()`
  /// consecutive slot keys starting at `next_key`. Containers override to
  /// recurse. Re-attaching the same structure reassigns the same keys, so
  /// existing slot storage stays valid.
  virtual void attach_workspace(Workspace* ws, std::size_t& next_key) {
    ws_ = ws;
    key_ = next_key;
    next_key += local_slots();
  }

  /// Number of workspace slots the layer itself writes (outputs, masks,
  /// scratch). Containers with no tensors of their own return 0.
  virtual std::size_t local_slots() const { return 0; }

  Layer() = default;
  // Copies never inherit a workspace binding: a clone belongs to a new
  // model (or none) and is re-attached by its owner.
  Layer(const Layer&) noexcept {}
  Layer& operator=(const Layer&) noexcept { return *this; }

 protected:
  /// Slot `i` of this layer's local_slots(), shaped `shape` (contents per
  /// the Workspace contract). Unbound layers use a lazily created private
  /// workspace.
  Tensor& slot(std::size_t i, const Shape& shape) {
    if (ws_ != nullptr) return ws_->acquire(key_ + i, shape);
    if (own_ws_ == nullptr) {
      own_ws_ = std::make_unique<Workspace>();
      own_ws_->ensure(local_slots());
    }
    return own_ws_->acquire(i, shape);
  }

 private:
  Workspace* ws_ = nullptr;   // model-owned arena, null when standalone
  std::size_t key_ = 0;       // first slot key claimed by this layer
  std::unique_ptr<Workspace> own_ws_;  // fallback for unbound layers
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

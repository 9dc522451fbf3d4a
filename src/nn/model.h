// Model: the unit the FL and unlearning layers operate on.
//
// A Model owns a root layer (usually Sequential) plus metadata, and exposes
// the whole-model operations the paper's algorithms need: parameter
// snapshot/restore (ω in Algorithm 1; load + zero_grad is the broadcast of
// the pooled FL round), gradient reset, cloning (teacher ← global model),
// and parameter-space arithmetic used by shard aggregation (Eq. 8–10) and
// server aggregation (Eq. 13).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "tensor/annotations.h"

namespace goldfish::nn {

class Model {
 public:
  Model() = default;
  Model(std::string arch_name, std::unique_ptr<Layer> root, long num_classes);

  /// Copies clone the layers: parameters and zeroed gradients, no pass
  /// state (the first forward of a copy sizes its own buffers).
  Model(const Model& other);
  Model& operator=(const Model& other);
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  bool valid() const { return root_ != nullptr; }
  const std::string& arch_name() const { return arch_name_; }
  long num_classes() const { return num_classes_; }

  /// Forward pass producing logits (N, num_classes). The result references
  /// a buffer of the last layer: valid until this model's next forward.
  const Tensor& forward(const Tensor& x, bool train = true) {
    return root_->forward(x, train);
  }

  /// Backpropagate a logit gradient: accumulates parameter gradients only.
  /// No input gradient is produced — the first layer with parameters skips
  /// its input-gradient GEMM and the parameter-free layers in front of it
  /// run no backward (Layer::backward_params). The accumulated gradients
  /// are bitwise those of the root's full backward().
  void backward(const Tensor& grad_logits) {
    root_->backward_params(grad_logits);
  }

  /// The root layer, for callers that need the full backward (∂L/∂input)
  /// or a layer-level view.
  Layer& root() { return *root_; }

  /// All parameters (including batch-norm running stats, whose grad is null).
  std::vector<ParamRef> params() { return root_->params(); }

  /// Read-only parameter views, usable on a const model (what the FL layer's
  /// architecture checks and snapshot paths use).
  std::vector<ConstParamRef> params() const { return root_->const_params(); }

  /// Zero every gradient accumulator.
  void zero_grad();

  /// Number of scalar parameters (trainable + running stats).
  std::size_t num_scalars() const;

  /// Value snapshot of every parameter tensor, in params() order. This is
  /// the ω that travels between client and server.
  std::vector<Tensor> snapshot() const;

  /// Restore parameter values from a snapshot of matching structure, in
  /// place (gradients untouched).
  void load(const std::vector<Tensor>& values);

 private:
  std::string arch_name_;
  std::unique_ptr<Layer> root_;
  long num_classes_ = 0;
};

// -- parameter-space arithmetic over snapshots -----------------------------
// Snapshots are plain vector<Tensor>; these helpers implement the weighted
// sums the paper writes as Σ (|D_i|/|D|)·ω_i.

/// result += scale · delta (elementwise across the whole snapshot).
GOLDFISH_HOT void axpy(std::vector<Tensor>& result,
                       const std::vector<Tensor>& delta, float scale);

/// Normalize aggregation weights in place into fold coefficients
/// w_s / Σw (float total, summed in order). Throws on a negative weight or
/// a zero total.
void normalize_weights(std::vector<float>& weights);

/// The weighted fold Σ coeffs[s]·snaps[s] over *borrowed* snapshots: the
/// first is written in place (out = c0·s0), the rest accumulated with axpy
/// in order. No snapshot is copied, which is what keeps server aggregation
/// from cloning the whole federation's parameters every round.
GOLDFISH_HOT std::vector<Tensor> weighted_fold(
    const std::vector<const std::vector<Tensor>*>& snaps,
    const std::vector<float>& coeffs);

/// Weighted average of borrowed snapshots; weights need not be normalized.
/// normalize_weights, then weighted_fold.
GOLDFISH_HOT std::vector<Tensor> weighted_average(
    const std::vector<const std::vector<Tensor>*>& snaps,
    std::vector<float> weights);

/// Owning-container convenience overload (shard aggregation, tests); same
/// arithmetic, bit-identical result.
std::vector<Tensor> weighted_average(
    const std::vector<std::vector<Tensor>>& snaps,
    std::vector<float> weights);

/// Squared L2 distance between two snapshots (model-space metric used in
/// tests and the B2 baseline's trust region).
float snapshot_distance_sq(const std::vector<Tensor>& a,
                           const std::vector<Tensor>& b);

}  // namespace goldfish::nn

// Baseline B2: rapid retraining (Liu et al., INFOCOM'22) — retraining from
// scratch accelerated by curvature information preserved from the original
// training run. The original method builds a diagonal empirical Fisher
// information matrix (FIM) and uses a first-order Taylor / natural-gradient
// approximation to take bigger, better-scaled steps.
//
// Substitution note (DESIGN.md §2): we reproduce the method's structure at
// simulator scale — a diagonal empirical FIM captured from the trained
// model on the remaining data preconditions SGD during the from-scratch
// retrain. Like the paper's B2, it retrains from scratch (no D_f influence)
// but converges faster than plain B1.
#pragma once

#include "fl/engine.h"
#include "losses/hard_loss.h"

namespace goldfish::baselines {

/// Diagonal empirical Fisher: E[g ⊙ g] of the per-batch hard-loss gradient,
/// one entry per trainable parameter scalar, in params() order (running-stat
/// tensors get zero entries).
std::vector<Tensor> diagonal_fim(nn::Model& model, const data::Dataset& ds,
                                 const losses::HardLoss& loss,
                                 long batch_size = 100);

struct RapidRetrainConfig {
  fl::FlConfig fl;
  /// Damping λ in the preconditioner 1/(F̂ᵢᵢ + λ).
  float damping = 1e-3f;
  /// Cap on the per-coordinate step amplification.
  float max_boost = 10.0f;
};

/// Federated rapid retraining: fresh init, FIM-preconditioned local SGD on
/// remaining data, FedAvg aggregation.
std::vector<fl::StepResult> rapid_retrain(
    const nn::Model& fresh_init, nn::Model& trained_model,
    std::vector<data::Dataset> remaining, data::Dataset server_test,
    const RapidRetrainConfig& cfg, long rounds,
    nn::Model* model_out = nullptr);

}  // namespace goldfish::baselines

// Baseline B1: federated retraining from scratch on the remaining data
// (the reference unlearning method every comparison in §IV is anchored to —
// FedRecovery-style exact retraining at the protocol level).
#pragma once

#include "fl/engine.h"

namespace goldfish::baselines {

/// Retrain a fresh model federatedly (FedAvg) over the clients' remaining
/// datasets. Returns per-round telemetry; the final model lands in
/// `model_out` if provided.
std::vector<fl::StepResult> retrain_from_scratch(
    const nn::Model& fresh_init, std::vector<data::Dataset> remaining,
    data::Dataset server_test, const fl::FlConfig& cfg, long rounds,
    nn::Model* model_out = nullptr);

}  // namespace goldfish::baselines

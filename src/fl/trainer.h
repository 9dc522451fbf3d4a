// Plain local training (the LocalTraining procedure of Algorithm 1):
// mini-batch SGD with a pluggable hard loss. This is what normal clients run
// and what the retraining baselines build on.
#pragma once

#include "data/dataset.h"
#include "losses/hard_loss.h"
#include "nn/model.h"
#include "nn/sgd.h"

namespace goldfish::fl {

struct TrainOptions {
  long epochs = 1;
  long batch_size = 100;  // paper: B = 100
  float lr = 0.001f;      // paper: η = 0.001
  float momentum = 0.9f;  // paper: β = 0.9
  std::string loss = "cross_entropy";
  std::uint64_t seed = 1;
};

struct TrainStats {
  /// Mean loss per epoch.
  std::vector<float> epoch_losses;
  /// Total number of optimizer steps taken.
  long steps = 0;
};

/// Train in place; returns per-epoch losses.
TrainStats train_local(nn::Model& model, const data::Dataset& ds,
                       const TrainOptions& opts);

}  // namespace goldfish::fl

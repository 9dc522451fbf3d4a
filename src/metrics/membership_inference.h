// Membership-inference probe: an independent verifier of unlearning.
//
// The paper motivates unlearning with membership-inference risk (§I, citing
// ML-Leaks): a model that memorized a sample answers it with conspicuously
// high confidence. This module implements the standard confidence-threshold
// attack — useful both as an *audit* (did unlearning actually scrub D_f?)
// and as an extra evaluation axis beyond backdoor ASR.
//
// Protocol: score every candidate sample by the model's confidence in its
// true label; sweep a threshold; report the attack's best balanced accuracy
// and its AUC over (members = training rows, non-members = held-out rows).
// 0.5 = cannot distinguish (perfectly forgotten); ≫ 0.5 = memorized.
#pragma once

#include "data/dataset.h"
#include "nn/model.h"

namespace goldfish::metrics {

struct MiaResult {
  /// Area under the ROC of the confidence attack, in [0, 1]; 0.5 = chance.
  double auc = 0.5;
  /// Best balanced accuracy over all thresholds, in [0.5, 1].
  double best_accuracy = 0.5;
  /// Mean true-label confidence on members / non-members (diagnostic).
  double member_confidence = 0.0;
  double nonmember_confidence = 0.0;
};

/// Run the confidence-threshold membership inference attack.
/// `members` are samples that were (or may have been) trained on;
/// `nonmembers` are drawn from the same distribution but never trained on.
MiaResult membership_inference(nn::Model& model, const data::Dataset& members,
                               const data::Dataset& nonmembers);

/// Per-sample true-label confidences (exposed for tests and custom audits).
std::vector<double> true_label_confidences(nn::Model& model,
                                           const data::Dataset& ds);

}  // namespace goldfish::metrics

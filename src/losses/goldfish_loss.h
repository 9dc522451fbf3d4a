// The composite Goldfish loss (Eq. 1–6):
//
//   L = L_h + µ_c·L_c + µ_d·L_d,   L_h = L_r − L_f
//
// where L_r / L_f are hard losses on the remaining / removed batch, L_c is
// the confusion loss on the removed batch, and L_d the distillation loss on
// the remaining batch. Ablation toggles (Table X) switch individual terms
// off; the hard loss itself is pluggable (Table XI).
#pragma once

#include <memory>

#include "losses/distillation.h"
#include "losses/hard_loss.h"

namespace goldfish::losses {

struct GoldfishLossConfig {
  float mu_c = 0.25f;        ///< confusion weight µ_c (paper §IV-B)
  float mu_d = 1.0f;         ///< distillation weight µ_d (paper §IV-B)
  float temperature = 3.0f;  ///< distillation temperature T (paper §IV-B)
  /// Saturation point of the −L_f term. Eq. 1 is unbounded below (maximizing
  /// the forget loss); once the per-batch forget loss exceeds this cap its
  /// gradient contribution is dropped, which keeps unlearning stable while
  /// preserving the paper's intent (deconfidence on D_f). ≈ −log(1/C) for
  /// C=400 — comfortably past "uniform prediction".
  float forget_cap = 6.0f;
  std::string hard_loss_name = "cross_entropy";
  // Ablation switches (Table X rows).
  bool use_forget_term = true;   ///< the −L_f part of L_h
  bool use_confusion = true;     ///< µ_c·L_c
  bool use_distillation = true;  ///< µ_d·L_d
};

/// Per-batch evaluation result. Gradients are w.r.t. the student logits on
/// the corresponding batch; `grad_f` is empty when no removed data was given.
struct GoldfishBatchLoss {
  float total = 0.0f;
  float hard_r = 0.0f;
  float hard_f = 0.0f;
  float confusion = 0.0f;
  float distillation = 0.0f;
  Tensor grad_r;
  Tensor grad_f;
};

/// Stateless evaluator for the composite loss.
class GoldfishLoss {
 public:
  explicit GoldfishLoss(GoldfishLossConfig cfg = GoldfishLossConfig());
  GoldfishLoss(const GoldfishLoss& other);
  GoldfishLoss& operator=(const GoldfishLoss& other);

  const GoldfishLossConfig& config() const { return cfg_; }
  void set_temperature(float t) { cfg_.temperature = t; }

  /// Full unlearning batch: remaining data with teacher guidance plus a
  /// (possibly empty) removed batch — eval_remaining plus eval_forget. Pass
  /// empty tensors/labels for D_f when the client has no deletion request
  /// (Algorithm 1 line 32).
  GoldfishBatchLoss eval(const Tensor& student_logits_r,
                         const std::vector<long>& labels_r,
                         const Tensor& teacher_logits_r,
                         const Tensor& student_logits_f,
                         const std::vector<long>& labels_f) const;

  /// Remaining-data terms only (L_r + µ_d·L_d); fills grad_r. The training
  /// loop evaluates D_r and D_f in separate forward/backward passes because
  /// layer caches hold one batch at a time.
  GoldfishBatchLoss eval_remaining(const Tensor& student_logits_r,
                                   const std::vector<long>& labels_r,
                                   const Tensor& teacher_logits_r) const;

  /// Removed-data terms only (−L_f + µ_c·L_c); fills grad_f.
  GoldfishBatchLoss eval_forget(const Tensor& student_logits_f,
                                const std::vector<long>& labels_f) const;

 private:
  GoldfishLossConfig cfg_;
  std::unique_ptr<HardLoss> hard_;
};

}  // namespace goldfish::losses

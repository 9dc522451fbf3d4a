// The Goldfish procedure (Algorithm 1, lines 24–35): knowledge-distillation
// retraining of a student model against a fixed teacher, with the composite
// loss of Eq. 1–6, adaptive temperature (Eq. 11), and early termination by
// excess empirical risk (Eq. 7).
#pragma once

#include "core/adaptive_temperature.h"
#include "data/dataset.h"
#include "losses/goldfish_loss.h"
#include "nn/model.h"

namespace goldfish::core {

struct DistillOptions {
  long max_epochs = 5;    ///< n in Algorithm 1 (upper bound when early
                          ///< termination is enabled)
  long batch_size = 100;  ///< paper: B = 100
  float lr = 0.001f;      ///< paper: η = 0.001
  float momentum = 0.9f;  ///< paper: β = 0.9
  losses::GoldfishLossConfig loss;
  /// Extension module: adapt T to the client's deletion fraction (Eq. 11).
  bool use_adaptive_temperature = true;
  AdaptiveTemperature temperature;
  /// Optimization module: stop when excess empirical risk ≤ delta (Eq. 7).
  bool use_early_termination = true;
  float delta = 0.05f;
  std::uint64_t seed = 1;
};

struct DistillResult {
  std::vector<float> epoch_losses;  ///< student total loss per local epoch
  long epochs_run = 0;
  bool terminated_early = false;
  float final_excess_risk = 0.0f;
  float temperature_used = 0.0f;
};

/// Everything Algorithm 1 reads from the frozen teacher on one client's
/// remaining data, from one pass over it.
struct TeacherTargets {
  Tensor logits;  ///< (|D_r|, C): row i is the teacher's logits for row i
  /// L(ω^{t−1}) of Eq. 7: the mean over 256-row batches of the batch-mean
  /// hard loss, the reference point of early termination.
  float reference_loss = 0.0f;
};

/// One eval-mode teacher pass over `d_r` in 256-row chunks. `teacher` is
/// non-const only because forward writes its layer caches; its weights are
/// never modified. A sample's GEMM outputs (its rows, or its conv
/// columns) depend neither on the batch's size nor on the sample's place
/// in it, and eval-mode batch norm uses running statistics, so a cached
/// row is bitwise the logits a forward of any batch holding that sample
/// would give (pinned by
/// TeacherTargets.RowsDoNotDependOnBatchComposition).
TeacherTargets teacher_targets(nn::Model& teacher, const data::Dataset& d_r,
                               const DistillOptions& opts);

/// Run the Goldfish local update against cached teacher targets of `d_r`
/// (teacher_targets above): each batch gathers its teacher rows by index,
/// so the teacher runs no forward here. `d_f` may be empty (normal
/// clients, Algorithm 1 line 32).
DistillResult goldfish_distill(nn::Model& student,
                               const TeacherTargets& targets,
                               const data::Dataset& d_r,
                               const data::Dataset& d_f,
                               const DistillOptions& opts);

// The two forwarders below stay only because the benchmark's traced
// unlearner hook (perfbench/src/unlearn.cpp) calls them; delete both when
// that hook is rewritten (ROADMAP items 3, 5 and 8).

/// Forwarder: teacher_targets(teacher, d_r, opts), with its reference loss
/// replaced by `reference_loss`, then the overload above.
DistillResult goldfish_distill(nn::Model& student, nn::Model& teacher,
                               const data::Dataset& d_r,
                               const data::Dataset& d_f, float reference_loss,
                               const DistillOptions& opts);

/// Forwarder: teacher_targets(prev_global, d_r, opts).reference_loss.
float reference_loss_of(nn::Model& prev_global, const data::Dataset& d_r,
                        const DistillOptions& opts);

}  // namespace goldfish::core

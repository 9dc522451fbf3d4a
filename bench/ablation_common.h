// Shared harness for the loss-function studies (Tables X and XI): train a
// student against the contaminated teacher under a given loss configuration,
// recording accuracy and backdoor ASR at epoch checkpoints.
#pragma once

#include "bench/common.h"

namespace goldfish::bench {

struct CheckpointRow {
  long epoch = 0;
  double accuracy = 0.0;
  double asr = 0.0;
};

/// Centralized (single-client view, matching the paper's ablation protocol)
/// distillation run: pooled remaining data + removed data, checkpointed.
inline std::vector<CheckpointRow> run_loss_study(
    const Scenario& s, const losses::GoldfishLossConfig& loss_cfg,
    const std::vector<long>& checkpoints, std::uint64_t seed = 11011) {
  data::Dataset d_r;
  for (const data::Dataset& d : s.remaining())
    d_r = data::Dataset::concat(d_r, d);
  data::Dataset d_f = s.removed()[0];

  nn::Model student = s.fresh;
  nn::Model teacher = s.trained;

  core::DistillOptions opts;
  opts.batch_size = s.prof.batch;
  opts.lr = s.prof.lr;
  opts.loss = loss_cfg;
  opts.use_early_termination = false;
  opts.use_adaptive_temperature = false;

  std::vector<CheckpointRow> rows;
  long done = 0;
  // One teacher pass serves every checkpoint's distillation.
  const core::TeacherTargets targets =
      core::teacher_targets(teacher, d_r, opts);
  for (long cp : checkpoints) {
    opts.max_epochs = cp - done;
    opts.seed = seed + static_cast<std::uint64_t>(cp);
    core::goldfish_distill(student, targets, d_r, d_f, opts);
    done = cp;
    CheckpointRow row;
    row.epoch = cp;
    row.accuracy = metrics::accuracy(student, s.tt.test);
    row.asr = metrics::attack_success_rate(student, s.probe);
    rows.push_back(row);
  }
  return rows;
}

/// Checkpoints per scale; the paper reports epochs {10,20,30,40}.
inline std::vector<long> study_checkpoints() {
  if (metrics::full_scale()) return {10, 20, 30, 40};
  return {3, 6, 9, 12};
}

}  // namespace goldfish::bench

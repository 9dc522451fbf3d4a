#include "core/distill_trainer.h"

#include <algorithm>

#include "core/early_termination.h"
#include "nn/sgd.h"
#include "tensor/check.h"

namespace goldfish::core {

TeacherTargets teacher_targets(nn::Model& teacher, const data::Dataset& d_r,
                               const DistillOptions& opts) {
  GOLDFISH_CHECK(!d_r.empty(), "remaining dataset is empty");
  const auto hard = losses::make_hard_loss(opts.loss.hard_loss_name);
  const long classes = teacher.num_classes();
  TeacherTargets t;
  t.logits = Tensor::uninit({d_r.size(), classes});
  double total = 0.0;
  long batches = 0;
  float* dst = t.logits.data();
  std::vector<long> y;
  d_r.for_each_chunk(256, [&](const Tensor& x, const long* yp, long rows) {
    const Tensor& z = teacher.forward(x, /*train=*/false);
    dst = std::copy(z.data(), z.data() + z.numel(), dst);
    y.assign(yp, yp + rows);
    total += hard->eval(z, y).value;
    ++batches;
  });
  // Mean of 256-row batch means: the reference the excess-risk test reads.
  t.reference_loss = static_cast<float>(total / double(batches));
  return t;
}

float reference_loss_of(nn::Model& prev_global, const data::Dataset& d_r,
                        const DistillOptions& opts) {
  return teacher_targets(prev_global, d_r, opts).reference_loss;
}

DistillResult goldfish_distill(nn::Model& student, nn::Model& teacher,
                               const data::Dataset& d_r,
                               const data::Dataset& d_f, float reference_loss,
                               const DistillOptions& opts) {
  TeacherTargets targets = teacher_targets(teacher, d_r, opts);
  targets.reference_loss = reference_loss;
  return goldfish_distill(student, targets, d_r, d_f, opts);
}

DistillResult goldfish_distill(nn::Model& student,
                               const TeacherTargets& targets,
                               const data::Dataset& d_r,
                               const data::Dataset& d_f,
                               const DistillOptions& opts) {
  GOLDFISH_CHECK(!d_r.empty(), "remaining dataset is empty");
  GOLDFISH_CHECK(targets.logits.rank() == 2 &&
                     targets.logits.dim(0) == d_r.size(),
                 "teacher targets do not cover the remaining dataset");

  // Extension module: per-client temperature from the deletion fraction.
  losses::GoldfishLossConfig loss_cfg = opts.loss;
  if (opts.use_adaptive_temperature)
    loss_cfg.temperature = opts.temperature(d_r.size(), d_f.size());
  const losses::GoldfishLoss loss(loss_cfg);

  nn::Sgd::Options sgd_opts;
  sgd_opts.lr = opts.lr;
  sgd_opts.momentum = opts.momentum;
  nn::Sgd sgd(sgd_opts);
  Rng rng(opts.seed);

  ExcessRiskTracker tracker(targets.reference_loss, opts.delta);
  DistillResult result;
  result.temperature_used = loss_cfg.temperature;

  // Batch storage for the whole task: features, labels and the gathered
  // teacher rows are resized in place per batch.
  const auto classes = static_cast<std::size_t>(targets.logits.dim(1));
  Tensor x, xf, teacher_rows;
  std::vector<long> y, yf;

  const bool have_forget = !d_f.empty();
  for (long epoch = 0; epoch < opts.max_epochs; ++epoch) {
    data::BatchIterator it_r(d_r, opts.batch_size, rng);
    // The removed set is small (|D_r| ≫ |D_f|); cycle its batches so every
    // remaining-data batch is paired with forget pressure.
    data::BatchIterator it_f(have_forget ? d_f : d_r, opts.batch_size, rng);
    const std::size_t f_batches = have_forget ? it_f.num_batches() : 0;

    double epoch_loss = 0.0;
    double epoch_hard = 0.0;  // comparable to the reference (both are the
                              // plain hard loss on D_r, per Eq. 7)
    for (std::size_t b = 0; b < it_r.num_batches(); ++b) {
      double step_loss = 0.0;
      // Remaining-data pass: hard loss + distillation from the teacher.
      {
        const auto [idx, count] = it_r.batch_span(b);
        d_r.batch_into(idx, count, x, y);
        teacher_rows.resize_uninit(
            {static_cast<long>(count), static_cast<long>(classes)});
        for (std::size_t r = 0; r < count; ++r)
          std::copy_n(targets.logits.data() + idx[r] * classes, classes,
                      teacher_rows.data() + r * classes);
        const Tensor& student_logits = student.forward(x, /*train=*/true);
        const losses::GoldfishBatchLoss lr =
            loss.eval_remaining(student_logits, y, teacher_rows);
        student.backward(lr.grad_r);
        step_loss += lr.total;
        epoch_hard += lr.hard_r;
      }
      // Removed-data pass: −L_f (saturated) + confusion loss.
      if (have_forget) {
        const auto [idx, count] = it_f.batch_span(b % f_batches);
        d_f.batch_into(idx, count, xf, yf);
        const Tensor& student_logits_f = student.forward(xf, /*train=*/true);
        const losses::GoldfishBatchLoss lf =
            loss.eval_forget(student_logits_f, yf);
        student.backward(lf.grad_f);
        step_loss += lf.total;
      }
      sgd.step(student);
      epoch_loss += step_loss;
    }
    const float mean_loss =
        static_cast<float>(epoch_loss / double(it_r.num_batches()));
    result.epoch_losses.push_back(mean_loss);
    ++result.epochs_run;

    tracker.record_epoch(
        static_cast<float>(epoch_hard / double(it_r.num_batches())));
    if (opts.use_early_termination && tracker.should_stop()) {
      result.terminated_early = true;
      break;
    }
  }
  result.final_excess_risk = tracker.excess_risk();
  return result;
}

}  // namespace goldfish::core

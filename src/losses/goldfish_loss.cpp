#include "losses/goldfish_loss.h"

#include "tensor/check.h"

namespace goldfish::losses {

GoldfishLoss::GoldfishLoss(GoldfishLossConfig cfg)
    : cfg_(std::move(cfg)), hard_(make_hard_loss(cfg_.hard_loss_name)) {}

GoldfishLoss::GoldfishLoss(const GoldfishLoss& other)
    : cfg_(other.cfg_), hard_(other.hard_->clone()) {}

GoldfishLoss& GoldfishLoss::operator=(const GoldfishLoss& other) {
  if (this == &other) return *this;
  cfg_ = other.cfg_;
  hard_ = other.hard_->clone();
  return *this;
}

GoldfishBatchLoss GoldfishLoss::eval(const Tensor& student_logits_r,
                                     const std::vector<long>& labels_r,
                                     const Tensor& teacher_logits_r,
                                     const Tensor& student_logits_f,
                                     const std::vector<long>& labels_f) const {
  GoldfishBatchLoss out =
      eval_remaining(student_logits_r, labels_r, teacher_logits_r);
  if (student_logits_f.empty()) return out;
  GoldfishBatchLoss f = eval_forget(student_logits_f, labels_f);
  out.total += f.total;
  out.hard_f = f.hard_f;
  out.confusion = f.confusion;
  out.grad_f = std::move(f.grad_f);
  return out;
}

GoldfishBatchLoss GoldfishLoss::eval_remaining(
    const Tensor& student_logits_r, const std::vector<long>& labels_r,
    const Tensor& teacher_logits_r) const {
  GOLDFISH_CHECK(!student_logits_r.empty(), "remaining batch is required");
  GoldfishBatchLoss out;

  // L_r — hard loss on the remaining data. Always on: it is what keeps the
  // student learning the retained knowledge.
  LossResult hr = hard_->eval(student_logits_r, labels_r);
  out.hard_r = hr.value;
  out.grad_r = std::move(hr.grad_logits);
  out.total = hr.value;

  // µ_d·L_d — distillation against the teacher on remaining data only
  // (the basic-model module's "knowledge transfer happens exclusively on
  // D_r" guarantee).
  if (cfg_.use_distillation) {
    GOLDFISH_CHECK(!teacher_logits_r.empty(),
                   "distillation requires teacher logits");
    LossResult d =
        distillation_loss(teacher_logits_r, student_logits_r,
                          cfg_.temperature);
    out.distillation = d.value;
    out.total += cfg_.mu_d * d.value;
    out.grad_r.add_scaled(d.grad_logits, cfg_.mu_d);
  }
  return out;
}

GoldfishBatchLoss GoldfishLoss::eval_forget(
    const Tensor& student_logits_f, const std::vector<long>& labels_f) const {
  GOLDFISH_CHECK(!student_logits_f.empty(), "forget batch is required");
  GoldfishBatchLoss out;
  // −L_f — push the student's predictions on D_f away from the true labels
  // (Eq. 1), saturated at forget_cap (see config comment).
  LossResult hf = hard_->eval(student_logits_f, labels_f);
  out.hard_f = hf.value;
  out.grad_f = Tensor(student_logits_f.shape());
  if (cfg_.use_forget_term) {
    out.total -= hf.value;
    if (hf.value < cfg_.forget_cap) {
      out.grad_f = hf.grad_logits;
      out.grad_f *= -1.0f;
    }
  }
  // µ_c·L_c — confusion loss flattens prediction confidence on D_f.
  if (cfg_.use_confusion) {
    LossResult c = confusion_loss(student_logits_f);
    out.confusion = c.value;
    out.total += cfg_.mu_c * c.value;
    out.grad_f.add_scaled(c.grad_logits, cfg_.mu_c);
  }
  return out;
}

}  // namespace goldfish::losses

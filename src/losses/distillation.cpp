#include "losses/distillation.h"

#include <cmath>
#include <vector>

#include "tensor/check.h"
#include "tensor/ops.h"

namespace goldfish::losses {

LossResult distillation_loss(const Tensor& teacher_logits,
                             const Tensor& student_logits,
                             float temperature) {
  GOLDFISH_CHECK(teacher_logits.same_shape(student_logits),
                 "teacher/student logit shape mismatch");
  GOLDFISH_CHECK(student_logits.rank() == 2, "expected (N, classes)");
  GOLDFISH_CHECK(temperature > 0.0f, "temperature must be positive");
  const long n = student_logits.dim(0), c = student_logits.dim(1);

  const Tensor pt = softmax_rows(teacher_logits, temperature);
  const Tensor log_ps = log_softmax_rows(student_logits, temperature);
  const Tensor ps = softmax_rows(student_logits, temperature);

  LossResult r;
  r.grad_logits = Tensor({n, c});
  double total = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  const float grad_scale = inv_n / temperature;
  for (long i = 0; i < n; ++i) {
    for (long j = 0; j < c; ++j) {
      total -= double(pt.at(i, j)) * log_ps.at(i, j);
      // ∂/∂z_j of −Σ_k P_T,k·log P_S,k = (P_S,j − P_T,j)/T.
      r.grad_logits.at(i, j) = (ps.at(i, j) - pt.at(i, j)) * grad_scale;
    }
  }
  r.value = static_cast<float>(total / n);
  return r;
}

LossResult confusion_loss(const Tensor& student_logits) {
  GOLDFISH_CHECK(student_logits.rank() == 2, "expected (N, classes)");
  const long n = student_logits.dim(0), c = student_logits.dim(1);
  const Tensor p = softmax_rows(student_logits);
  const std::vector<float> var = row_variance(p);

  LossResult r;
  r.grad_logits = Tensor({n, c});
  double total = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  const float inv_c = 1.0f / static_cast<float>(c);
  std::vector<float> dL_dp(static_cast<std::size_t>(c));  // one row's dL/dp
  for (long i = 0; i < n; ++i) {
    const float v = var[static_cast<std::size_t>(i)];
    const float sd = std::sqrt(std::max(v, 0.0f));
    total += sd;
    if (sd < 1e-8f) continue;  // at the uniform minimum the gradient is 0
    // mean of the probability row
    float mean = 0.0f;
    for (long j = 0; j < c; ++j) mean += p.at(i, j);
    mean *= inv_c;
    // d√V/dp_j = (p_j − mean)/(C·√V); then chain through the softmax
    // Jacobian: dL/dz_k = Σ_j dL/dp_j · p_j(δ_jk − p_k).
    float dot = 0.0f;  // Σ_j dL/dp_j · p_j
    for (long j = 0; j < c; ++j) {
      dL_dp[std::size_t(j)] = (p.at(i, j) - mean) * inv_c / sd;
      dot += dL_dp[std::size_t(j)] * p.at(i, j);
    }
    for (long k = 0; k < c; ++k)
      r.grad_logits.at(i, k) =
          (dL_dp[std::size_t(k)] * p.at(i, k) - p.at(i, k) * dot) * inv_n;
  }
  r.value = static_cast<float>(total / n);
  return r;
}

}  // namespace goldfish::losses

#include "nn/sgd.h"

#include <cmath>

namespace goldfish::nn {

void Sgd::step(Model& model) {
  auto params = model.params();
  if (velocity_.empty()) {
    velocity_.reserve(params.size());
    for (const ParamRef& p : params)
      velocity_.push_back(Tensor::zeros(p.value->shape()));
  }
  GOLDFISH_CHECK(velocity_.size() == params.size(),
                 "optimizer bound to a different model structure");

  // Global gradient-norm clip across all trainable tensors.
  float scale = 1.0f;
  if (opts_.clip_norm > 0.0f) {
    double norm_sq = 0.0;
    for (const ParamRef& p : params)
      if (p.grad != nullptr) norm_sq += p.grad->squared_norm();
    const float norm = static_cast<float>(std::sqrt(norm_sq));
    if (norm > opts_.clip_norm) scale = opts_.clip_norm / norm;
  }

  for (std::size_t i = 0; i < params.size(); ++i) {
    ParamRef& p = params[i];
    if (p.grad == nullptr) continue;
    Tensor& v = velocity_[i];
    float* vd = v.data();
    float* wd = p.value->data();
    float* gd = p.grad->data();
    // The gradient is zeroed as it is consumed, not in a pass of its own.
    for (std::size_t j = 0; j < v.numel(); ++j) {
      float g = gd[j] * scale;
      gd[j] = 0.0f;
      if (opts_.weight_decay > 0.0f) g += opts_.weight_decay * wd[j];
      vd[j] = opts_.momentum * vd[j] + g;
      wd[j] -= opts_.lr * vd[j];
    }
  }
}

}  // namespace goldfish::nn

// Baseline B3: unlearning via an incompetent teacher (Chundawat et al.,
// AAAI'23), lifted to the federated setting.
//
// The student starts from the trained model (model-update adjustment, no
// full retraining). Two teachers guide it: the *competent* teacher (the
// trained model itself) on the remaining data, and an *incompetent* teacher
// (a randomly initialized network) on the removed data. Matching the random
// teacher's outputs on D_f scrubs the learned pattern while the competent
// teacher preserves utility on D_r.
#pragma once

#include "fl/engine.h"

namespace goldfish::baselines {

struct IncompetentTeacherConfig {
  fl::FlConfig fl;
  float kd_temperature = 1.0f;  ///< AAAI'23 uses T = 1 by default
  /// Weight of the incompetent-teacher KL term on D_f.
  float forget_weight = 1.0f;
};

/// Run federated incompetent-teacher unlearning. `trained` is the
/// contaminated global model (also the starting student and the competent
/// teacher); `incompetent_init` is a never-trained model of the same
/// architecture. `remaining` / `removed` are per-client splits (removed may
/// be empty for normal clients).
std::vector<fl::StepResult> incompetent_teacher_unlearn(
    const nn::Model& trained, const nn::Model& incompetent_init,
    std::vector<data::Dataset> remaining, std::vector<data::Dataset> removed,
    data::Dataset server_test, const IncompetentTeacherConfig& cfg,
    long rounds, nn::Model* model_out = nullptr);

}  // namespace goldfish::baselines

#include "baselines/retrain_scratch.h"

namespace goldfish::baselines {

std::vector<fl::StepResult> retrain_from_scratch(
    const nn::Model& fresh_init, std::vector<data::Dataset> remaining,
    data::Dataset server_test, const fl::FlConfig& cfg, long rounds,
    nn::Model* model_out) {
  fl::Engine engine(fresh_init, std::move(remaining), std::move(server_test),
                    cfg);
  std::vector<fl::StepResult> results =
      engine.collect(engine.sync_scenario(rounds));
  if (model_out != nullptr) *model_out = engine.global_model();
  return results;
}

}  // namespace goldfish::baselines

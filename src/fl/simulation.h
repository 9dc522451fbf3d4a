// Kept only because the benchmark program in perfbench/ builds against it;
// everything else uses fl::Engine (fl/engine.h) directly.
#pragma once

#include "fl/engine.h"

namespace goldfish::fl {

class FederatedSim {
 public:
  FederatedSim(nn::Model global, std::vector<data::Dataset> client_data,
               data::Dataset server_test, FlConfig cfg)
      : engine_(std::move(global), std::move(client_data),
                std::move(server_test), std::move(cfg)) {}

  Engine& engine() { return engine_; }
  nn::Model& global_model() { return engine_.global_model(); }
  void set_client_update(Engine::ClientUpdateFn fn) {
    engine_.set_client_update(std::move(fn));
  }

 private:
  Engine engine_;
};

}  // namespace goldfish::fl

// Top-level Goldfish federated unlearning (Algorithm 1).
//
// On a deletion request the trained-but-contaminated global model becomes
// the *teacher*; the global model is re-initialized (ω ← ω0) and every
// client then runs the Goldfish distillation procedure — unlearned clients
// with their (D_r, D_f) split, normal clients with D_f = ∅ — after which the
// server aggregates with adaptive weights (Eq. 12–13). Accuracy recovers at
// distillation speed while D_f's influence is never transferred.
//
// The unlearner executes on the same event-driven fl::Engine as federated
// training: distillation is just its client-update function, and run_round
// is the canned synchronous scenario. Because of that, unlearning composes
// with every server regime the engine supports — run a buffered scenario
// (or sampling, availability windows, adaptive K) through engine() and the
// distillation rounds become semi-asynchronous with no extra code.
#pragma once

#include <mutex>
#include <optional>

#include "core/distill_trainer.h"
#include "fl/engine.h"

namespace goldfish::core {

/// One client's deletion request: rows (indices into that client's local
/// dataset) to forget.
struct UnlearnRequest {
  std::size_t client_id = 0;
  std::vector<std::size_t> rows;
};

/// Split one client dataset into remaining / removed rows per a deletion
/// request (`rows` index `local`). The shared splitter behind synchronous
/// request_deletion and the asynchronous mid-buffer trigger below.
struct DeletionSplit {
  data::Dataset remaining;
  data::Dataset removed;
};
DeletionSplit split_deletion(const data::Dataset& local,
                             const UnlearnRequest& req);

/// Build the scenario-timeline deletion trigger for a request against an
/// engine's federation: the returned event, handed to
/// Engine::async_scenario (or placed in any Scenario), replaces the
/// client's data with its remaining rows at virtual time `vtime` — evicting
/// the client's buffered and in-flight updates, which trained on the
/// deleted rows, before they can reach an aggregation. The removed rows
/// (D_f) are returned for the distillation phase (GoldfishUnlearner) and
/// auditing.
struct AsyncDeletionPlan {
  fl::DeletionEvent event;
  data::Dataset removed;
};
AsyncDeletionPlan make_async_deletion(const fl::Engine& engine,
                                      const UnlearnRequest& req,
                                      double vtime);

struct UnlearnConfig {
  DistillOptions distill;
  std::string aggregator = "adaptive";  ///< extension module default
  /// 0 → shared runtime Scheduler; non-zero → private pool for client-level
  /// tasks only (kernels stay on the global pool — see fl::FlConfig).
  std::size_t threads = 0;
  std::uint64_t seed = 17;
};

/// Telemetry per unlearning round.
struct UnlearnRoundResult {
  long round = 0;
  double global_accuracy = 0.0;
  long total_epochs_run = 0;       ///< Σ over clients (early term. shrinks it)
  long clients_terminated_early = 0;
  double mean_temperature = 0.0;   ///< mean adaptive temperature over the
                                   ///< clients that ran a task
};

class GoldfishUnlearner {
 public:
  /// `global` must be the *trained* federated model (it becomes the
  /// teacher); `fresh_init` is ω0, the re-initialized starting point.
  GoldfishUnlearner(nn::Model global, nn::Model fresh_init,
                    std::vector<data::Dataset> client_data,
                    data::Dataset server_test, UnlearnConfig cfg);

  /// Register deletion requests (splits the clients' data into D_r / D_f).
  void request_deletion(const std::vector<UnlearnRequest>& requests);

  /// Run one synchronous unlearning round (all clients distill in parallel,
  /// then adaptive aggregation) — the engine's canned sync scenario.
  UnlearnRoundResult run_round();

  /// Run `rounds` rounds.
  std::vector<UnlearnRoundResult> run(long rounds);

  /// The execution engine underneath. Unlearning scenarios compose like
  /// training ones: e.g. engine().run(engine().async_scenario(aggs), sink)
  /// distills through a buffered semi-asynchronous server, and sampling /
  /// buffer / clock policies apply unchanged. Distillation telemetry
  /// (epochs, early terminations, temperatures) accumulates across one
  /// run and is reported by run_round; custom scenarios read the engine's
  /// StepResult stream directly.
  fl::Engine& engine() { return *engine_; }

  nn::Model& global_model() { return engine_->global_model(); }
  nn::Model& teacher_model() { return teacher_; }
  const data::Dataset& removed_data(std::size_t client) const;
  const data::Dataset& remaining_data(std::size_t client) const;

 private:
  nn::Model teacher_;  // pre-unlearning global model (knowledge source)
  UnlearnConfig cfg_;
  /// Client datasets live in the engine (its client_data is D_r); only the
  /// forget-sets are kept here. removed_[c] may lag num_clients() when
  /// clients join mid-scenario — joined clients simply have D_f = ∅.
  std::vector<data::Dataset> removed_;
  data::Dataset no_removed_;  // D_f = ∅ for clients without deletions
  std::unique_ptr<fl::Engine> engine_;

  // Distillation telemetry, accumulated by the client-update function
  // across one engine run and drained by run_round. Temperatures are kept
  // per client (empty for a client that ran no task, e.g. one that left)
  // and summed in client order so the mean is bit-identical at any thread
  // count.
  std::mutex stats_mu_;
  long epochs_run_ = 0;
  long terminated_early_ = 0;
  std::vector<std::optional<double>> temps_;
};

}  // namespace goldfish::core

#include "core/unlearner.h"

namespace goldfish::core {

GoldfishUnlearner::GoldfishUnlearner(nn::Model global, nn::Model fresh_init,
                                     std::vector<data::Dataset> client_data,
                                     data::Dataset server_test,
                                     UnlearnConfig cfg)
    : teacher_(std::move(global)), cfg_(std::move(cfg)) {
  GOLDFISH_CHECK(!client_data.empty(), "unlearner needs clients");
  removed_.resize(client_data.size());

  fl::FlConfig fcfg;
  fcfg.aggregator = cfg_.aggregator;
  fcfg.threads = cfg_.threads;
  fcfg.seed = cfg_.seed;
  engine_ = std::make_unique<fl::Engine>(std::move(fresh_init),
                                         std::move(client_data),
                                         std::move(server_test), fcfg);

  // The client update is Goldfish distillation instead of LocalTraining:
  // the student is the engine's broadcast replica (the current, partially
  // rebuilt global model), the teacher is the frozen pre-unlearning model.
  // The teacher runs one pass over D_r per task (teacher_targets): it yields
  // Eq. 7's reference loss and every logit row the distillation batches
  // gather, so no batch of any epoch runs the teacher again. That pass uses
  // a per-task teacher replica, freed before distillation starts: forward
  // passes mutate layer caches, so sharing one teacher across threads would
  // race.
  engine_->set_client_update([this](std::size_t c, nn::Model& student,
                                    const data::Dataset& d_r, long round) {
    DistillOptions opts = cfg_.distill;
    // Collision-free (client, round) stream separation; the old xor mix let
    // distinct pairs reuse each other's RNG streams (see mix_seed).
    opts.seed = mix_seed(cfg_.seed ^ 0xC0FFEEull, c,
                         static_cast<std::uint64_t>(round));
    const data::Dataset& d_f =
        c < removed_.size() ? removed_[c] : no_removed_;
    const TeacherTargets targets = [&] {
      nn::Model teacher = teacher_;
      return teacher_targets(teacher, d_r, opts);
    }();
    const DistillResult res =
        goldfish_distill(student, targets, d_r, d_f, opts);
    return fl::ClientReport{res.epochs_run, res.terminated_early,
                            res.temperature_used};
  });
}

DeletionSplit split_deletion(const data::Dataset& local,
                             const UnlearnRequest& req) {
  std::vector<bool> is_removed(static_cast<std::size_t>(local.size()), false);
  for (std::size_t r : req.rows) {
    GOLDFISH_CHECK(r < static_cast<std::size_t>(local.size()),
                   "deletion row out of range");
    is_removed[r] = true;
  }
  std::vector<std::size_t> keep, drop;
  for (std::size_t i = 0; i < is_removed.size(); ++i)
    (is_removed[i] ? drop : keep).push_back(i);
  GOLDFISH_CHECK(!keep.empty(), "client would have no remaining data");
  return {local.subset(keep), local.subset(drop)};
}

AsyncDeletionPlan make_async_deletion(const fl::Engine& engine,
                                      const UnlearnRequest& req,
                                      double vtime) {
  GOLDFISH_CHECK(req.client_id < engine.num_clients(),
                 "deletion request for unknown client");
  DeletionSplit split = split_deletion(engine.client_data(req.client_id), req);
  AsyncDeletionPlan plan;
  plan.event.time = vtime;
  plan.event.client = req.client_id;
  plan.event.new_data = std::move(split.remaining);
  plan.removed = std::move(split.removed);
  return plan;
}

void GoldfishUnlearner::request_deletion(
    const std::vector<UnlearnRequest>& requests) {
  // Every request is checked before any is applied: rejecting halfway
  // through would leave rows listed as D_f while still training as D_r (and
  // a retry would concatenate them twice). The engine's in-flight guard
  // comes first; mid-run requests go through make_async_deletion + a
  // scenario DeletionEvent instead. A client named twice is rejected, as a
  // scenario rejects two deletions for one client: the second request's
  // rows would index data the first one already shrank.
  if (engine_->running())
    throw std::logic_error(
        "GoldfishUnlearner: request_deletion while a run is in flight; "
        "inject a DeletionEvent into the scenario instead");
  std::vector<bool> named(engine_->num_clients(), false);
  std::vector<DeletionSplit> splits;
  splits.reserve(requests.size());
  for (const UnlearnRequest& req : requests) {
    GOLDFISH_CHECK(req.client_id < engine_->num_clients(),
                   "deletion request for unknown client");
    GOLDFISH_CHECK(!named[req.client_id],
                   "two deletion requests for one client; merge their rows");
    named[req.client_id] = true;
    splits.push_back(split_deletion(engine_->client_data(req.client_id), req));
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::size_t c = requests[i].client_id;
    if (c >= removed_.size()) removed_.resize(c + 1);
    removed_[c] = data::Dataset::concat(removed_[c], splits[i].removed);
    engine_->set_client_data(c, std::move(splits[i].remaining));
  }
}

const data::Dataset& GoldfishUnlearner::removed_data(
    std::size_t client) const {
  GOLDFISH_CHECK(client < engine_->num_clients(), "client out of range");
  return client < removed_.size() ? removed_[client] : no_removed_;
}

const data::Dataset& GoldfishUnlearner::remaining_data(
    std::size_t client) const {
  return engine_->client_data(client);
}

std::vector<fl::StepResult> GoldfishUnlearner::run(long rounds) {
  return engine_->collect(
      engine_->sync_scenario(rounds, /*local_accuracy=*/false));
}

}  // namespace goldfish::core

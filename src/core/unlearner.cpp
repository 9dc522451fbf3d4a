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
    std::lock_guard<std::mutex> lock(stats_mu_);
    epochs_run_ += res.epochs_run;
    if (res.terminated_early) ++terminated_early_;
    if (c >= temps_.size()) temps_.resize(c + 1);
    temps_[c] = res.temperature_used;
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
  // Check the engine's in-flight guard before touching removed_: rejecting
  // halfway through would leave rows listed as D_f while still training as
  // D_r (and a retry would concatenate them twice). Mid-run requests go
  // through make_async_deletion + a scenario DeletionEvent instead.
  if (engine_->running())
    throw std::logic_error(
        "GoldfishUnlearner: request_deletion while a run is in flight; "
        "inject a DeletionEvent into the scenario instead");
  for (const UnlearnRequest& req : requests) {
    GOLDFISH_CHECK(req.client_id < engine_->num_clients(),
                   "deletion request for unknown client");
    DeletionSplit split =
        split_deletion(engine_->client_data(req.client_id), req);
    if (req.client_id >= removed_.size())
      removed_.resize(req.client_id + 1);
    removed_[req.client_id] =
        data::Dataset::concat(removed_[req.client_id], split.removed);
    engine_->set_client_data(req.client_id, std::move(split.remaining));
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

UnlearnRoundResult GoldfishUnlearner::run_round() {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    epochs_run_ = 0;
    terminated_early_ = 0;
    temps_.assign(engine_->num_clients(), std::nullopt);
  }

  UnlearnRoundResult r;
  const long base = engine_->rounds_completed();
  engine_->run(engine_->sync_scenario(1, /*local_accuracy=*/false),
               [&](const fl::StepResult& s) {
                 r.round = base + s.step;
                 r.global_accuracy = s.global_accuracy;
               });

  std::lock_guard<std::mutex> lock(stats_mu_);
  r.total_epochs_run = epochs_run_;
  r.clients_terminated_early = terminated_early_;
  double tsum = 0.0;
  long ran = 0;
  for (const std::optional<double>& t : temps_)
    if (t) {
      tsum += *t;
      ++ran;
    }
  r.mean_temperature = ran > 0 ? tsum / double(ran) : 0.0;
  return r;
}

std::vector<UnlearnRoundResult> GoldfishUnlearner::run(long rounds) {
  std::vector<UnlearnRoundResult> out;
  out.reserve(static_cast<std::size_t>(rounds));
  for (long i = 0; i < rounds; ++i) out.push_back(run_round());
  return out;
}

}  // namespace goldfish::core

#include "core/sharded_client.h"

#include "tensor/check.h"

namespace goldfish::core {

ShardedClientFleet::ShardedClientFleet(
    const nn::Model& init, const std::vector<data::Dataset>& client_data,
    long shards_per_client, Rng& rng) {
  GOLDFISH_CHECK(!client_data.empty(), "fleet needs clients");
  managers_.reserve(client_data.size());
  for (const data::Dataset& ds : client_data) {
    Rng client_rng = rng.split();
    managers_.push_back(std::make_unique<ShardManager>(
        init, ds, shards_per_client, client_rng));
  }
}

ShardManager& ShardedClientFleet::manager(std::size_t client) {
  GOLDFISH_CHECK(client < managers_.size(), "client out of range");
  return *managers_[client];
}

fl::Engine::ClientUpdateFn ShardedClientFleet::update_fn(
    fl::TrainOptions base_opts, runtime::Scheduler* sched) {
  return [this, base_opts, sched](std::size_t client, nn::Model& upload,
                                  const data::Dataset& /*unused*/,
                                  long round) {
    ShardManager& mgr = manager(client);
    fl::TrainOptions opts = base_opts;
    opts.seed = base_opts.seed ^ (0x5A4Dull * (client + 1)) ^
                static_cast<std::uint64_t>(round);
    mgr.train_all(opts, sched);
    upload.load(mgr.aggregate());
  };
}

ShardManager::DeletionReport ShardedClientFleet::delete_rows(
    std::size_t client, const std::vector<std::size_t>& rows,
    const fl::TrainOptions& opts, runtime::Scheduler* sched) {
  return manager(client).delete_rows(rows, opts, sched);
}

}  // namespace goldfish::core

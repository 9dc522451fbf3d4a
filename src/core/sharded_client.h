// Sharded federated clients: the optimization module (Fig. 2–3) wired into
// the federated loop.
//
// Each client keeps a ShardManager; every round its shards continue training
// from their own weights (strict shard isolation — shard models never absorb
// other shards' parameters, which is what makes deletion cheap and sound),
// and the client uploads the Eq. 8 size-weighted aggregate. A deletion
// request re-initializes and retrains only the affected shards (Eq. 9–10
// semantics in ShardManager::delete_rows).
#pragma once

#include "core/sharding.h"
#include "fl/engine.h"

namespace goldfish::core {

class ShardedClientFleet {
 public:
  /// One ShardManager per client, all seeded from the same initial model.
  ShardedClientFleet(const nn::Model& init,
                     const std::vector<data::Dataset>& client_data,
                     long shards_per_client, Rng& rng);

  std::size_t num_clients() const { return managers_.size(); }
  ShardManager& manager(std::size_t client);

  /// Client-update hook for fl::Engine: trains the client's shards one
  /// round and loads the Eq. 8 aggregate into the upload model. The global
  /// broadcast is intentionally ignored — shard isolation is what the
  /// deletion guarantee rests on. Shard retraining nests inside the engine's
  /// client-level parallelism on the same Scheduler (nullptr → global);
  /// nested regions run inline or on free workers, never deadlocking.
  fl::Engine::ClientUpdateFn update_fn(
      fl::TrainOptions base_opts, runtime::Scheduler* sched = nullptr);

  /// Apply a deletion to one client (rows index that client's original
  /// dataset). Affected shards re-initialize and retrain.
  ShardManager::DeletionReport delete_rows(
      std::size_t client, const std::vector<std::size_t>& rows,
      const fl::TrainOptions& opts, runtime::Scheduler* sched = nullptr);

 private:
  std::vector<std::unique_ptr<ShardManager>> managers_;
};

}  // namespace goldfish::core

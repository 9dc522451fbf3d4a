// Data-partition optimization (Fig. 2–3, Eq. 8–10): a client's local data is
// split into τ shards, each with its own model; the client's local model is
// the size-weighted average of shard models (Eq. 8). A deletion request only
// retrains the shards that contain removed rows, restarting from their
// current weights (the "checkpoint", Eq. 9) instead of re-initializing; the
// untouched shards' contribution is reused as-is. Eq. 10 recovers a shard's
// weights from the aggregate — implemented and verified as the algebraic
// inverse of Eq. 8.
#pragma once

#include "data/dataset.h"
#include "fl/trainer.h"
#include "nn/model.h"
#include "runtime/scheduler.h"

namespace goldfish::core {

class ShardManager {
 public:
  /// Splits `local_data` into `num_shards` shards and gives each shard a
  /// fresh clone of `init` (weights included).
  ShardManager(const nn::Model& init, data::Dataset local_data,
               long num_shards, Rng& rng);

  long num_shards() const { return static_cast<long>(shards_.size()); }
  long total_rows() const;
  long shard_rows(long shard) const;

  /// Train every shard model on its own shard for `opts.epochs`, in
  /// parallel on the runtime Scheduler (nullptr → the shared global pool;
  /// nesting inside an FL client task is safe — the Scheduler runs nested
  /// work inline or on free workers). Used both for initial training and
  /// for continued rounds.
  void train_all(const fl::TrainOptions& opts,
                 runtime::Scheduler* sched = nullptr);

  /// Eq. 8: size-weighted average of shard models — the client's local model.
  std::vector<Tensor> aggregate() const;

  /// Report of a deletion pass.
  struct DeletionReport {
    std::vector<long> affected_shards;
    long rows_deleted = 0;
    long rows_retrained = 0;  ///< total rows in the retrained shards
  };

  /// Remove the given rows (indices into the *original* client dataset).
  /// Affected shards are **re-initialized and retrained** on their remaining
  /// rows — their old weights were influenced by the deleted data, so
  /// keeping them would not unlearn. Unaffected shards are untouched; their
  /// aggregate is the Eq. 9 checkpoint the client resumes from. Multiple
  /// affected shards retrain in parallel (Fig. 3). Rows already deleted are
  /// ignored; shards whose data empties out drop from aggregation.
  DeletionReport delete_rows(const std::vector<std::size_t>& rows,
                             const fl::TrainOptions& opts,
                             runtime::Scheduler* sched = nullptr);

  /// Eq. 10: recover shard i's weights from the aggregate by subtracting the
  /// other shards' weighted contributions. Exposed for verification; the
  /// identity aggregate→recover == stored weights is tested.
  std::vector<Tensor> recover_shard_weights(long shard) const;

  /// Direct access for tests/benches.
  nn::Model& shard_model(long shard);
  /// Original-dataset row ids held by a shard (deletion requests are
  /// expressed in those ids).
  const std::vector<std::size_t>& shard_row_ids(long shard) const;

 private:
  struct Shard {
    data::Dataset data;
    /// Original-dataset row ids for membership lookup on deletion.
    std::vector<std::size_t> row_ids;
    nn::Model model;
  };

  std::vector<Shard> shards_;
  nn::Model init_;  // pristine initial weights; deletion resets from here
  std::uint64_t train_seed_ = 0x5eed;
};

}  // namespace goldfish::core

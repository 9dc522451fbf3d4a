#include "core/sharding.h"

#include <algorithm>
#include <unordered_set>

#include "data/partition.h"
#include "tensor/check.h"

namespace goldfish::core {

ShardManager::ShardManager(const nn::Model& init, data::Dataset local_data,
                           long num_shards, Rng& rng)
    : init_(init) {
  const auto idx = data::shard_indices(local_data.size(), num_shards, rng);
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (const auto& rows : idx) {
    Shard s;
    s.data = local_data.subset(rows);
    s.row_ids = rows;
    s.model = init;  // deep copy
    shards_.push_back(std::move(s));
  }
}

long ShardManager::total_rows() const {
  long n = 0;
  for (const Shard& s : shards_) n += s.data.size();
  return n;
}

long ShardManager::shard_rows(long shard) const {
  GOLDFISH_CHECK(shard >= 0 && shard < num_shards(), "shard out of range");
  return shards_[static_cast<std::size_t>(shard)].data.size();
}

void ShardManager::train_all(const fl::TrainOptions& opts,
                             runtime::Scheduler* sched) {
  if (sched == nullptr) sched = &runtime::Scheduler::global();
  // grain=1: one body retrains a whole shard.
  sched->parallel_map(
      shards_.size(),
      [&](std::size_t i) {
        Shard& s = shards_[i];
        if (s.data.empty()) return;
        fl::TrainOptions o = opts;
        o.seed = opts.seed ^ (train_seed_ + i * 0x9E3779B9ull);
        fl::train_local(s.model, s.data, o);
      },
      /*grain=*/1);
  ++train_seed_;
}

std::vector<Tensor> ShardManager::aggregate() const {
  std::vector<std::vector<Tensor>> snaps;
  std::vector<float> weights;
  for (const Shard& s : shards_) {
    if (s.data.empty()) continue;
    snaps.push_back(s.model.snapshot());
    weights.push_back(static_cast<float>(s.data.size()));
  }
  GOLDFISH_CHECK(!snaps.empty(), "all shards empty");
  return nn::weighted_average(snaps, weights);
}

ShardManager::DeletionReport ShardManager::delete_rows(
    const std::vector<std::size_t>& rows, const fl::TrainOptions& opts,
    runtime::Scheduler* sched) {
  const std::unordered_set<std::size_t> doomed(rows.begin(), rows.end());
  DeletionReport report;

  // Phase 1: drop rows shard by shard; note which shards were touched.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    std::vector<std::size_t> keep_local;
    for (std::size_t r = 0; r < s.row_ids.size(); ++r) {
      if (doomed.count(s.row_ids[r]) == 0) {
        keep_local.push_back(r);
      } else {
        ++report.rows_deleted;
      }
    }
    if (keep_local.size() == s.row_ids.size()) continue;  // untouched
    report.affected_shards.push_back(static_cast<long>(i));
    std::vector<std::size_t> new_row_ids;
    new_row_ids.reserve(keep_local.size());
    for (std::size_t r : keep_local) new_row_ids.push_back(s.row_ids[r]);
    s.data = s.data.subset(keep_local);
    s.row_ids = std::move(new_row_ids);
  }

  // Phase 2: affected shards reset to the pristine initial weights and
  // retrain on their remaining rows — the deleted data's influence lives in
  // the old shard weights, so they cannot be reused. Only the *unaffected*
  // shards keep their weights (the Eq. 9 checkpoint). Parallel when several
  // shards are involved (Fig. 3).
  for (const long shard : report.affected_shards)
    report.rows_retrained += shards_[static_cast<std::size_t>(shard)]
                                 .data.size();
  if (sched == nullptr) sched = &runtime::Scheduler::global();
  // grain=1: one body retrains a whole affected shard from scratch.
  sched->parallel_map(
      report.affected_shards.size(),
      [&](std::size_t k) {
        const long shard = report.affected_shards[k];
        Shard& s = shards_[static_cast<std::size_t>(shard)];
        s.model = init_;
        if (s.data.empty()) return;
        fl::TrainOptions o = opts;
        o.seed = opts.seed ^ (0xDE1E7Eull + static_cast<std::size_t>(shard));
        fl::train_local(s.model, s.data, o);
      },
      /*grain=*/1);
  return report;
}

std::vector<Tensor> ShardManager::recover_shard_weights(long shard) const {
  GOLDFISH_CHECK(shard >= 0 && shard < num_shards(), "shard out of range");
  const Shard& target = shards_[static_cast<std::size_t>(shard)];
  GOLDFISH_CHECK(!target.data.empty(), "cannot recover an empty shard");
  const long total = total_rows();

  // Eq. 10: ω_i = (|D|/|D_i|)·(ω − Σ_{j≠i} (|D_j|/|D|)·ω_j)
  std::vector<Tensor> acc = aggregate();
  for (std::size_t j = 0; j < shards_.size(); ++j) {
    const Shard& other = shards_[j];
    if (static_cast<long>(j) == shard || other.data.empty()) continue;
    const float w = static_cast<float>(other.data.size()) /
                    static_cast<float>(total);
    nn::axpy(acc, other.model.snapshot(), -w);
  }
  const float scale = static_cast<float>(total) /
                      static_cast<float>(target.data.size());
  for (Tensor& t : acc) t *= scale;
  return acc;
}

nn::Model& ShardManager::shard_model(long shard) {
  GOLDFISH_CHECK(shard >= 0 && shard < num_shards(), "shard out of range");
  return shards_[static_cast<std::size_t>(shard)].model;
}

const std::vector<std::size_t>& ShardManager::shard_row_ids(
    long shard) const {
  GOLDFISH_CHECK(shard >= 0 && shard < num_shards(), "shard out of range");
  return shards_[static_cast<std::size_t>(shard)].row_ids;
}

}  // namespace goldfish::core

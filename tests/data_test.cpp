// Data substrate: synthetic generation, subsetting, batching, partitioning,
// sharding, backdoor machinery.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "data/backdoor.h"
#include "data/partition.h"
#include "data/synthetic.h"

namespace goldfish {
namespace {

using data::Dataset;
using data::DatasetKind;

TEST(Synthetic, MatchesTableIISchema) {
  for (auto kind : {DatasetKind::Mnist, DatasetKind::FashionMnist,
                    DatasetKind::Cifar10, DatasetKind::Cifar100}) {
    const auto geom = data::dataset_geom(kind);
    const long classes = data::dataset_classes(kind);
    if (kind == DatasetKind::Mnist || kind == DatasetKind::FashionMnist) {
      EXPECT_EQ(geom.flat(), 784);
      EXPECT_EQ(classes, 10);
    } else {
      EXPECT_EQ(geom.flat(), 3072);
      EXPECT_EQ(classes, kind == DatasetKind::Cifar100 ? 100 : 10);
    }
  }
}

TEST(Synthetic, DeterministicForSameSeed) {
  auto spec = data::default_spec(DatasetKind::Mnist, 99, 50, 20);
  auto a = data::make_synthetic(spec);
  auto b = data::make_synthetic(spec);
  ASSERT_EQ(a.train.size(), b.train.size());
  EXPECT_EQ(a.train.labels, b.train.labels);
  for (std::size_t i = 0; i < a.train.features.numel(); ++i)
    EXPECT_FLOAT_EQ(a.train.features[i], b.train.features[i]);
}

TEST(Synthetic, DifferentSeedsDiffer) {
  auto a = data::make_synthetic(data::default_spec(DatasetKind::Mnist, 1, 50, 10));
  auto b = data::make_synthetic(data::default_spec(DatasetKind::Mnist, 2, 50, 10));
  float max_diff = 0.0f;
  for (std::size_t i = 0; i < a.train.features.numel(); ++i)
    max_diff = std::max(max_diff, std::abs(a.train.features[i] -
                                           b.train.features[i]));
  EXPECT_GT(max_diff, 0.1f);
}

TEST(Synthetic, AllClassesPresent) {
  auto tt = data::make_synthetic(
      data::default_spec(DatasetKind::Cifar10, 3, 500, 100));
  const auto hist = tt.train.class_histogram();
  for (long c : hist) EXPECT_GT(c, 0);
}

TEST(Dataset, SubsetPreservesRows) {
  auto tt = data::make_synthetic(data::default_spec(DatasetKind::Mnist, 4, 20, 5));
  Dataset sub = tt.train.subset({3, 7, 11});
  EXPECT_EQ(sub.size(), 3);
  EXPECT_EQ(sub.labels[0], tt.train.labels[3]);
  const long d = tt.train.features.dim(1);
  for (long j = 0; j < d; ++j)
    EXPECT_FLOAT_EQ(sub.features.at(1, j), tt.train.features.at(7, j));
}

TEST(Dataset, SubsetOutOfRangeThrows) {
  auto tt = data::make_synthetic(data::default_spec(DatasetKind::Mnist, 5, 10, 5));
  EXPECT_THROW(tt.train.subset({10}), CheckError);
}

TEST(Dataset, ConcatStacksRows) {
  auto tt = data::make_synthetic(data::default_spec(DatasetKind::Mnist, 6, 10, 5));
  Dataset a = tt.train.subset({0, 1});
  Dataset b = tt.train.subset({2, 3, 4});
  Dataset c = Dataset::concat(a, b);
  EXPECT_EQ(c.size(), 5);
  EXPECT_EQ(c.labels[2], tt.train.labels[2]);
  // Concat with an empty is identity.
  Dataset empty;
  EXPECT_EQ(Dataset::concat(empty, a).size(), 2);
  EXPECT_EQ(Dataset::concat(a, empty).size(), 2);
}

TEST(Dataset, BatchExtraction) {
  auto tt = data::make_synthetic(data::default_spec(DatasetKind::Mnist, 7, 10, 5));
  auto [x, y] = tt.train.batch({1, 4});
  EXPECT_EQ(x.dim(0), 2);
  EXPECT_EQ(x.dim(1), 784);
  EXPECT_EQ(y[1], tt.train.labels[4]);
}

TEST(Dataset, BatchViewMatchesIndexedBatch) {
  auto tt = data::make_synthetic(
      data::default_spec(DatasetKind::Mnist, 7, 20, 5));
  std::vector<std::size_t> idx;
  for (std::size_t i = 3; i < 11; ++i) idx.push_back(i);
  auto [xg, yg] = tt.train.batch(idx);
  auto [xv, yv] = tt.train.batch_view(3, 11);
  ASSERT_TRUE(xg.same_shape(xv));
  for (std::size_t i = 0; i < xg.numel(); ++i) EXPECT_EQ(xg[i], xv[i]);
  for (std::size_t i = 0; i < yg.size(); ++i)
    EXPECT_EQ(yg[i], yv[static_cast<long>(i)]);
  EXPECT_THROW(tt.train.batch_view(5, 5), CheckError);
  EXPECT_THROW(tt.train.batch_view(0, 21), CheckError);
}

TEST(Dataset, BatchIntoReusesStorage) {
  auto tt = data::make_synthetic(
      data::default_spec(DatasetKind::Mnist, 7, 12, 5));
  Tensor x;
  std::vector<long> y;
  const std::size_t idx1[] = {0, 5, 7};
  tt.train.batch_into(idx1, 3, x, y);
  EXPECT_EQ(x.dim(0), 3);
  const float* storage = x.data();
  const std::size_t idx2[] = {1, 2};
  tt.train.batch_into(idx2, 2, x, y);  // shrinks in place, same buffer
  EXPECT_EQ(x.dim(0), 2);
  EXPECT_EQ(x.data(), storage);
  EXPECT_EQ(y[1], tt.train.labels[2]);
}

TEST(BatchIterator, BatchSpanMatchesBatchIndices) {
  auto tt = data::make_synthetic(
      data::default_spec(DatasetKind::Mnist, 8, 17, 5));
  Rng rng(3);
  data::BatchIterator it(tt.train, 4, rng);
  for (std::size_t b = 0; b < it.num_batches(); ++b) {
    const auto [ptr, count] = it.batch_span(b);
    const auto idx = it.batch_indices(b);
    ASSERT_EQ(count, idx.size());
    for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(ptr[i], idx[i]);
  }
}

TEST(BatchIterator, CoversEveryRowOnce) {
  auto tt = data::make_synthetic(data::default_spec(DatasetKind::Mnist, 8, 23, 5));
  Rng rng(1);
  data::BatchIterator it(tt.train, 5, rng);
  EXPECT_EQ(it.num_batches(), 5u);  // 23 = 4·5 + 3
  std::set<std::size_t> seen;
  for (std::size_t b = 0; b < it.num_batches(); ++b)
    for (std::size_t i : it.batch_indices(b)) seen.insert(i);
  EXPECT_EQ(seen.size(), 23u);
}

TEST(PartitionIid, EqualSizesAndDisjoint) {
  auto tt = data::make_synthetic(data::default_spec(DatasetKind::Mnist, 9, 100, 5));
  Rng rng(2);
  auto parts = data::partition_iid(tt.train, 5, rng);
  ASSERT_EQ(parts.size(), 5u);
  long total = 0;
  for (const auto& p : parts) {
    EXPECT_EQ(p.size(), 20);
    total += p.size();
  }
  EXPECT_EQ(total, 100);
}

TEST(PartitionHetero, SkewedSizes) {
  auto tt =
      data::make_synthetic(data::default_spec(DatasetKind::Mnist, 10, 400, 5));
  Rng rng(3);
  data::HeteroOptions opt;
  auto parts = data::partition_heterogeneous(tt.train, 5, opt, rng);
  const auto st = data::partition_stats(parts);
  EXPECT_GT(st.max_size, st.min_size);
  EXPECT_GT(st.size_variance, 0.0);
  long total = 0;
  for (const auto& p : parts) {
    EXPECT_GE(p.size(), opt.min_per_client);
    total += p.size();
  }
  EXPECT_EQ(total, 400);
}

TEST(PartitionHetero, LabelSkewConcentratesClasses) {
  auto tt =
      data::make_synthetic(data::default_spec(DatasetKind::Mnist, 11, 600, 5));
  Rng rng(4);
  data::HeteroOptions opt;
  opt.label_skew = true;
  auto parts = data::partition_heterogeneous(tt.train, 3, opt, rng);
  // At least one client should have a strongly non-uniform label histogram.
  bool skew_found = false;
  for (const auto& p : parts) {
    const auto hist = p.class_histogram();
    long mx = 0;
    for (long h : hist) mx = std::max(mx, h);
    if (double(mx) > 2.5 * double(p.size()) / double(p.num_classes))
      skew_found = true;
  }
  EXPECT_TRUE(skew_found);
}

TEST(ShardIndices, PartitionProperty) {
  Rng rng(5);
  auto shards = data::shard_indices(100, 6, rng);
  ASSERT_EQ(shards.size(), 6u);
  std::set<std::size_t> seen;
  for (const auto& s : shards) {
    EXPECT_GE(s.size(), 16u);  // 100/6 rounded down
    for (std::size_t i : s) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate row " << i;
    }
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(ShardIndices, MoreShardsThanRowsThrows) {
  Rng rng(6);
  EXPECT_THROW(data::shard_indices(3, 5, rng), CheckError);
}

TEST(Backdoor, PoisonStampsAndRelabels) {
  auto tt =
      data::make_synthetic(data::default_spec(DatasetKind::Mnist, 12, 100, 5));
  Rng rng(7);
  data::BackdoorSpec spec;
  spec.target_label = 0;
  auto res = data::poison_dataset(tt.train, spec, 0.1f, rng);
  EXPECT_NEAR(double(res.poisoned_indices.size()), 10.0, 1.0);
  for (std::size_t i : res.poisoned_indices) {
    EXPECT_EQ(res.poisoned.labels[i], 0);
    // trigger pixel check (corner of channel 0)
    EXPECT_FLOAT_EQ(
        res.poisoned.features.at(static_cast<long>(i), 0),
        spec.trigger_value);
  }
  // Non-poisoned rows untouched.
  std::set<std::size_t> poisoned(res.poisoned_indices.begin(),
                                 res.poisoned_indices.end());
  for (long i = 0; i < tt.train.size(); ++i) {
    if (poisoned.count(static_cast<std::size_t>(i))) continue;
    EXPECT_EQ(res.poisoned.labels[static_cast<std::size_t>(i)],
              tt.train.labels[static_cast<std::size_t>(i)]);
  }
}

TEST(Backdoor, PoisonSkipsTargetClassRows) {
  auto tt =
      data::make_synthetic(data::default_spec(DatasetKind::Mnist, 13, 100, 5));
  Rng rng(8);
  data::BackdoorSpec spec;
  spec.target_label = 3;
  auto res = data::poison_dataset(tt.train, spec, 0.2f, rng);
  for (std::size_t i : res.poisoned_indices)
    EXPECT_NE(tt.train.labels[i], 3);  // originals were not target-labeled
}

TEST(Backdoor, ProbeExcludesTargetClass) {
  auto tt =
      data::make_synthetic(data::default_spec(DatasetKind::Mnist, 14, 50, 50));
  data::BackdoorSpec spec;
  spec.target_label = 2;
  Dataset probe = data::make_trigger_probe(tt.test, spec);
  long target_originals = 0;
  for (long y : tt.test.labels)
    if (y == 2) ++target_originals;
  EXPECT_EQ(probe.size(), tt.test.size() - target_originals);
  for (long y : probe.labels) EXPECT_EQ(y, 2);
  // Every probe row carries the trigger.
  for (long i = 0; i < probe.size(); ++i)
    EXPECT_FLOAT_EQ(probe.features.at(i, 0), spec.trigger_value);
}

TEST(Backdoor, FractionOneCapsAtEligibleRows) {
  auto tt =
      data::make_synthetic(data::default_spec(DatasetKind::Mnist, 15, 60, 5));
  Rng rng(9);
  data::BackdoorSpec spec;
  auto res = data::poison_dataset(tt.train, spec, 1.0f, rng);
  long eligible = 0;
  for (long y : tt.train.labels)
    if (y != spec.target_label) ++eligible;
  EXPECT_EQ(static_cast<long>(res.poisoned_indices.size()), eligible);
}


// -- DatasetSharing: a copy shares its rows; a write detaches ---------------

/// The rows' address, read through the const accessor (which never detaches).
const float* rows_of(const Dataset& ds) { return ds.features.data(); }

TEST(DatasetSharing, CopySharesRows) {
  auto tt =
      data::make_synthetic(data::default_spec(DatasetKind::Mnist, 21, 40, 10));
  const Dataset copy = tt.train;
  EXPECT_EQ(rows_of(copy), rows_of(tt.train));
  const Dataset copy_of_copy = copy;
  EXPECT_EQ(rows_of(copy_of_copy), rows_of(tt.train));
  // A concat with an empty side returns the other dataset, rows shared.
  EXPECT_EQ(rows_of(Dataset::concat(Dataset{}, tt.train)), rows_of(tt.train));
  EXPECT_EQ(rows_of(Dataset::concat(tt.train, Dataset{})), rows_of(tt.train));
  // Reads through a non-const dataset do not detach.
  const float first = tt.train.features[0];
  EXPECT_EQ(tt.train.features.at(0, 0), first);
  const Tensor& t = tt.train.features;
  EXPECT_EQ(t.data(), rows_of(copy));
}

TEST(DatasetSharing, WriteDetachesOnlyWhenShared) {
  auto tt =
      data::make_synthetic(data::default_spec(DatasetKind::Mnist, 22, 40, 10));
  Dataset ds = tt.train.subset({0, 1, 2});
  const float* own = rows_of(ds);
  ds.features.data()[0] = 7.0f;  // sole owner: written in place
  EXPECT_EQ(rows_of(ds), own);

  Dataset copy = ds;
  copy.features.data()[0] = 9.0f;  // shared: the copy detaches first
  EXPECT_NE(rows_of(copy), own);
  EXPECT_EQ(rows_of(ds), own);
  EXPECT_EQ(ds.features[0], 7.0f);
  EXPECT_EQ(copy.features[0], 9.0f);
  EXPECT_EQ(std::memcmp(rows_of(ds) + 1, rows_of(copy) + 1,
                        (ds.features.numel() - 1) * sizeof(float)),
            0);

  // Assigning a tensor to a shared handle leaves the other holder's rows.
  Dataset other = ds;
  other.features = Tensor::zeros({1, ds.features.dim(1)});
  EXPECT_EQ(rows_of(ds), own);
  EXPECT_EQ(ds.size(), 3);
  EXPECT_EQ(other.size(), 1);
}

// overwritable() is writable() for a caller about to replace every row: a
// sole owner gets its block back in place, a shared handle an empty tensor
// of its own, without copying the rows the other holder keeps.
TEST(DatasetSharing, OverwritableSkipsTheCopyOfSharedRows) {
  auto tt =
      data::make_synthetic(data::default_spec(DatasetKind::Mnist, 24, 40, 10));
  Dataset ds = tt.train.subset({0, 1, 2});
  const float* own = rows_of(ds);
  EXPECT_EQ(ds.features.overwritable().data(), own);

  Dataset copy = ds;
  const std::size_t before = alloc_stats::heap_allocations();
  Tensor& fresh = copy.features.overwritable();
  EXPECT_EQ(alloc_stats::heap_allocations(), before);
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(rows_of(ds), own);
  EXPECT_EQ(ds.size(), 3);
}

TEST(DatasetSharing, PoisonedCopyLeavesSourceUnchanged) {
  auto tt =
      data::make_synthetic(data::default_spec(DatasetKind::Mnist, 23, 80, 10));
  const std::vector<float> before(rows_of(tt.train),
                                  rows_of(tt.train) + tt.train.features.numel());
  Rng rng(24);
  data::BackdoorSpec spec;
  spec.target_label = 1;
  auto res = data::poison_dataset(tt.train, spec, 0.3f, rng);
  ASSERT_FALSE(res.poisoned_indices.empty());
  EXPECT_NE(rows_of(res.poisoned), rows_of(tt.train));
  EXPECT_EQ(std::memcmp(rows_of(tt.train), before.data(),
                        before.size() * sizeof(float)),
            0);
  // Stamping nothing detaches nothing.
  auto none = data::poison_dataset(tt.train, spec, 0.0f, rng);
  EXPECT_TRUE(none.poisoned_indices.empty());
  EXPECT_EQ(rows_of(none.poisoned), rows_of(tt.train));
}

}  // namespace
}  // namespace goldfish

// Parameterized property suites: invariants swept across a parameter range
// (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <cmath>

#include "core/adaptive_temperature.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/aggregation.h"
#include "losses/distillation.h"
#include "losses/goldfish_loss.h"
#include "nn/models.h"
#include "tensor/ops.h"

namespace goldfish {
namespace {

// -- softmax properties across temperatures ---------------------------------

class SoftmaxTemperature : public ::testing::TestWithParam<float> {};

TEST_P(SoftmaxTemperature, RowsAreDistributions) {
  Rng rng(1);
  Tensor logits = Tensor::randn({6, 10}, rng, 0.0f, 5.0f);
  Tensor p = softmax_rows(logits, GetParam());
  for (long i = 0; i < p.dim(0); ++i) {
    double s = 0.0;
    for (long j = 0; j < p.dim(1); ++j) {
      EXPECT_GE(p.at(i, j), 0.0f);
      s += p.at(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-4);
  }
}

TEST_P(SoftmaxTemperature, PreservesArgmax) {
  Rng rng(2);
  Tensor logits = Tensor::randn({6, 10}, rng, 0.0f, 5.0f);
  const auto base = argmax_rows(softmax_rows(logits, 1.0f));
  const auto scaled = argmax_rows(softmax_rows(logits, GetParam()));
  EXPECT_EQ(base, scaled);
}

TEST_P(SoftmaxTemperature, EntropyGrowsWithTemperature) {
  Rng rng(3);
  Tensor logits = Tensor::randn({4, 8}, rng, 0.0f, 4.0f);
  const auto entropy = [](const Tensor& p, long row) {
    double h = 0.0;
    for (long j = 0; j < p.dim(1); ++j) {
      const double v = p.at(row, j);
      if (v > 0) h -= v * std::log(v);
    }
    return h;
  };
  const float t = GetParam();
  Tensor cool = softmax_rows(logits, t);
  Tensor hot = softmax_rows(logits, t * 2.0f);
  for (long i = 0; i < 4; ++i)
    EXPECT_GE(entropy(hot, i) + 1e-7, entropy(cool, i));
}

INSTANTIATE_TEST_SUITE_P(Temperatures, SoftmaxTemperature,
                         ::testing::Values(0.5f, 1.0f, 2.0f, 3.0f, 5.0f,
                                           10.0f));

// -- adaptive temperature monotone in deletion fraction ----------------------

class AdaptiveTempSweep : public ::testing::TestWithParam<long> {};

TEST_P(AdaptiveTempSweep, MonotoneInRemovedSize) {
  core::AdaptiveTemperature at;
  const long removed = GetParam();
  const long total = 1000;
  const float t_now = at(total - removed, removed);
  const float t_less = at(total - removed / 2, removed / 2);
  EXPECT_GE(t_now + 1e-6f, t_less);
  EXPECT_GE(t_now, at.min_temperature);
  EXPECT_LE(t_now, at.alpha * at.t0 + 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(DeletionSizes, AdaptiveTempSweep,
                         ::testing::Values(20L, 40L, 60L, 80L, 100L, 120L,
                                           200L, 400L));

// -- aggregation properties across client counts -----------------------------

class AggregationSweep : public ::testing::TestWithParam<int> {};

TEST_P(AggregationSweep, FedAvgOfIdenticalModelsIsIdentity) {
  const int clients = GetParam();
  Rng rng(4);
  nn::Model m = nn::make_mlp({1, 2, 2}, 4, 3, rng);
  std::vector<fl::ClientUpdate> updates;
  for (int c = 0; c < clients; ++c)
    updates.push_back({m.snapshot(), 10 + c, 0.0});
  fl::FedAvgAggregator agg;
  const auto avg = agg.aggregate(updates);
  EXPECT_NEAR(nn::snapshot_distance_sq(avg, m.snapshot()), 0.0f, 1e-8f);
}

TEST_P(AggregationSweep, AdaptiveWeightsArePositiveAndOrdered) {
  const int clients = GetParam();
  std::vector<double> mses;
  for (int c = 0; c < clients; ++c) mses.push_back(0.01 * (c + 1));
  const auto w = fl::AdaptiveAggregator::weights_from_mse(mses);
  for (int c = 0; c + 1 < clients; ++c) {
    EXPECT_GT(w[static_cast<std::size_t>(c)], 0.0f);
    EXPECT_GT(w[static_cast<std::size_t>(c)],
              w[static_cast<std::size_t>(c) + 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, AggregationSweep,
                         ::testing::Values(2, 3, 5, 8, 15, 25));

// -- partition properties across client counts -------------------------------

class PartitionSweep : public ::testing::TestWithParam<long> {};

TEST_P(PartitionSweep, IidCoversAllRowsDisjointly) {
  const long clients = GetParam();
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 5, 30 * clients, 10));
  Rng rng(6);
  auto parts = data::partition_iid(tt.train, clients, rng);
  long total = 0;
  for (const auto& p : parts) total += p.size();
  EXPECT_EQ(total, tt.train.size());
  for (const auto& p : parts) EXPECT_EQ(p.size(), 30);
}

TEST_P(PartitionSweep, HeterogeneousPreservesRowsAndMinimum) {
  const long clients = GetParam();
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 7, 60 * clients, 10));
  Rng rng(8);
  data::HeteroOptions opt;
  auto parts = data::partition_heterogeneous(tt.train, clients, opt, rng);
  long total = 0;
  for (const auto& p : parts) {
    EXPECT_GE(p.size(), opt.min_per_client);
    total += p.size();
  }
  EXPECT_EQ(total, tt.train.size());
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, PartitionSweep,
                         ::testing::Values(2L, 5L, 15L, 25L));

// -- shard counts from the paper's sweep --------------------------------------

class ShardSweep : public ::testing::TestWithParam<long> {};

TEST_P(ShardSweep, ShardIndicesPartitionEvenly) {
  const long shards = GetParam();
  Rng rng(9);
  const long n = 18 * 20;  // divisible by every paper shard count
  auto idx = data::shard_indices(n, shards, rng);
  ASSERT_EQ(static_cast<long>(idx.size()), shards);
  std::size_t total = 0;
  for (const auto& s : idx) {
    EXPECT_EQ(static_cast<long>(s.size()), n / shards);
    total += s.size();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(PaperShardCounts, ShardSweep,
                         ::testing::Values(1L, 3L, 6L, 9L, 12L, 15L, 18L));

// -- distillation loss invariants across temperatures ------------------------

class DistillSweep : public ::testing::TestWithParam<float> {};

TEST_P(DistillSweep, GradientVanishesAtMatch) {
  Rng rng(10);
  Tensor t = Tensor::randn({3, 7}, rng, 0.0f, 3.0f);
  const auto r = losses::distillation_loss(t, t, GetParam());
  EXPECT_NEAR(r.grad_logits.squared_norm(), 0.0f, 1e-8f);
}

TEST_P(DistillSweep, LossIsLowerBoundedByTeacherEntropy) {
  // −Σ P_T log P_S ≥ −Σ P_T log P_T (Gibbs' inequality).
  Rng rng(11);
  Tensor t = Tensor::randn({3, 7}, rng, 0.0f, 3.0f);
  Tensor s = Tensor::randn({3, 7}, rng, 0.0f, 3.0f);
  const float temp = GetParam();
  const float match = losses::distillation_loss(t, t, temp).value;
  const float mismatch = losses::distillation_loss(t, s, temp).value;
  EXPECT_GE(mismatch + 1e-5f, match);
}

INSTANTIATE_TEST_SUITE_P(Temperatures, DistillSweep,
                         ::testing::Values(1.0f, 2.0f, 3.0f, 5.0f, 8.0f));


// -- composite-loss weight sweeps ---------------------------------------------

class LossWeightSweep : public ::testing::TestWithParam<float> {};

TEST_P(LossWeightSweep, TotalIsLinearInConfusionWeight) {
  const float mu = GetParam();
  Rng rng(12);
  Tensor sf = Tensor::randn({3, 6}, rng, 0.0f, 2.0f);
  const std::vector<long> yf{0, 1, 2};
  losses::GoldfishLossConfig base;
  base.mu_c = 0.0f;
  losses::GoldfishLossConfig weighted = base;
  weighted.mu_c = mu;
  const auto r0 = losses::GoldfishLoss(base).eval_forget(sf, yf);
  const auto r1 = losses::GoldfishLoss(weighted).eval_forget(sf, yf);
  // total(µ) = total(0) + µ·L_c — exact linearity in the weight.
  EXPECT_NEAR(r1.total, r0.total + mu * r1.confusion, 1e-5f);
}

TEST_P(LossWeightSweep, TotalIsLinearInDistillationWeight) {
  const float mu = GetParam();
  Rng rng(13);
  Tensor sr = Tensor::randn({3, 6}, rng, 0.0f, 2.0f);
  Tensor tr = Tensor::randn({3, 6}, rng, 0.0f, 2.0f);
  const std::vector<long> yr{0, 1, 2};
  losses::GoldfishLossConfig base;
  base.mu_d = 0.0f;
  base.use_distillation = false;
  losses::GoldfishLossConfig weighted;
  weighted.mu_d = mu;
  const auto r0 = losses::GoldfishLoss(base).eval_remaining(sr, yr, tr);
  const auto r1 = losses::GoldfishLoss(weighted).eval_remaining(sr, yr, tr);
  EXPECT_NEAR(r1.total, r0.total + mu * r1.distillation, 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Weights, LossWeightSweep,
                         ::testing::Values(0.1f, 0.25f, 0.5f, 1.0f, 2.0f));

// -- hard losses agree on direction across batch sizes -------------------------

class HardLossSweep : public ::testing::TestWithParam<long> {};

TEST_P(HardLossSweep, AllLossesDecreaseUnderGradientStep) {
  const long batch = GetParam();
  Rng rng(15);
  Tensor z = Tensor::randn({batch, 5}, rng, 0.0f, 2.0f);
  std::vector<long> y;
  for (long i = 0; i < batch; ++i) y.push_back(i % 5);
  for (const char* name : {"cross_entropy", "focal", "nll"}) {
    const auto loss = losses::make_hard_loss(name);
    const auto r0 = loss->eval(z, y);
    Tensor z2 = z;
    z2.add_scaled(r0.grad_logits, -1.0f);
    const auto r1 = loss->eval(z2, y);
    EXPECT_LT(r1.value, r0.value) << name << " batch " << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, HardLossSweep,
                         ::testing::Values(1L, 2L, 7L, 32L, 100L));

}  // namespace
}  // namespace goldfish

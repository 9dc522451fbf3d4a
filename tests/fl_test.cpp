// Federated substrate: local trainer, aggregation strategies, and the
// synchronous simulation loop. (The parallel runtime the simulator runs on
// is covered by runtime_test.cpp.)
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "metrics/evaluation.h"
#include "nn/models.h"

namespace goldfish {
namespace {

TEST(Trainer, LossDecreases) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 31, 300, 50));
  Rng rng(32);
  nn::Model m = nn::make_mlp({1, 28, 28}, 32, 10, rng);
  fl::TrainOptions opts;
  opts.epochs = 6;
  opts.lr = 0.01f;
  const auto stats = fl::train_local(m, tt.train, opts);
  ASSERT_EQ(stats.epoch_losses.size(), 6u);
  EXPECT_LT(stats.epoch_losses.back(), 0.7f * stats.epoch_losses.front());
  EXPECT_EQ(stats.steps, 6 * 3);  // 300 rows / batch 100 = 3 batches
}

TEST(FedAvg, WeightsBySize) {
  Rng rng(35);
  nn::Model a = nn::make_mlp({1, 2, 2}, 4, 2, rng);
  nn::Model b = nn::make_mlp({1, 2, 2}, 4, 2, rng);
  fl::ClientUpdate ua{a.snapshot(), 300, 0.0};
  fl::ClientUpdate ub{b.snapshot(), 100, 0.0};
  fl::FedAvgAggregator agg;
  const auto avg = agg.aggregate({ua, ub});
  for (std::size_t t = 0; t < avg.size(); ++t)
    for (std::size_t i = 0; i < avg[t].numel(); ++i)
      EXPECT_NEAR(avg[t][i],
                  0.75f * ua.params[t][i] + 0.25f * ub.params[t][i], 1e-5f);
}

TEST(FedAvg, EmptyClientThrows) {
  Rng rng(36);
  nn::Model a = nn::make_mlp({1, 2, 2}, 4, 2, rng);
  fl::FedAvgAggregator agg;
  EXPECT_THROW(agg.aggregate({{a.snapshot(), 0, 0.0}}), CheckError);
}

TEST(AdaptiveWeights, LowerMseGetsHigherWeight) {
  const auto w = fl::AdaptiveAggregator::weights_from_mse({0.02, 0.08, 0.05});
  EXPECT_GT(w[0], w[2]);
  EXPECT_GT(w[2], w[1]);
  // Eq. 12: W = exp(−(me−mean)/mean); mean = 0.05.
  EXPECT_NEAR(w[0], std::exp(-(0.02 - 0.05) / 0.05), 1e-5);
}

TEST(AdaptiveWeights, EqualMseEqualWeights) {
  const auto w = fl::AdaptiveAggregator::weights_from_mse({0.1, 0.1, 0.1});
  EXPECT_NEAR(w[0], 1.0f, 1e-6f);
  EXPECT_NEAR(w[1], 1.0f, 1e-6f);
}

TEST(Uniform, IgnoresDatasetSizes) {
  Rng rng(45);
  nn::Model a = nn::make_mlp({1, 2, 2}, 4, 2, rng);
  nn::Model b = nn::make_mlp({1, 2, 2}, 4, 2, rng);
  fl::ClientUpdate ua{a.snapshot(), 900, 0.0};
  fl::ClientUpdate ub{b.snapshot(), 100, 0.0};
  fl::UniformAggregator agg;
  const auto avg = agg.aggregate({ua, ub});
  for (std::size_t t = 0; t < avg.size(); ++t)
    for (std::size_t i = 0; i < avg[t].numel(); ++i)
      EXPECT_NEAR(avg[t][i],
                  0.5f * (ua.params[t][i] + ub.params[t][i]), 1e-5f);
}

TEST(Aggregators, SingleClientIsIdentity) {
  // With one update every strategy normalizes its weight to exactly 1, so
  // the aggregate is the client's snapshot bit for bit.
  Rng rng(46);
  nn::Model a = nn::make_mlp({1, 2, 2}, 4, 2, rng);
  fl::ClientUpdate u{a.snapshot(), 250, 0.0};
  for (const char* name : {"fedavg", "uniform", "adaptive"}) {
    const auto avg = fl::make_aggregator(name)->aggregate({u});
    ASSERT_EQ(avg.size(), u.params.size()) << name;
    for (std::size_t t = 0; t < avg.size(); ++t)
      for (std::size_t i = 0; i < avg[t].numel(); ++i)
        EXPECT_EQ(avg[t][i], u.params[t][i]) << name;
  }
}

TEST(AdaptiveWeights, AllZeroMseFallsBackToUniform) {
  // Every client fitting the test set perfectly used to abort ("all-zero
  // MSEs"); the degenerate case now weights clients uniformly.
  const auto w = fl::AdaptiveAggregator::weights_from_mse({0.0, 0.0, 0.0});
  ASSERT_EQ(w.size(), 3u);
  for (float wi : w) EXPECT_EQ(wi, 1.0f);

  Rng rng(47);
  nn::Model a = nn::make_mlp({1, 2, 2}, 4, 2, rng);
  nn::Model b = nn::make_mlp({1, 2, 2}, 4, 2, rng);
  fl::AdaptiveAggregator agg;
  const auto avg =
      agg.aggregate({{a.snapshot(), 10, 0.0}, {b.snapshot(), 10, 0.0}});
  for (std::size_t t = 0; t < avg.size(); ++t)
    for (std::size_t i = 0; i < avg[t].numel(); ++i)
      EXPECT_NEAR(avg[t][i],
                  0.5f * (a.snapshot()[t][i] + b.snapshot()[t][i]), 1e-6f);
}

TEST(Staleness, PolynomialDecayWeights) {
  EXPECT_EQ(fl::StalenessAggregator::decay(0, 0.5), 1.0f);
  EXPECT_EQ(fl::StalenessAggregator::decay(3, 1.0), 0.25f);
  EXPECT_NEAR(fl::StalenessAggregator::decay(1, 0.5),
              1.0f / std::sqrt(2.0f), 1e-6f);

  Rng rng(48);
  nn::Model a = nn::make_mlp({1, 2, 2}, 4, 2, rng);
  nn::Model b = nn::make_mlp({1, 2, 2}, 4, 2, rng);
  fl::ClientUpdate fresh{a.snapshot(), 100, 0.0, /*staleness=*/0};
  fl::ClientUpdate stale{b.snapshot(), 100, 0.0, /*staleness=*/3};
  fl::StalenessAggregator agg(fl::make_aggregator("uniform"), 1.0);
  const auto w = agg.weights({fresh, stale});
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 1.0f);
  EXPECT_EQ(w[1], 0.25f);
  // Aggregation normalizes: 0.8·fresh + 0.2·stale.
  const auto avg = agg.aggregate({fresh, stale});
  for (std::size_t t = 0; t < avg.size(); ++t)
    for (std::size_t i = 0; i < avg[t].numel(); ++i)
      EXPECT_NEAR(avg[t][i],
                  0.8f * fresh.params[t][i] + 0.2f * stale.params[t][i],
                  1e-6f);
}

TEST(Staleness, NormalizationAndComposition) {
  // Identical snapshots must aggregate to themselves whatever the staleness
  // profile (weights are normalized), and the wrapper must inherit the base
  // strategy's server-side MSE requirement.
  Rng rng(49);
  nn::Model a = nn::make_mlp({1, 2, 2}, 4, 2, rng);
  fl::ClientUpdate u0{a.snapshot(), 100, 0.0, 0};
  fl::ClientUpdate u2{a.snapshot(), 100, 0.0, 2};
  fl::StalenessAggregator agg(fl::make_aggregator("adaptive"), 0.5);
  EXPECT_TRUE(agg.capabilities().needs_mse);
  EXPECT_TRUE(agg.capabilities().needs_staleness);
  EXPECT_EQ(agg.name(), "adaptive+staleness");
  EXPECT_FALSE(fl::make_aggregator("fedavg")->capabilities().needs_mse);
  const auto avg = agg.aggregate({u0, u2});
  for (std::size_t t = 0; t < avg.size(); ++t)
    for (std::size_t i = 0; i < avg[t].numel(); ++i)
      EXPECT_NEAR(avg[t][i], u0.params[t][i], 1e-6f);
}

TEST(AggregatorFactory, Names) {
  EXPECT_EQ(fl::make_aggregator("fedavg")->name(), "fedavg");
  EXPECT_EQ(fl::make_aggregator("uniform")->name(), "uniform");
  EXPECT_EQ(fl::make_aggregator("adaptive")->name(), "adaptive");
  EXPECT_EQ(fl::make_aggregator("krum")->name(), "krum");
  EXPECT_EQ(fl::make_aggregator("multi-krum")->name(), "multi-krum");
  EXPECT_EQ(fl::make_aggregator("trimmed-mean")->name(), "trimmed-mean");
  EXPECT_EQ(fl::make_aggregator("median")->name(), "median");
  EXPECT_EQ(fl::make_aggregator("norm-clip")->name(), "norm-clip");
  EXPECT_THROW(fl::make_aggregator("geometric-median"), CheckError);
  // Robust strategies advertise the capability; weight-based ones don't.
  EXPECT_TRUE(fl::make_aggregator("krum")->capabilities().robust);
  EXPECT_TRUE(fl::make_aggregator("median")->capabilities().robust);
  EXPECT_FALSE(fl::make_aggregator("fedavg")->capabilities().robust);
}

TEST(Simulation, AccuracyImprovesOverRounds) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 37, 600, 150));
  Rng rng(38);
  auto parts = data::partition_iid(tt.train, 3, rng);
  nn::Model global = nn::make_mlp({1, 28, 28}, 32, 10, rng);
  fl::FlConfig cfg;
  cfg.local.epochs = 3;
  cfg.local.batch_size = 50;
  cfg.local.lr = 0.05f;
  fl::Engine eng(global, parts, tt.test, cfg);
  const auto results = eng.collect(eng.sync_scenario(4));
  ASSERT_EQ(results.size(), 4u);
  EXPECT_GT(results.back().global_accuracy,
            results.front().global_accuracy);
  EXPECT_GT(results.back().global_accuracy, 40.0);
  // Wire bytes: 3 clients × model params × 4 bytes (plus headers).
  EXPECT_GT(results[0].bytes_uplinked, 3u * global.num_scalars() * 4u);
  // Step numbering monotone.
  EXPECT_EQ(results[0].step, 0);
  EXPECT_EQ(results[3].step, 3);
}

TEST(Simulation, CustomClientUpdateIsUsed) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 39, 200, 50));
  Rng rng(40);
  auto parts = data::partition_iid(tt.train, 2, rng);
  nn::Model global = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  fl::FlConfig cfg;
  fl::Engine eng(global, parts, tt.test, cfg);
  std::atomic<int> called{0};
  std::set<std::size_t> ids;
  std::mutex mu;
  eng.set_client_update([&](std::size_t cid, nn::Model&,
                            const data::Dataset&, long round) {
    called.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(cid);
    EXPECT_EQ(round, 0);
  });
  eng.run(eng.sync_scenario(1), {});
  EXPECT_EQ(called.load(), 2);
  EXPECT_EQ(ids.size(), 2u);
}

TEST(Simulation, AdaptiveAggregationRuns) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 41, 300, 80));
  Rng rng(42);
  auto parts = data::partition_iid(tt.train, 3, rng);
  nn::Model global = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  fl::FlConfig cfg;
  cfg.aggregator = "adaptive";
  cfg.local.epochs = 1;
  cfg.local.lr = 0.01f;
  fl::Engine eng(global, parts, tt.test, cfg);
  const auto r = eng.collect(eng.sync_scenario(2));
  EXPECT_GT(r.back().global_accuracy, 15.0);
}

TEST(Simulation, SetClientDataReplaces) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 43, 100, 30));
  Rng rng(44);
  auto parts = data::partition_iid(tt.train, 2, rng);
  nn::Model global = nn::make_mlp({1, 28, 28}, 8, 10, rng);
  fl::FlConfig cfg;
  fl::Engine eng(global, parts, tt.test, cfg);
  data::Dataset smaller = parts[0].subset({0, 1, 2});
  eng.set_client_data(0, smaller);
  EXPECT_EQ(eng.client_data(0).size(), 3);
  EXPECT_THROW(eng.set_client_data(5, smaller), CheckError);
}

}  // namespace
}  // namespace goldfish

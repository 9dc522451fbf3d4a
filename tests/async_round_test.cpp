// Buffered-asynchronous federated rounds (Engine::async_scenario): the
// virtual-clock schedule must make results bit-identical at any thread
// count, degenerate to the synchronous path when K = num_clients with
// constant durations, apply staleness decay through the aggregator stack,
// evict deleted-data updates mid-buffer, and stay allocation-free at steady
// state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <vector>

#include "core/unlearner.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "nn/models.h"
#include "tensor/buffer_pool.h"

namespace goldfish {
namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool snapshots_bitwise_equal(const std::vector<Tensor>& a,
                             const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (!a[t].same_shape(b[t])) return false;
    if (std::memcmp(a[t].data(), b[t].data(),
                    a[t].numel() * sizeof(float)) != 0)
      return false;
  }
  return true;
}

struct Fed {
  std::vector<data::Dataset> parts;
  data::Dataset test;
  nn::Model global;
};

Fed make_fed(long clients, long train_rows, long test_rows,
             std::uint64_t seed) {
  auto tt = data::make_synthetic(data::default_spec(
      data::DatasetKind::Mnist, seed, train_rows, test_rows));
  Rng rng(seed + 1);
  Fed fed;
  fed.parts = data::partition_iid(tt.train, clients, rng);
  fed.test = std::move(tt.test);
  fed.global = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  return fed;
}

fl::FlConfig fast_cfg() {
  fl::FlConfig cfg;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 50;
  cfg.local.lr = 0.05f;
  return cfg;
}

// K = num_clients with constant durations reproduces the synchronous
// schedule exactly: every aggregation consumes one fresh update per client,
// in client order. Checked bitwise against sync_scenario for both a plain and
// an MSE-weighted aggregator, with decay off and (since every staleness is
// 0, where the decay factor is exactly 1) with decay on.
TEST(AsyncRound, MatchesSyncWhenBufferEqualsClients) {
  struct Case {
    const char* aggregator;
    double alpha;
  };
  for (const Case& tc : {Case{"fedavg", 0.0}, Case{"adaptive", 0.0},
                         Case{"fedavg", 0.5}}) {
    fl::FlConfig cfg = fast_cfg();
    cfg.aggregator = tc.aggregator;
    cfg.async.buffer_size = 0;  // → num_clients
    cfg.async.duration_log_jitter = 0.0;
    cfg.async.staleness_alpha = tc.alpha;

    Fed fed_sync = make_fed(3, 300, 90, 211);
    fl::Engine sync(fed_sync.global, fed_sync.parts, fed_sync.test, cfg);
    Fed fed_async = make_fed(3, 300, 90, 211);
    fl::Engine async(fed_async.global, fed_async.parts, fed_async.test, cfg);

    const auto want = sync.collect(sync.sync_scenario(3));
    const auto got = async.collect(async.async_scenario(3));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(
          bits_equal(got[i].global_accuracy, want[i].global_accuracy))
          << tc.aggregator << " alpha=" << tc.alpha << " agg " << i;
      EXPECT_EQ(got[i].bytes_uplinked, want[i].bytes_uplinked);
      EXPECT_EQ(got[i].max_staleness, 0);
      EXPECT_EQ(got[i].updates_consumed, 3);
      EXPECT_EQ(got[i].dropped_updates, 0);
    }
    EXPECT_TRUE(snapshots_bitwise_equal(sync.global_model().snapshot(),
                                        async.global_model().snapshot()))
        << tc.aggregator << " alpha=" << tc.alpha;
  }
}

// The virtual clock, not the wall clock, orders completions: the whole
// async run — final parameters and every telemetry field — is bit-identical
// with 1, 2 and 8 threads, stragglers and stale updates included.
TEST(AsyncRound, DeterministicAcrossThreadCounts) {
  std::vector<std::vector<Tensor>> finals;
  std::vector<std::vector<fl::StepResult>> results;
  for (std::size_t threads : {1u, 2u, 8u}) {
    Fed fed = make_fed(4, 400, 100, 223);
    fl::FlConfig cfg = fast_cfg();
    cfg.threads = threads;
    cfg.aggregator = "adaptive";
    cfg.async.buffer_size = 2;
    cfg.async.duration_log_jitter = 0.5;
    cfg.async.staleness_alpha = 0.5;
    fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
    results.push_back(eng.collect(eng.async_scenario(6)));
    finals.push_back(eng.global_model().snapshot());
  }
  for (std::size_t i = 1; i < finals.size(); ++i) {
    EXPECT_TRUE(snapshots_bitwise_equal(finals[0], finals[i]));
    ASSERT_EQ(results[0].size(), results[i].size());
    for (std::size_t a = 0; a < results[0].size(); ++a) {
      EXPECT_TRUE(bits_equal(results[0][a].global_accuracy,
                             results[i][a].global_accuracy));
      EXPECT_TRUE(bits_equal(results[0][a].virtual_time,
                             results[i][a].virtual_time));
      EXPECT_TRUE(bits_equal(results[0][a].mean_staleness,
                             results[i][a].mean_staleness));
      EXPECT_EQ(results[0][a].max_staleness, results[i][a].max_staleness);
      EXPECT_EQ(results[0][a].bytes_uplinked, results[i][a].bytes_uplinked);
    }
  }
}

// With a small buffer and heterogeneous durations, fast clients lap slow
// ones: some consumed update must be stale, and the run must still finish
// the requested number of aggregations.
TEST(AsyncRound, StragglersProduceStaleUpdates) {
  Fed fed = make_fed(4, 200, 60, 227);
  fl::FlConfig cfg = fast_cfg();
  cfg.async.buffer_size = 2;
  cfg.async.duration_log_jitter = 1.0;
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);

  // Record the (client, round) RNG steps the async run consumes.
  std::mutex mu;
  long max_async_round = -1;
  eng.set_client_update([&](std::size_t cid, nn::Model& model,
                            const data::Dataset& ds, long round) {
    {
      std::lock_guard<std::mutex> lock(mu);
      max_async_round = std::max(max_async_round, round);
    }
    fl::TrainOptions opts = cfg.local;
    opts.seed = mix_seed(cfg.seed, cid, static_cast<std::uint64_t>(round));
    fl::train_local(model, ds, opts);
  });

  const auto r = eng.collect(eng.async_scenario(8));
  ASSERT_EQ(r.size(), 8u);
  long max_staleness = 0;
  for (const auto& agg : r)
    max_staleness = std::max(max_staleness, agg.max_staleness);
  EXPECT_GE(max_staleness, 1);
  // Virtual time advances monotonically.
  for (std::size_t i = 1; i < r.size(); ++i)
    EXPECT_GE(r[i].virtual_time, r[i - 1].virtual_time);
  // Fast clients consumed task indices beyond the aggregation count; the
  // round counter must move past every (client, round) step the async run
  // trained with, so the next run draws strictly fresh RNG streams.
  EXPECT_GT(eng.rounds_completed(), max_async_round);
}

// A deletion request arriving mid-buffer (built by the unlearning driver's
// make_async_deletion) must evict the client's pending/in-flight updates —
// they trained on the deleted rows — and retrain the client on its
// remaining data from its next download.
TEST(AsyncRound, DeletionMidBufferEvictsAndRetrains) {
  Fed fed = make_fed(3, 300, 60, 229);
  const long full_rows = fed.parts[0].size();
  fl::FlConfig cfg = fast_cfg();
  cfg.async.buffer_size = 3;
  cfg.async.duration_log_jitter = 0.0;  // everyone completes at t=1,2,3,...
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);

  // Record every local-training call: (client, rows trained on).
  std::mutex mu;
  std::vector<std::pair<std::size_t, long>> calls;
  eng.set_client_update([&](std::size_t cid, nn::Model& model,
                            const data::Dataset& ds, long round) {
    {
      std::lock_guard<std::mutex> lock(mu);
      calls.push_back({cid, ds.size()});
    }
    fl::TrainOptions opts = cfg.local;
    opts.seed = mix_seed(cfg.seed, cid, static_cast<std::uint64_t>(round));
    fl::train_local(model, ds, opts);
  });

  // Forget rows {0,1,2} of client 0 at virtual time 0.5 — before any
  // completion, so client 0's very first (in-flight) update is void and the
  // first buffer must wait for its retrained replacement.
  core::UnlearnRequest req;
  req.client_id = 0;
  req.rows = {0, 1, 2};
  auto plan = core::make_async_deletion(eng, req, 0.5);
  EXPECT_EQ(plan.removed.size(), 3);

  std::vector<fl::DeletionEvent> dels;
  dels.push_back(std::move(plan.event));
  const auto r = eng.collect(eng.async_scenario(2, std::move(dels)));
  ASSERT_EQ(r.size(), 2u);
  // Exactly one update (client 0's poisoned first task) was dropped.
  EXPECT_EQ(r.back().dropped_updates, 1);
  // The engine's view of client 0 is durably the remaining data.
  EXPECT_EQ(eng.client_data(0).size(), full_rows - 3);
  // Client 0 trained once on the full set (the voided task) and afterwards
  // only on the remaining rows; no aggregated update saw deleted data after
  // the trigger.
  long full_calls = 0, reduced_calls = 0;
  for (const auto& [cid, rows] : calls) {
    if (cid != 0) continue;
    if (rows == full_rows) ++full_calls;
    if (rows == full_rows - 3) ++reduced_calls;
  }
  EXPECT_EQ(full_calls, 0);  // the poisoned task is never even executed
  EXPECT_GE(reduced_calls, 1);

  // A second deletion for the same client within one run would have been
  // split from the same pre-run dataset and resurrect the first one's
  // deleted rows; the engine rejects it loudly. (Sequential deletions go in
  // separate runs, where the split sees the already-shrunk data.)
  core::UnlearnRequest req2;
  req2.client_id = 1;
  req2.rows = {0};
  std::vector<fl::DeletionEvent> twice;
  twice.push_back(std::move(core::make_async_deletion(eng, req2, 1.0).event));
  twice.push_back(std::move(core::make_async_deletion(eng, req2, 2.0).event));
  EXPECT_THROW(eng.collect(eng.async_scenario(1, std::move(twice))),
               CheckError);
}

// Steady-state async aggregation touches the heap exactly zero times, like
// the pooled synchronous round.
TEST(AsyncRound, SteadyStateAllocatesNothing) {
  if (!alloc_stats::enabled())
    GTEST_SKIP() << "built without GOLDFISH_ALLOC_STATS";
  Fed fed = make_fed(3, 150, 60, 233);
  fl::FlConfig cfg = fast_cfg();
  cfg.local.batch_size = 25;
  cfg.async.buffer_size = 2;
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
  eng.run(eng.async_scenario(3), {});  // warm-up: pool, arenas, recycler
  eng.run(eng.async_scenario(3), {});
  const std::size_t before = alloc_stats::heap_allocations();
  eng.run(eng.async_scenario(3), {});
  EXPECT_EQ(alloc_stats::heap_allocations() - before, 0u);
}

// The splitmix64-based (seed, client, round) mix has none of the old xor
// mix's collisions: the documented colliding pair draws distinct streams,
// and a dense grid of (client, round) pairs is collision-free.
TEST(MixSeed, DistinctStreamsForClientRoundPairs) {
  const std::uint64_t seed = 7;
  // The replaced mix was xor-linear in the round: client 0 at round K1^K2
  // and client 1 at round 0 drew the *same* stream.
  const auto old_mix = [seed](std::uint64_t c, std::uint64_t r) {
    return seed ^ (0x9E3779B9u * (c + 1)) ^ r;
  };
  const std::uint64_t collide_r =
      (0x9E3779B9u * 1ull) ^ (0x9E3779B9u * 2ull);
  EXPECT_EQ(old_mix(0, collide_r), old_mix(1, 0));  // the documented bug
  EXPECT_NE(mix_seed(seed, 0, collide_r), mix_seed(seed, 1, 0));

  std::vector<std::uint64_t> seen;
  for (std::uint64_t c = 0; c < 8; ++c)
    for (std::uint64_t r = 0; r < 64; ++r)
      seen.push_back(mix_seed(seed, c, r));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

}  // namespace
}  // namespace goldfish

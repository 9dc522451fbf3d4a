// The zero-allocation federated round: pooled client models + per-model
// workspace arenas + batched client evaluation must be bit-identical to the
// historical allocate-everything path at any thread count, and a steady-state
// round must perform zero FloatBuffer heap allocations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "metrics/evaluation.h"
#include "nn/models.h"
#include "tensor/buffer_pool.h"
#include "tensor/serialize.h"

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

Fed make_fed(const char* arch, long clients, long train_rows, long test_rows,
             std::uint64_t seed) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, seed, train_rows,
                         test_rows));
  Rng rng(seed + 1);
  Fed fed;
  fed.parts = data::partition_iid(tt.train, clients, rng);
  fed.test = std::move(tt.test);
  fed.global = nn::make_model(arch, {1, 28, 28}, 10, rng);
  return fed;
}

// One synchronous round on the engine (the canned sync bundle, with the
// local-accuracy block).
fl::StepResult sync_round(fl::Engine& eng) {
  fl::StepResult out;
  eng.run(eng.sync_scenario(1), [&](const fl::StepResult& s) { out = s; });
  return out;
}

// The pre-pool round, replicated verbatim (modulo the per-client seed mix,
// regenerated to the collision-free mix_seed golden stream): deep model copy
// per client, stringstream wire path, per-client evaluation. The engine's
// synchronous step must match it bit for bit.
fl::StepResult reference_round(nn::Model& global,
                               const std::vector<data::Dataset>& clients,
                               const data::Dataset& test,
                               const fl::FlConfig& cfg, long round) {
  const std::size_t n = clients.size();
  std::vector<fl::ClientUpdate> updates(n);
  std::vector<double> local_acc(n, 0.0);
  std::atomic<std::size_t> bytes{0};
  auto agg = fl::make_aggregator(cfg.aggregator);

  for (std::size_t c = 0; c < n; ++c) {
    nn::Model local = global;  // broadcast: deep copy of global weights
    fl::TrainOptions opts = cfg.local;
    opts.seed = mix_seed(cfg.seed, c, static_cast<std::uint64_t>(round));
    fl::train_local(local, clients[c], opts);
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    const auto snap = local.snapshot();
    const std::uint32_t count = static_cast<std::uint32_t>(snap.size());
    ss.write(reinterpret_cast<const char*>(&count), sizeof(count));
    for (const Tensor& t : snap) write_tensor(ss, t);
    const std::string buf = ss.str();
    bytes.fetch_add(buf.size());
    std::stringstream in(buf, std::ios::in | std::ios::binary);
    std::uint32_t cnt = 0;
    in.read(reinterpret_cast<char*>(&cnt), sizeof(cnt));
    updates[c].params.reserve(cnt);
    for (std::uint32_t i = 0; i < cnt; ++i)
      updates[c].params.push_back(read_tensor(in));
    updates[c].dataset_size = clients[c].size();
    local_acc[c] = metrics::accuracy(local, test);
  }

  if (agg->name() == "adaptive") {
    for (std::size_t c = 0; c < n; ++c) {
      nn::Model scratch = global;
      scratch.load(updates[c].params);
      updates[c].mse = metrics::mse(scratch, test);
    }
  }

  global.load(agg->aggregate(updates));

  fl::StepResult r;
  r.step = round;
  r.global_accuracy = metrics::accuracy(global, test);
  r.bytes_uplinked = bytes.load();
  r.min_local_accuracy = *std::min_element(local_acc.begin(), local_acc.end());
  r.max_local_accuracy = *std::max_element(local_acc.begin(), local_acc.end());
  double mean = 0.0;
  for (double a : local_acc) mean += a;
  r.mean_local_accuracy = mean / double(n);
  return r;
}

void expect_rounds_bitwise_equal(const fl::StepResult& a,
                                 const fl::StepResult& b) {
  EXPECT_TRUE(bits_equal(a.global_accuracy, b.global_accuracy));
  EXPECT_TRUE(bits_equal(a.min_local_accuracy, b.min_local_accuracy));
  EXPECT_TRUE(bits_equal(a.max_local_accuracy, b.max_local_accuracy));
  EXPECT_TRUE(bits_equal(a.mean_local_accuracy, b.mean_local_accuracy));
  EXPECT_EQ(a.bytes_uplinked, b.bytes_uplinked);
}

TEST(ZeroAllocRound, MatchesLegacyPathBitwiseMlp) {
  // Stacked (batched) client evaluation path.
  for (const char* agg : {"fedavg", "adaptive"}) {
    Fed fed = make_fed("mlp16", 3, 300, 90, 101);
    nn::Model ref_global = fed.global;
    fl::FlConfig cfg;
    cfg.aggregator = agg;
    cfg.local.epochs = 2;
    cfg.local.batch_size = 50;
    cfg.local.lr = 0.05f;
    fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
    for (long r = 0; r < 3; ++r) {
      const auto got = sync_round(eng);
      const auto want =
          reference_round(ref_global, fed.parts, fed.test, cfg, r);
      expect_rounds_bitwise_equal(got, want);
    }
    EXPECT_TRUE(snapshots_bitwise_equal(eng.global_model().snapshot(),
                                        ref_global.snapshot()));
  }
}

TEST(ZeroAllocRound, MatchesLegacyPathBitwiseConv) {
  // Per-model pooled evaluation path (conv nets are not weight-stackable).
  Fed fed = make_fed("lenet5", 2, 120, 60, 103);
  nn::Model ref_global = fed.global;
  fl::FlConfig cfg;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 30;
  cfg.local.lr = 0.05f;
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
  for (long r = 0; r < 2; ++r) {
    const auto got = sync_round(eng);
    const auto want = reference_round(ref_global, fed.parts, fed.test, cfg, r);
    expect_rounds_bitwise_equal(got, want);
  }
  EXPECT_TRUE(snapshots_bitwise_equal(eng.global_model().snapshot(),
                                      ref_global.snapshot()));
}

TEST(ZeroAllocRound, DeterministicAcrossThreadCounts) {
  std::vector<std::vector<Tensor>> finals;
  std::vector<fl::StepResult> lasts;
  for (std::size_t threads : {1u, 2u, 8u}) {
    Fed fed = make_fed("mlp16", 4, 400, 100, 107);
    fl::FlConfig cfg;
    cfg.threads = threads;
    cfg.local.epochs = 1;
    cfg.local.batch_size = 50;
    cfg.local.lr = 0.05f;
    fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
    fl::StepResult last;
    for (long r = 0; r < 3; ++r) last = sync_round(eng);
    finals.push_back(eng.global_model().snapshot());
    lasts.push_back(last);
  }
  for (std::size_t i = 1; i < finals.size(); ++i) {
    EXPECT_TRUE(snapshots_bitwise_equal(finals[0], finals[i]));
    expect_rounds_bitwise_equal(lasts[0], lasts[i]);
  }
}

TEST(ZeroAllocRound, PooledModelAndArenaMatchFreshClones) {
  // Reusing one pooled model (copy_from + warm arena) across training runs
  // with a mid-run batch-size change must match training fresh clones.
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 109, 200, 50));
  Rng rng(110);
  nn::Model global = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  nn::Model pooled = global;  // the "pool": one replica, reused in place

  for (long run = 0; run < 3; ++run) {
    fl::TrainOptions opts;
    opts.epochs = 1;
    opts.batch_size = run == 1 ? 32 : 50;  // arena regrows mid-sequence
    opts.lr = 0.05f;
    opts.seed = 1000 + static_cast<std::uint64_t>(run);

    pooled.copy_from(global);
    fl::train_local(pooled, tt.train, opts);

    nn::Model fresh = global;  // the legacy path: deep copy every time
    fl::train_local(fresh, tt.train, opts);

    EXPECT_TRUE(
        snapshots_bitwise_equal(pooled.snapshot(), fresh.snapshot()));
    EXPECT_TRUE(bits_equal(metrics::accuracy(pooled, tt.test),
                           metrics::accuracy(fresh, tt.test)));
  }
}

TEST(ZeroAllocRound, BatchedEvaluatorMatchesAnyChunking) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 111, 300, 130));
  Rng rng(112);
  nn::Model m = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  fl::TrainOptions opts;
  opts.epochs = 1;
  opts.lr = 0.05f;
  fl::train_local(m, tt.train, opts);

  const double want_acc = metrics::accuracy(m, tt.test);  // 256-row batches
  const double want_mse = metrics::mse(m, tt.test);
  for (long chunk : {0L, 1L, 7L, 64L, 256L, 1000L}) {
    metrics::BatchedEvaluator ev(tt.test, chunk);
    const metrics::Score s = ev.score(m, /*with_mse=*/true);
    EXPECT_TRUE(bits_equal(ev.accuracy(m), want_acc)) << "chunk " << chunk;
    EXPECT_TRUE(bits_equal(s.accuracy, want_acc)) << "chunk " << chunk;
    EXPECT_TRUE(bits_equal(s.mse, want_mse)) << "chunk " << chunk;
  }
}

TEST(ZeroAllocRound, SteadyStateRoundsAllocateNothing) {
  if (!alloc_stats::enabled())
    GTEST_SKIP() << "built without GOLDFISH_ALLOC_STATS";
  // Both sides of the scoring fork (stacked mlp, per-model conv), with and
  // without the adaptive aggregator's MSE.
  for (const char* agg : {"fedavg", "adaptive"}) {
    for (const char* arch : {"mlp16", "lenet5"}) {
      Fed fed = make_fed(arch, 3, 150, 60, 113);
      fl::FlConfig cfg;
      cfg.aggregator = agg;
      cfg.local.epochs = 1;
      cfg.local.batch_size = 25;
      fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
      sync_round(eng);  // warm-up: pool, arenas, recycler all sized here
      sync_round(eng);
      for (long r = 0; r < 2; ++r) {
        const std::size_t before = alloc_stats::heap_allocations();
        sync_round(eng);
        EXPECT_EQ(alloc_stats::heap_allocations() - before, 0u)
            << agg << " " << arch << " round " << r;
      }
    }
  }
}

// A task marked BufferPoolProvision(c) parks c spare blocks for every block
// it holds beyond what any earlier task held, so c + 1 tasks holding the
// same buffers at once all find them parked, however the earlier tasks
// happened to be scheduled.
TEST(ZeroAllocRound, ProvisionParksBuffersForConcurrentTasks) {
  if (!alloc_stats::enabled())
    GTEST_SKIP() << "built without GOLDFISH_ALLOC_STATS";
  BufferPoolScope scope;
  const auto hold_two = [] {
    std::vector<Tensor> held;
    held.push_back(Tensor::uninit({1237}));
    held.push_back(Tensor::uninit({1237}));
    return held;
  };
  std::size_t before = alloc_stats::heap_allocations();
  {
    BufferPoolProvision task(3);
    hold_two();
  }
  EXPECT_EQ(alloc_stats::heap_allocations() - before, 2u + 2u * 3u);

  before = alloc_stats::heap_allocations();
  std::vector<std::vector<Tensor>> concurrent;
  for (int t = 0; t < 4; ++t) {
    BufferPoolProvision task(3);
    concurrent.push_back(hold_two());  // no task holds more than the first
  }
  EXPECT_EQ(alloc_stats::heap_allocations() - before, 0u);
  concurrent.push_back(hold_two());  // a fifth holder is past the provision
  EXPECT_EQ(alloc_stats::heap_allocations() - before, 2u);
}

TEST(ZeroAllocRound, PoolBoundedByParallelism) {
  Fed fed = make_fed("mlp16", 6, 300, 60, 115);
  fl::FlConfig cfg;
  cfg.threads = 2;
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
  sync_round(eng);
  sync_round(eng);
  EXPECT_GE(eng.pool_size(), 1u);
  EXPECT_LE(eng.pool_size(), 2u);  // never one replica per client
}

TEST(ZeroAllocRound, ModelCopyFromRequiresMatchingStructure) {
  Rng rng(117);
  nn::Model a = nn::make_mlp({1, 4, 4}, 8, 3, rng);
  nn::Model b = nn::make_mlp({1, 4, 4}, 8, 3, rng);
  b.copy_from(a);
  EXPECT_TRUE(snapshots_bitwise_equal(a.snapshot(), b.snapshot()));
  nn::Model c = nn::make_mlp({1, 4, 4}, 4, 3, rng);
  EXPECT_THROW(c.copy_from(a), CheckError);
}

}  // namespace
}  // namespace goldfish

// End-to-end federated-round benchmark (google-benchmark): the pooled
// zero-allocation engine round (Engine::sync_scenario(1)) against a verbatim
// port of the pre-pool round (deep model copy per client, stringstream wire
// path, index-gathered 256-row evaluation batches — the allocate-everything
// baseline the pool replaced). Both run the library's default FlConfig
// (epochs=1, B=100, η=0.001, FedAvg) over the same synthetic federation.
//
// items_per_second is rounds/s, so the CI ratchet's machine-independent
// ratio gate (BM_FlRoundPooled / BM_FlRoundFresh, bench/baseline_ci.json)
// locks in the round-throughput win, and the allocs_per_round counter —
// FloatBuffer heap allocations during one steady-state round, via
// tensor/buffer_pool.h's GOLDFISH_ALLOC_STATS hook — gates the
// zero-allocation property itself.
#include <benchmark/benchmark.h>

#include <atomic>
#include <sstream>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "metrics/evaluation.h"
#include "nn/models.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace goldfish {
namespace {

// One federation shared by both benchmarks: C clients with one B=100 step of
// local data each and an evaluation-heavy server test set, the regime the
// round loop runs thousands of times in the paper's experiments.
constexpr long kClients = 16;
constexpr long kRowsPerClient = 100;
constexpr long kTestRows = 4096;
constexpr long kHidden = 8;

struct Federation {
  std::vector<data::Dataset> parts;
  data::Dataset test;
  nn::Model global;

  Federation() {
    auto tt = data::make_synthetic(data::default_spec(
        data::DatasetKind::Mnist, 991, kClients * kRowsPerClient, kTestRows));
    Rng rng(17);
    parts = data::partition_iid(tt.train, kClients, rng);
    test = std::move(tt.test);
    global = nn::make_mlp({1, 28, 28}, kHidden, 10, rng);
  }
};

void BM_FlRoundPooled(benchmark::State& state) {
  Federation fed;
  fl::FlConfig cfg;  // library defaults: epochs=1, B=100, η=0.001, fedavg
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
  double acc = 0.0;
  const auto sink = [&](const fl::StepResult& r) { acc = r.global_accuracy; };
  eng.run(eng.sync_scenario(1), sink);  // warm the pool, arenas and recycler
  for (auto _ : state) {
    eng.run(eng.sync_scenario(1), sink);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
  // Steady-state allocation count: one more round, outside the timing loop.
  // Reported only when the counting hook is compiled in — a build without
  // GOLDFISH_ALLOC_STATS omits the counter, so the CI gate fails as
  // "missing" instead of silently passing.
  if (alloc_stats::enabled()) {
    const std::size_t before = alloc_stats::heap_allocations();
    eng.run(eng.sync_scenario(1), sink);
    state.counters["allocs_per_round"] =
        double(alloc_stats::heap_allocations() - before);
  }
}
BENCHMARK(BM_FlRoundPooled)->Unit(benchmark::kMillisecond);

// Buffered-asynchronous rounds: K = 8 updates per aggregation (half the
// federation — genuinely semi-asynchronous), log-normal virtual durations,
// (1+s)^-0.5 staleness decay. items_per_second is *aggregations*/s; each
// aggregation consumes K client updates, so the CI ratchet compares it to
// the synchronous baseline's rounds/s (C updates each) with a K/C scale.
void BM_FlRoundAsync(benchmark::State& state) {
  Federation fed;
  fl::FlConfig cfg;
  cfg.async.buffer_size = kClients / 2;
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
  constexpr long kAggsPerIter = 4;
  // Warm the pool, arenas and recycler.
  eng.collect(eng.async_scenario(kAggsPerIter));
  for (auto _ : state) {
    const auto r = eng.collect(eng.async_scenario(kAggsPerIter));
    benchmark::DoNotOptimize(r.back().global_accuracy);
  }
  state.SetItemsProcessed(state.iterations() * kAggsPerIter);
  // Steady-state allocation gate for the async path (per aggregation).
  if (alloc_stats::enabled()) {
    const std::size_t before = alloc_stats::heap_allocations();
    eng.collect(eng.async_scenario(kAggsPerIter));
    state.counters["allocs_per_agg"] =
        double(alloc_stats::heap_allocations() - before) / kAggsPerIter;
  }
}
BENCHMARK(BM_FlRoundAsync)->Unit(benchmark::kMillisecond);

// Engine scenario: sampled participation (75% of clients per server
// version) with an adaptive buffer K(t) ∈ [4, 12] steered by observed
// staleness — the "new scenario combination" regime the Engine API opened.
// items_per_second is consumed *updates*/s (K varies per aggregation), so
// the CI ratchet compares update throughput against the legacy synchronous
// baseline with a 1/C scale.
void BM_FlScenario(benchmark::State& state) {
  Federation fed;
  fl::FlConfig cfg;
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
  constexpr long kAggsPerIter = 4;
  const auto scenario = [&] {
    fl::Scenario s = eng.async_scenario(kAggsPerIter);
    s.participation = std::make_unique<fl::SampledParticipation>(0.75, 1234);
    s.buffer = std::make_unique<fl::AdaptiveBuffer>(
        /*initial=*/kClients / 2, /*min=*/kClients / 4,
        /*max=*/3 * kClients / 4, /*target_staleness=*/1);
    return s;
  };
  eng.run(scenario(), {});  // warm the pool, arenas and recycler
  long updates = 0;
  for (auto _ : state) {
    eng.run(scenario(), [&](const fl::StepResult& r) {
      updates += r.updates_consumed;
      benchmark::DoNotOptimize(r.global_accuracy);
    });
  }
  state.SetItemsProcessed(updates);
  // Steady-state allocation gate: composed scenarios must stay as
  // allocation-free as the canned rounds (per aggregation).
  if (alloc_stats::enabled()) {
    const std::size_t before = alloc_stats::heap_allocations();
    long aggs = 0;
    eng.run(scenario(), [&](const fl::StepResult&) { ++aggs; });
    state.counters["allocs_per_agg"] =
        double(alloc_stats::heap_allocations() - before) / double(aggs);
  }
}
BENCHMARK(BM_FlScenario)->Unit(benchmark::kMillisecond);

// -- the pre-pool round, kept verbatim as the old-vs-new baseline ---------

/// The old wire path: serialize → stringstream → deserialize, allocating
/// the whole buffer (twice) per client per round.
std::vector<Tensor> legacy_roundtrip(const std::vector<Tensor>& ts,
                                     std::size_t* bytes_on_wire) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  const std::uint32_t count = static_cast<std::uint32_t>(ts.size());
  ss.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Tensor& t : ts) write_tensor(ss, t);
  const std::string buf = ss.str();
  if (bytes_on_wire != nullptr) *bytes_on_wire = buf.size();
  std::stringstream in(buf, std::ios::in | std::ios::binary);
  std::uint32_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  std::vector<Tensor> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(read_tensor(in));
  return out;
}

/// The old evaluation loop: an index vector plus a gathered batch copy for
/// every 256-row evaluation batch.
double legacy_accuracy(nn::Model& model, const data::Dataset& ds,
                       long batch_size = 256) {
  long correct = 0;
  const long n = ds.size();
  for (long lo = 0; lo < n; lo += batch_size) {
    const long hi = std::min(n, lo + batch_size);
    std::vector<std::size_t> idx;
    idx.reserve(static_cast<std::size_t>(hi - lo));
    for (long i = lo; i < hi; ++i) idx.push_back(static_cast<std::size_t>(i));
    auto [x, y] = ds.batch(idx);
    const Tensor logits = model.forward(x, /*train=*/false);
    const std::vector<long> pred = argmax_rows(logits);
    for (std::size_t i = 0; i < y.size(); ++i)
      if (pred[i] == y[i]) ++correct;
  }
  return 100.0 * double(correct) / double(n);
}

/// The synchronous round as it was before the model pool: a deep copy of
/// the global model per client, the stringstream wire path, per-batch
/// gathered evaluation.
fl::StepResult legacy_sync_round(nn::Model& global,
                                 const std::vector<data::Dataset>& clients,
                                 const data::Dataset& test,
                                 const fl::FlConfig& cfg, long round) {
  const std::size_t n = clients.size();
  std::vector<fl::ClientUpdate> updates(n);
  std::vector<double> local_acc(n, 0.0);
  std::atomic<std::size_t> bytes{0};
  auto agg = fl::make_aggregator(cfg.aggregator);

  // grain=1: a body is one whole client training run.
  runtime::Scheduler::global().parallel_map(n, [&](std::size_t c) {
    nn::Model local = global;  // broadcast: deep copy of global weights
    fl::TrainOptions opts = cfg.local;
    // Same collision-free seed streams as the engine, so old and new
    // paths train identical batch orders and stay workload-comparable.
    opts.seed = mix_seed(cfg.seed, c, static_cast<std::uint64_t>(round));
    fl::train_local(local, clients[c], opts);
    std::size_t wire = 0;
    updates[c].params = legacy_roundtrip(local.snapshot(), &wire);
    updates[c].dataset_size = clients[c].size();
    bytes.fetch_add(wire, std::memory_order_relaxed);
    local_acc[c] = legacy_accuracy(local, test);
  }, /*grain=*/1);

  global.load(agg->aggregate(updates));

  fl::StepResult r;
  r.step = round;
  r.global_accuracy = legacy_accuracy(global, test);
  r.bytes_uplinked = bytes.load();
  r.min_local_accuracy = *std::min_element(local_acc.begin(), local_acc.end());
  r.max_local_accuracy = *std::max_element(local_acc.begin(), local_acc.end());
  double mean = 0.0;
  for (double a : local_acc) mean += a;
  r.mean_local_accuracy = mean / double(n);
  return r;
}

void BM_FlRoundFresh(benchmark::State& state) {
  Federation fed;
  fl::FlConfig cfg;
  nn::Model global = fed.global;
  long round = 0;
  legacy_sync_round(global, fed.parts, fed.test, cfg, round++);  // warm-up
  for (auto _ : state) {
    fl::StepResult r =
        legacy_sync_round(global, fed.parts, fed.test, cfg, round++);
    benchmark::DoNotOptimize(r.global_accuracy);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlRoundFresh)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace goldfish

BENCHMARK_MAIN();

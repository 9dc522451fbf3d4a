// Population-scale scenario benchmark (google-benchmark): a federation of
// 10^4 or 10^5 registered clients driven through cohort-sampled buffered
// aggregations by the population engine (src/fl/population/). Client state
// lives cold in the GFP1 client-state store and is materialized into pooled
// slots only for the sampled cohort, so resident dataset memory is
// O(cohort), not O(population).
//
// The CI ratchet gates the memory model, not just throughput (all on the
// /100000 instance):
//   * population_clients  (counters_min) — the bench really registers 10^5;
//   * resident_bytes ≤ 0.05 × cold_bytes (counters_max, max_times_counter) —
//     the peak materialized footprint stays a few percent of the cold store,
//     i.e. proportional to the cohort rather than the population;
//   * items_per_second(/100000) ≥ 0.7 × (/10000) (ratios) — a run's server
//     cost follows the clients it touches: ten times the registered clients
//     with the same cohort must keep most of the update throughput.
// peak_rss_bytes (VmHWM) is reported alongside as the OS-level view.
#include <benchmark/benchmark.h>

#include "common.h"
#include "fl/engine.h"

namespace goldfish {
namespace {

// state.range(0) registered clients, 64 sampled per server version, K = 32
// buffered updates per aggregation. Rows are tiny (two 1×4×4 examples per
// client): the regime under test is state management at population scale,
// not local SGD throughput.
constexpr std::size_t kCohort = 64;
constexpr long kBuffer = 32;
constexpr long kAggsPerIter = 3;
constexpr long kRowsPerClient = 2;
constexpr long kTestRows = 256;
constexpr long kClasses = 2;
const nn::InputGeom kGeom{1, 4, 4};

data::Dataset make_client_rows(long rows, std::uint64_t seed) {
  data::Dataset ds;
  ds.num_classes = kClasses;
  ds.geom = kGeom;
  ds.features = Tensor::uninit({rows, kGeom.flat()});
  Rng rng(seed);
  float* f = ds.features.data();
  for (std::size_t i = 0; i < ds.features.numel(); ++i)
    f[i] = float(rng.uniform()) - 0.5f;
  ds.labels.resize(static_cast<std::size_t>(rows));
  for (auto& y : ds.labels) y = static_cast<long>(rng.uniform_index(kClasses));
  return ds;
}

void BM_FlScenarioPopulation(benchmark::State& state) {
  const auto population = static_cast<std::size_t>(state.range(0));
  fl::population::Population pop;
  for (std::size_t c = 0; c < population; ++c)
    pop.clients.add(make_client_rows(kRowsPerClient, 0xBADC0FFEEull + c));

  fl::FlConfig cfg;
  cfg.local.epochs = 1;
  cfg.local.batch_size = kRowsPerClient;
  cfg.async.buffer_size = kBuffer;
  Rng rng(31);
  nn::Model global = nn::make_mlp(kGeom, 8, kClasses, rng);
  fl::Engine eng(std::move(global), std::move(pop),
                 make_client_rows(kTestRows, 0xF00Dull), cfg);

  std::uint64_t round = 0;
  const auto scenario = [&] {
    fl::Scenario s = eng.async_scenario(kAggsPerIter);
    s.participation =
        std::make_unique<fl::CohortParticipation>(kCohort, 71 + round++);
    return s;
  };
  eng.run(scenario(), {});  // warm the slot pool, replicas and recycler
  long updates = 0;
  for (auto _ : state) {
    eng.run(scenario(), [&](const fl::StepResult& r) {
      updates += r.updates_consumed;
      benchmark::DoNotOptimize(r.global_accuracy);
    });
  }
  state.SetItemsProcessed(updates);

  const auto& store = eng.population()->clients;
  state.counters["population_clients"] = double(store.num_clients());
  state.counters["cold_bytes"] = double(store.cold_bytes());
  // Peak materialized dataset bytes across the whole run — the number the
  // O(cohort) claim is about (resident_bytes() itself is 0 between runs:
  // every slot is released when a run commits).
  state.counters["resident_bytes"] = double(store.peak_resident_bytes());
  state.counters["materializations"] = double(store.materializations());
  state.counters["peak_rss_bytes"] = double(bench::process_peak_rss_bytes());
}
BENCHMARK(BM_FlScenarioPopulation)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace goldfish

BENCHMARK_MAIN();

// WirePolicy benchmarks (google-benchmark): encode+decode throughput of
// every wire on a realistic MLP snapshot, and the accuracy-vs-bytes axis of
// a quantized engine scenario against its dense twin.
//
// Two ratchet hooks (bench/baseline_ci.json):
//   * items_per_second of the BM_WireEncode* roundtrips is *dense* model
//     bytes shipped per second — GB/s of model traffic, the same unit for
//     every wire, so per-wire floors catch a serialized or de-vectorized
//     codec regardless of its compression ratio.
//   * BM_WireScenarioQuantized reports the upload_bytes, bytes_vs_dense_pct
//     and acc_drop_pts counters from a fresh quantized-vs-dense engine pair;
//     counters_min / counters_max gates pin "real nonzero byte counts, at
//     least 3x smaller than dense, accuracy within the documented 2-point
//     tolerance".
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "nn/models.h"
#include "tensor/buffer_pool.h"

namespace goldfish {
namespace {

/// A 256-hidden MLP snapshot (~814 KB dense): big enough that codec
/// throughput, not fixed overhead, dominates.
std::vector<Tensor> bench_params(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> ps;
  ps.push_back(Tensor::randn({256, 784}, rng));
  ps.push_back(Tensor::randn({256}, rng));
  ps.push_back(Tensor::randn({10, 256}, rng));
  ps.push_back(Tensor::randn({10}, rng));
  return ps;
}

void roundtrip_loop(benchmark::State& state, const fl::WirePolicy& wire,
                    bool with_reference) {
  BufferPoolScope recycle;  // decode output tensors recycle between iters
  const std::vector<Tensor> ps = bench_params(101);
  const std::vector<Tensor> ref = bench_params(102);
  const std::vector<Tensor>* r = with_reference ? &ref : nullptr;
  std::string buf;
  for (auto _ : state) {
    wire.encode(ps, r, buf);
    std::vector<Tensor> back = wire.decode(buf.data(), buf.size(), r);
    benchmark::DoNotOptimize(back.front().data());
  }
  // Items = dense bytes of the snapshot shipped per roundtrip: one unit for
  // every wire, so items_per_second compares codecs on model traffic moved,
  // not on their (smaller) encoded output.
  const std::size_t dense_bytes = fl::DenseWire().encoded_bytes(ps);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dense_bytes));
  state.counters["bytes_per_update"] = double(buf.size());
  state.counters["bytes_vs_dense_pct"] =
      100.0 * double(buf.size()) / double(dense_bytes);
}

void BM_WireEncodeDense(benchmark::State& state) {
  roundtrip_loop(state, fl::DenseWire(), false);
}
BENCHMARK(BM_WireEncodeDense)->Unit(benchmark::kMicrosecond);

void BM_WireEncodeQuantized(benchmark::State& state) {
  roundtrip_loop(state, fl::QuantizedWire(), false);
}
BENCHMARK(BM_WireEncodeQuantized)->Unit(benchmark::kMicrosecond);

void BM_WireEncodeTopK(benchmark::State& state) {
  roundtrip_loop(state, fl::TopKWire(0.1), false);
}
BENCHMARK(BM_WireEncodeTopK)->Unit(benchmark::kMicrosecond);

void BM_WireEncodeDeltaQuantized(benchmark::State& state) {
  roundtrip_loop(state,
                 fl::DeltaWire(std::make_unique<fl::QuantizedWire>()), true);
}
BENCHMARK(BM_WireEncodeDeltaQuantized)->Unit(benchmark::kMicrosecond);

// -- the accuracy-vs-bytes axis, end to end ---------------------------------

constexpr long kClients = 16;
constexpr long kRowsPerClient = 100;
constexpr long kTestRows = 1024;
constexpr long kHidden = 8;
constexpr long kAggs = 4;

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

fl::StepResult run_fresh(const Federation& fed,
                         std::unique_ptr<fl::WirePolicy> wire) {
  fl::FlConfig cfg;
  cfg.async.buffer_size = kClients / 2;
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
  fl::Scenario s = eng.async_scenario(kAggs);
  s.wire = std::move(wire);
  return eng.collect(std::move(s)).back();
}

void BM_WireScenarioQuantized(benchmark::State& state) {
  Federation fed;
  // The gated counters come from a matched fresh pair — both runs train the
  // identical schedule from the identical initial model; only the wire
  // differs. Deterministic per seed, so the gates are exact, not noisy.
  const fl::StepResult dense = run_fresh(fed, nullptr);
  const fl::StepResult quant =
      run_fresh(fed, std::make_unique<fl::QuantizedWire>());

  fl::FlConfig cfg;
  cfg.async.buffer_size = kClients / 2;
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
  const auto scenario = [&] {
    fl::Scenario s = eng.async_scenario(kAggs);
    s.wire = std::make_unique<fl::QuantizedWire>();
    return s;
  };
  eng.run(scenario(), {});  // warm the pool, arenas and recycler
  long aggs = 0;
  for (auto _ : state) {
    eng.run(scenario(), [&](const fl::StepResult& r) {
      ++aggs;
      benchmark::DoNotOptimize(r.global_accuracy);
    });
  }
  state.SetItemsProcessed(aggs);
  state.counters["upload_bytes"] = double(quant.upload_bytes);
  state.counters["bytes_vs_dense_pct"] =
      100.0 * double(quant.upload_bytes) / double(dense.upload_bytes);
  state.counters["acc_drop_pts"] =
      dense.global_accuracy - quant.global_accuracy;
}
BENCHMARK(BM_WireScenarioQuantized)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace goldfish

BENCHMARK_MAIN();

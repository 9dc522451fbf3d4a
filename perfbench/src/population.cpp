// train-population: consecutive buffered, cohort-sampled scenarios over a
// population-mode Engine with 10^5 registered clients. Each scenario carries
// deletions of cold clients, joins and leaves on its timeline, uploads
// travel as DeltaWire(QuantizedWire) and the server weights adaptively.
// No distillation and tiny GEMMs: the time goes to Phase A scheduling,
// cold-record materialization and commit, snapshot interning, the wire,
// aggregation and scheduler fan-out.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <set>

#include "fl/engine.h"
#include "nn/models.h"
#include "tensor/buffer_pool.h"
#include "tensor/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace goldfish;

constexpr std::size_t kPopulation = 100000;
constexpr std::size_t kCohort = 64;
constexpr long kBuffer = 32;
constexpr long kAggsPerRun = 4;
constexpr long kRowsPerClient = 2;
constexpr long kTestRows = 256;
constexpr long kClasses = 2;
constexpr long kDeletionsPerRun = 4;
constexpr long kJoinsPerRun = 2;
constexpr long kLeavesPerRun = 2;
// Scenarios per run: kScenariosPerSecond per second of --seconds. The
// count, not a deadline, ends the loop: the snapshot store grows with every
// run (a known defect), so a deadline would let a faster build run more
// scenarios and pay more for the growth, and the digest would vary.
constexpr double kScenariosPerSecond = 50.0;
constexpr long kMinRuns = 20;
// setup_s is the median of this many setups, half before the measured loop
// and half after it. A shared VM's speed moves in steps that last from under
// a second to minutes (consecutive setups of one process sat at 0.035 s,
// then at 0.055 s, with one warm run): kWarmRuns makes a setup ~0.2 s, long
// enough to average the short steps, and the two windows sample long ones.
constexpr int kSetups = 8;
constexpr std::uint64_t kWarmRuns = 16;
const nn::InputGeom kGeom{1, 4, 4};

data::Dataset client_rows(long rows, std::uint64_t seed) {
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

std::uint64_t client_seed(std::uint64_t seed, std::size_t c) {
  return mix_seed(seed, 0xC11E, c);
}

struct World {
  std::unique_ptr<fl::Engine> eng;
  std::set<std::size_t> touched;  // clients already deleted from or gone
  double fl_train_s = 0.0;
  double peak_rss_mb = 0.0;
};

// Scenario `i` of the stream: cohort sampling, buffered K, the quantized
// delta wire, and deletions / joins / leaves of clients that are cold.
fl::Scenario scenario(World& w, std::uint64_t seed, long i) {
  fl::Engine& eng = *w.eng;
  fl::Scenario s = eng.async_scenario(kAggsPerRun);
  s.participation = std::make_unique<fl::CohortParticipation>(
      kCohort, mix_seed(seed, 0xC0407, static_cast<std::uint64_t>(i)));
  s.wire = std::make_unique<fl::DeltaWire>(
      std::make_unique<fl::QuantizedWire>());
  Rng rng(mix_seed(seed, 0xE7E7, static_cast<std::uint64_t>(i)));
  const auto fresh_client = [&] {
    for (;;) {
      const std::size_t c = rng.uniform_index(kPopulation);
      if (w.touched.insert(c).second) return c;
    }
  };
  for (long j = 0; j < kDeletionsPerRun; ++j) {
    fl::DeletionEvent d;
    d.time = 0.3 * double(j + 1);
    d.client = fresh_client();
    d.new_data = client_rows(kRowsPerClient, client_seed(seed, d.client))
                     .subset({0});
    s.deletions.push_back(std::move(d));
  }
  for (long j = 0; j < kJoinsPerRun; ++j) {
    fl::ClientJoinEvent ev;
    ev.time = 0.5 * double(j + 1);
    ev.dataset = client_rows(
        kRowsPerClient,
        mix_seed(seed, 0x701, static_cast<std::uint64_t>(i * kJoinsPerRun + j)));
    s.joins.push_back(std::move(ev));
  }
  for (long j = 0; j < kLeavesPerRun; ++j)
    s.leaves.push_back({0.4 * double(j + 1), fresh_client()});
  return s;
}

std::unique_ptr<World> setup(std::uint64_t seed, Tracer& tr) {
  auto w = std::make_unique<World>();
  fl::population::Population pop;
  {
    Scope reg(tr, "fl.population.register");
    for (std::size_t c = 0; c < kPopulation; ++c)
      pop.clients.add(client_rows(kRowsPerClient, client_seed(seed, c)));
  }
  fl::FlConfig cfg;
  cfg.local.epochs = 1;
  cfg.local.batch_size = kRowsPerClient;
  cfg.async.buffer_size = kBuffer;
  cfg.aggregator = "adaptive";
  cfg.seed = mix_seed(seed, 0xF1, 0);
  Rng mrng(mix_seed(seed, 0x30DE1, 0));
  nn::Model global = nn::make_mlp(kGeom, 8, kClasses, mrng);
  w->eng = std::make_unique<fl::Engine>(
      std::move(global), std::move(pop),
      client_rows(kTestRows, mix_seed(seed, 0x7E57, 0)), cfg);
  // Warm the slot pool, replicas and recycler with plain cohort runs.
  const double t0 = now_s();
  for (std::uint64_t r = 0; r < kWarmRuns; ++r) {
    fl::Scenario s = w->eng->async_scenario(kAggsPerRun);
    s.participation = std::make_unique<fl::CohortParticipation>(
        kCohort, mix_seed(seed, 0xC0407, ~r));
    s.wire = std::make_unique<fl::DeltaWire>(
        std::make_unique<fl::QuantizedWire>());
    w->eng->run(std::move(s), {});
  }
  w->fl_train_s = now_s() - t0;
  w->peak_rss_mb = peak_rss_mb();
  return w;
}

struct Loop {
  std::vector<double> run_s;
  std::vector<double> run_rate;  // aggregated updates per second, per run
  std::vector<double> step_ms;
  std::vector<double> first_step_ms;
  std::vector<double> commit_ms;
  long steps = 0;
  long updates = 0;
  long dropped = 0;
  double encode_error = 0.0;
  double staleness = 0.0;
  std::size_t upload_bytes = 0;
  std::size_t heap_allocs = 0;
  std::size_t materializations = 0;
  std::vector<std::size_t> unique_snapshots;  // after each run
};

// Run scenarios 0 .. count-1 in a closed loop.
Loop run_loop(World& w, std::uint64_t seed, long count, Tracer& tr,
              RunResult& out) {
  Loop L;
  fl::Engine& eng = *w.eng;
  if (tr.enabled())
    eng.set_client_update(traced_local_training(tr, eng.config()));
  const auto& store = eng.population()->clients;
  const std::size_t mat0 = store.materializations();
  const std::size_t alloc0 = alloc_stats::heap_allocations();
  for (long i = 0; i < count; ++i) {
    tr.set_request(i);
    fl::Scenario s = scenario(w, seed, i);
    long run_dropped = 0;
    const long updates0 = L.updates;
    const double t0 = now_s();
    double last = t0;
    {
      Scope run(tr, "fl.run");
      tr.set_task_parent(run.id());
      eng.run(std::move(s), [&](const fl::StepResult& r) {
        Scope sink(tr, "fl.sink");
        const double t = now_s();
        // The first step, from run() on, is fl.first_step_ms; steps are
        // the intervals between consecutive sink calls.
        (r.step == 0 ? L.first_step_ms : L.step_ms)
            .push_back(1e3 * (t - last));
        last = t;
        ++L.steps;
        ++out.attempted;
        if (!std::isfinite(r.global_accuracy) ||
            r.updates_consumed != kBuffer) {
          ++out.failed;
          std::cout << "CHECK FAILED: run " << i << " step " << r.step
                    << " accuracy " << r.global_accuracy << " consumed "
                    << r.updates_consumed << "\n";
        }
        L.updates += r.updates_consumed;
        L.encode_error += r.encode_error;
        L.staleness += r.mean_staleness;
        L.upload_bytes = r.upload_bytes;
        run_dropped = r.dropped_updates;
        out.steps.push_back(step_hash(r));
      });
    }
    const double t1 = now_s();
    L.commit_ms.push_back(1e3 * (t1 - last));
    L.run_s.push_back(t1 - t0);
    L.run_rate.push_back(double(L.updates - updates0) / (t1 - t0));
    L.dropped += run_dropped;
    L.unique_snapshots.push_back(eng.population()->snapshots.unique_snapshots());
    // O(cohort) residency: every materialized slot is released on commit.
    if (store.resident_bytes() != 0) {
      ++out.failed;
      std::cout << "CHECK FAILED: run " << i << " left "
                << store.resident_bytes() << " resident bytes\n";
    }
  }
  L.heap_allocs = alloc_stats::heap_allocations() - alloc0;
  L.materializations = store.materializations() - mat0;
  return L;
}

}  // namespace

RunResult run_population(const Options& opt) {
  RunResult out;
  Tracer tr(opt.trace);
  Tracer off(false);

  std::vector<double> setup_times;
  std::unique_ptr<World> w;
  const auto set_up = [&](int count) {
    for (int i = 0; i < count; ++i) {
      w.reset();
      const double t0 = now_s();
      w = setup(opt.seed, tr);
      setup_times.push_back(now_s() - t0);
    }
  };
  set_up(opt.trace ? 1 : kSetups / 2);
  if (!reset_peak_rss()) std::cout << "note: VmHWM reset refused\n";
  const long scenarios =
      std::max(kMinRuns, std::lround(opt.seconds * kScenariosPerSecond));
  const Loop L = run_loop(*w, opt.seed, scenarios, tr, out);
  const double rss = peak_rss_mb();
  for (std::uint64_t h : out.steps) out.digest = fold(out.digest, h);

  const auto& pop = *w->eng->population();
  std::cout << "scenarios: " << L.run_s.size() << " (closed loop), steps: "
            << L.steps << ", registered clients: " << pop.clients.num_clients()
            << "\n";
  std::cout << "unique_snapshots after run 1 / half / last: "
            << L.unique_snapshots.front() << " / "
            << L.unique_snapshots[L.unique_snapshots.size() / 2] << " / "
            << L.unique_snapshots.back() << " (grows with run count)\n";
  {
    // The scenario time trend across the run: it rises as the snapshot
    // store grows, which is why the loop runs a fixed scenario count.
    const std::size_t tenth = std::max<std::size_t>(1, L.run_s.size() / 10);
    const std::vector<double> head(L.run_s.begin(), L.run_s.begin() + tenth);
    const std::vector<double> tail(L.run_s.end() - tenth, L.run_s.end());
    std::cout << "median scenario time, first / last tenth of the run: "
              << 1e3 * median(head) << " / " << 1e3 * median(tail) << " ms\n";
  }
  std::cout << "heap allocations per step: "
            << double(L.heap_allocs) / double(L.steps) << "\n";

  if (!opt.trace) {
    set_up(kSetups - kSetups / 2);
    print_times("setup times (s):", setup_times);
    out.set("setup_s", median(setup_times), "s");
    out.set("request_p50_s", median(L.run_s), "s");
    out.set("updates_per_s", median(L.run_rate), "1/s");
    out.set("step_p50_ms", median(L.step_ms), "ms");
    out.set("step_p99_ms", quantile(L.step_ms, 0.99), "ms");
    out.set("step_samples", double(L.step_ms.size()), "count");
    out.set("peak_rss_mb", rss, "MB");
    out.set("fail_ratio", double(out.failed) / double(out.attempted),
            "ratio");
    return out;
  }

  // Traced run: replay the same scenarios untraced on a fresh engine and
  // require a bitwise equal StepResult stream.
  const double traced_p50 = median(L.run_s);
  RunResult plain;
  std::unique_ptr<World> w2 = setup(opt.seed, off);
  const Loop P = run_loop(*w2, opt.seed, scenarios, off, plain);
  const bool equal = plain.steps == out.steps;
  std::cout << "traced vs untraced StepResult streams: "
            << (equal ? "bitwise equal" : "DIFFER") << " ("
            << out.steps.size() << " steps)\n";
  if (!equal) out.correct = false;

  const double steps = double(L.steps);
  const auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / double(v.size());
  };
  out.set("fl.first_step_ms", mean(L.first_step_ms), "ms");
  out.set("fl.commit_ms", mean(L.commit_ms), "ms");
  const long tasks = tr.count("fl.client_task");
  out.set("fl.client_task_ms", 1e3 * tr.total("fl.client_task") / double(tasks),
          "ms");
  out.set("fl.dropped_ratio", double(L.dropped) / double(tasks), "ratio");
  out.set("fl.upload_bytes", double(L.upload_bytes), "B");
  out.set("fl.encode_error", L.encode_error / steps, "ratio");
  out.set("fl.mean_staleness", L.staleness / steps, "count");
  out.set("fl.pool_size", double(w->eng->pool_size()), "count");
  out.set("fl.population.materializations_per_step",
          double(L.materializations) / steps, "count");
  out.set("fl.population.peak_resident_bytes",
          double(pop.clients.peak_resident_bytes()), "B");
  out.set("fl.population.cold_bytes", double(pop.clients.cold_bytes()), "B");
  out.set("fl.population.unique_snapshots",
          double(pop.snapshots.unique_snapshots()), "count");
  out.set("fl.population.snapshot_bytes", double(pop.snapshots.stored_bytes()),
          "B");
  out.set("tensor.heap_allocs_per_step", double(L.heap_allocs) / steps,
          "count");
  out.set("setup.fl_train_s", w->fl_train_s, "s");
  out.set("setup.peak_rss_mb", w->peak_rss_mb, "MB");
  out.set("trace.overhead_s", traced_p50 - median(P.run_s), "s");
  out.set("trace.bitwise_equal", equal ? 1.0 : 0.0, "count");

  ProbeShape ps;
  Rng mrng(1);
  ps.model = nn::make_mlp(kGeom, 8, kClasses, mrng);
  ps.batch_source = w->eng->server_test();
  ps.eval_set = &w->eng->server_test();
  ps.batch = kRowsPerClient;
  ps.updates = kBuffer;
  ps.delta_quantized_wire = true;
  ps.gemm_m = kRowsPerClient;
  ps.gemm_n = 8;
  ps.gemm_k = kGeom.flat();
  ps.calls = 500;  // its probe calls take microseconds
  probe_layers(ps, tr, out);

  finish_trace(tr, opt, out);
  return out;
}

}  // namespace perfbench

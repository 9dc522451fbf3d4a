// Scenario example: one event-driven timeline through fl::Engine.
//
// A six-client federation runs a buffered semi-asynchronous server with
//   * seeded client sampling (60% of clients per server version),
//   * an adaptive buffer size K(t) steered by observed staleness,
//   * a mid-run deletion request (client 1 forgets 20 rows — its buffered
//     and in-flight updates are evicted before they can aggregate),
//   * a client leaving and a new client joining mid-stream,
//   * an aggregator swap from fedavg to the paper's adaptive weighting,
// all declared up front as one Scenario and executed as a single engine
// run emitting a unified StepResult telemetry stream. The same run is
// bit-identical at any thread count (GOLDFISH_THREADS).
//
// Run: ./build/examples/scenario_stream
#include <iostream>

#include "core/unlearner.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "metrics/report.h"
#include "nn/models.h"

int main() {
  using namespace goldfish;
  std::cout << "== Engine scenario stream demo ==\n";

  // Seven partitions: six initial clients, the seventh joins mid-run.
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, /*seed=*/90,
                         /*train=*/1400, /*test=*/300));
  Rng rng(91);
  auto parts = data::partition_iid(tt.train, 7, rng);
  std::vector<data::Dataset> clients(parts.begin(), parts.begin() + 6);

  Rng mrng(92);
  nn::Model global = nn::make_mlp(tt.train.geom, 32, 10, mrng);
  fl::FlConfig cfg;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 50;
  cfg.local.lr = 0.05f;
  cfg.async.duration_log_jitter = 0.5;  // heterogeneous task durations
  fl::Engine eng(global, clients, tt.test, cfg);

  // The deletion request, split into (remaining, removed) exactly like the
  // unlearning driver does: the event carries D_r, we keep D_f for audit.
  core::UnlearnRequest req;
  req.client_id = 1;
  for (std::size_t i = 0; i < 20; ++i) req.rows.push_back(i);
  auto deletion = core::make_async_deletion(eng, req, /*vtime=*/0.75);

  fl::Scenario s = eng.async_scenario(8);
  s.participation = std::make_unique<fl::SampledParticipation>(0.6, 17);
  s.buffer = std::make_unique<fl::AdaptiveBuffer>(/*initial=*/4, /*min=*/2,
                                                  /*max=*/6,
                                                  /*target_staleness=*/1);
  s.deletions.push_back(std::move(deletion.event));
  s.leaves.push_back({/*time=*/3.5, /*client=*/4});
  s.joins.push_back({/*time=*/4.0, parts[6]});
  s.aggregator_swaps.push_back({/*time=*/5.0, "adaptive"});

  std::cout << "timeline: delete(c1)@0.75  leave(c4)@3.5  join@4.0  "
               "swap->adaptive@5.0\n\n"
            << "step  t      K  stale(mean/max)  dropped  active  "
               "aggregator        accuracy\n";
  eng.run(std::move(s), [](const fl::StepResult& r) {
    std::cout << "  " << r.step << "  " << metrics::fmt(r.virtual_time, 2)
              << "   " << r.updates_consumed << "  "
              << metrics::fmt(r.mean_staleness, 2) << " / "
              << r.max_staleness << "            " << r.dropped_updates
              << "        " << r.active_clients << "      "
              << r.aggregator << (r.aggregator.size() < 10 ? "\t\t  " : "  ")
              << metrics::fmt(r.global_accuracy) << "%\n";
  });

  std::cout << "\nafter the run: " << eng.num_clients()
            << " registered clients, " << eng.active_clients()
            << " active; client 1 keeps " << eng.client_data(1).size()
            << " rows (audit set: " << deletion.removed.size()
            << " removed)\n"
            << "a synchronous round on the same engine:\n";
  const long round = eng.rounds_completed();
  const auto r = eng.collect(eng.sync_scenario(1)).back();
  std::cout << "  sync round " << round
            << ": accuracy = " << metrics::fmt(r.global_accuracy)
            << "%  (locals " << metrics::fmt(r.min_local_accuracy) << "-"
            << metrics::fmt(r.max_local_accuracy) << "%)\n";
  return 0;
}

// Scenario example: the extension module's adaptive-weight aggregation
// (Eq. 12–13) against FedAvg on heterogeneous clients — the paper's Fig. 8
// setting as a standalone application.
//
// Clients receive wildly different amounts of (and label mixes of) data, so
// their local models vary from near-random to strong. FedAvg averages them
// by size; the adaptive aggregator weighs them by server-side test MSE and
// recovers a good global model faster in early rounds.
//
// Run: ./build/examples/heterogeneous_aggregation
#include <iostream>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "metrics/evaluation.h"
#include "metrics/report.h"
#include "nn/models.h"

int main() {
  using namespace goldfish;
  std::cout << "== Heterogeneous aggregation demo (5 clients) ==\n";

  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 50, 700, 200));
  Rng rng(51);
  data::HeteroOptions opt;
  opt.size_skew = 3.0f;
  opt.label_skew = true;
  auto clients = data::partition_heterogeneous(tt.train, 5, opt, rng);
  const auto stats = data::partition_stats(clients);
  std::cout << "client sizes: ";
  for (const auto& c : clients) std::cout << c.size() << " ";
  std::cout << "(variance " << metrics::fmt(stats.size_variance, 1)
            << ")\n\n";

  Rng mrng(52);
  nn::Model init = nn::make_mlp(tt.train.geom, 64, 10, mrng);

  for (const char* agg : {"fedavg", "adaptive"}) {
    fl::FlConfig cfg;
    cfg.aggregator = agg;
    cfg.local.epochs = 3;
    cfg.local.batch_size = 50;
    cfg.local.lr = 0.05f;
    fl::Engine eng(init, clients, tt.test, cfg);
    std::cout << "aggregator = " << agg << ":\n";
    for (const auto& round : eng.collect(eng.sync_scenario(5))) {
      std::cout << "  round " << round.step + 1 << ": global "
                << metrics::fmt(round.global_accuracy) << "%  (locals "
                << metrics::fmt(round.min_local_accuracy) << "–"
                << metrics::fmt(round.max_local_accuracy) << "%)\n";
    }
  }

  // The same comparison as one engine run: an AggregatorSwapEvent switches
  // the server to adaptive weighting mid-stream, no second simulation
  // needed. Rounds before the swap are bit-identical to the fedavg run.
  {
    fl::FlConfig cfg;
    cfg.aggregator = "fedavg";
    cfg.local.epochs = 3;
    cfg.local.batch_size = 50;
    cfg.local.lr = 0.05f;
    fl::Engine eng(init, clients, tt.test, cfg);
    fl::Scenario s = eng.sync_scenario(5);
    s.aggregator_swaps.push_back({/*time=*/2.5, "adaptive"});
    std::cout << "aggregator = fedavg with swap->adaptive after round 2:\n";
    eng.run(std::move(s), [](const fl::StepResult& r) {
      std::cout << "  round " << r.step + 1 << " [" << r.aggregator
                << "]: global " << metrics::fmt(r.global_accuracy)
                << "%  (locals " << metrics::fmt(r.min_local_accuracy)
                << "–" << metrics::fmt(r.max_local_accuracy) << "%)\n";
    });
  }
  std::cout << "\nexpected shape: adaptive pulls ahead of FedAvg in the "
               "first rounds by weighting the strong local models up; the "
               "swapped run changes course the round the event fires.\n";
  return 0;
}

// Fig. 9: FedAvg vs adaptive aggregation under IID client data for 5/15/25
// clients. Paper shape: the two methods are virtually identical when data
// is uniformly distributed.
#include "bench/common.h"

namespace goldfish::bench {
namespace {

void run_clients(long clients) {
  const auto prof = profile(data::DatasetKind::Mnist);
  const long per_client_budget = metrics::full_scale() ? 160 : 60;
  auto tt = data::make_synthetic(data::default_spec(
      data::DatasetKind::Mnist, 900 + static_cast<std::uint64_t>(clients),
      clients * per_client_budget, prof.test_size));
  Rng rng(901);
  auto parts = data::partition_iid(tt.train, clients, rng);
  const long rounds = metrics::full_scale() ? 10 : 6;

  metrics::TableReporter table(
      "Fig.9 — IID data, " + std::to_string(clients) + " clients",
      {"round", "FedAvg", "Ours"});
  Rng mrng(902);
  nn::Model init = nn::make_model(prof.arch, tt.train.geom,
                                  tt.train.num_classes, mrng);
  std::vector<std::vector<fl::StepResult>> runs;
  // "FedAvg" here is uniform parameter averaging — the variant the paper's
  // comparison exhibits; the size-weighted FedAvg lives in FedAvgAggregator.
  for (const char* agg : {"uniform", "adaptive"}) {
    fl::FlConfig cfg;
    cfg.aggregator = agg;
    cfg.local.epochs = prof.local_epochs;
    cfg.local.batch_size = prof.batch;
    cfg.local.lr = prof.lr;
    fl::Engine eng(init, parts, tt.test, cfg);
    runs.push_back(eng.collect(eng.sync_scenario(rounds)));
  }
  for (long r = 0; r < rounds; ++r) {
    table.add_row({std::to_string(r + 1),
                   metrics::fmt(runs[0][std::size_t(r)].global_accuracy),
                   metrics::fmt(runs[1][std::size_t(r)].global_accuracy)});
  }
  table.print();
  table.write_csv(csv_dir() + "/fig9_clients" + std::to_string(clients) +
                  ".csv");
}

}  // namespace
}  // namespace goldfish::bench

int main() {
  goldfish::bench::print_header(
      "Fig. 9: FedAvg vs adaptive aggregation, IID data");
  for (long clients : {5L, 15L, 25L}) goldfish::bench::run_clients(clients);
  return 0;
}

// Fig. 8 (a–c): FedAvg vs the adaptive-weight aggregation (Eq. 12–13) under
// heterogeneous client data, for 5 / 15 / 25 clients, with min–max local
// accuracy ranges. Paper shape: adaptive aggregation reaches higher global
// accuracy sooner in the early rounds because strong local models dominate
// the average; FedAvg catches up late.
#include "bench/common.h"

namespace goldfish::bench {
namespace {

void run_clients(long clients) {
  const auto prof = profile(data::DatasetKind::Mnist);
  const long per_client_budget = metrics::full_scale() ? 160 : 60;
  auto tt = data::make_synthetic(data::default_spec(
      data::DatasetKind::Mnist, 800 + static_cast<std::uint64_t>(clients),
      clients * per_client_budget, prof.test_size));
  Rng rng(801);
  data::HeteroOptions opt;
  auto parts = data::partition_heterogeneous(tt.train, clients, opt, rng);
  const long rounds = metrics::full_scale() ? 10 : 6;

  metrics::TableReporter table(
      "Fig.8 — heterogeneous data, " + std::to_string(clients) + " clients",
      {"round", "FedAvg", "FedAvg min", "FedAvg max", "Ours", "Ours min",
       "Ours max"});

  Rng mrng(802);
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
    const auto& fa = runs[0][std::size_t(r)];
    const auto& ad = runs[1][std::size_t(r)];
    table.add_row({std::to_string(r + 1), metrics::fmt(fa.global_accuracy),
                   metrics::fmt(fa.min_local_accuracy),
                   metrics::fmt(fa.max_local_accuracy),
                   metrics::fmt(ad.global_accuracy),
                   metrics::fmt(ad.min_local_accuracy),
                   metrics::fmt(ad.max_local_accuracy)});
  }
  table.print();
  table.write_csv(csv_dir() + "/fig8_clients" + std::to_string(clients) +
                  ".csv");
}

}  // namespace
}  // namespace goldfish::bench

int main() {
  goldfish::bench::print_header(
      "Fig. 8: FedAvg vs adaptive aggregation, heterogeneous data");
  for (long clients : {5L, 15L, 25L}) goldfish::bench::run_clients(clients);
  return 0;
}

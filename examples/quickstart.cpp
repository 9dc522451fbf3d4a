// Quickstart: the smallest end-to-end Goldfish unlearning run.
//
//   1. Synthesize an MNIST-like federated dataset across 3 clients.
//   2. Train a global model with FedAvg.
//   3. Client 0 requests deletion of part of its data.
//   4. Goldfish unlearns: the old global model becomes the teacher, the
//      re-initialized student distills only on the remaining data.
//   5. Compare accuracy before/after and show that predictions on the
//      removed data lose their confidence.
//
// Training runs the fl::Engine's canned synchronous scenario and
// GoldfishUnlearner::run does the same over its own engine; richer server
// regimes (sampling, buffered aggregation, mid-run deletions, joins/leaves)
// compose on the same engine — see examples/scenario_stream.cpp.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <iostream>

#include "core/unlearner.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "metrics/evaluation.h"
#include "metrics/report.h"
#include "nn/models.h"

int main() {
  using namespace goldfish;
  std::cout << "== Goldfish quickstart ==\n";

  // 1. Data: synthetic MNIST-like (784 features, 10 classes), 3 clients.
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, /*seed=*/42,
                         /*train=*/600, /*test=*/200));
  Rng rng(43);
  auto clients = data::partition_iid(tt.train, 3, rng);
  std::cout << "dataset: " << tt.train.size() << " train / "
            << tt.test.size() << " test, 3 clients\n";

  // 2. Federated training (FedAvg, paper hyperparameters scaled down).
  Rng mrng(44);
  nn::Model fresh = nn::make_mlp(tt.train.geom, 64, 10, mrng);
  nn::Model global = fresh;
  fl::FlConfig flcfg;
  flcfg.local.epochs = 3;
  flcfg.local.batch_size = 50;
  flcfg.local.lr = 0.05f;
  fl::Engine trainer(global, clients, tt.test, flcfg);
  for (const auto& round : trainer.collect(trainer.sync_scenario(5)))
    std::cout << "  train round " << round.step + 1
              << ": accuracy = " << metrics::fmt(round.global_accuracy) << "%"
              << "\n";
  global = trainer.global_model();

  // 3. Deletion request: client 0 wants its first 30 samples forgotten.
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < 30; ++i) rows.push_back(i);

  // 4. Goldfish unlearning.
  core::UnlearnConfig cfg;
  cfg.distill.max_epochs = 4;
  cfg.distill.batch_size = 50;
  cfg.distill.lr = 0.05f;
  cfg.distill.delta = 0.05f;  // early termination threshold (Eq. 7)
  core::GoldfishUnlearner unlearner(global, fresh, clients, tt.test, cfg);
  unlearner.request_deletion({{/*client_id=*/0, rows}});
  for (const fl::StepResult& round : unlearner.run(3))
    std::cout << "  unlearn round " << round.step + 1
              << ": accuracy = " << metrics::fmt(round.global_accuracy) << "%"
              << ", adaptive T = " << round.mean_temperature
              << ", epochs run = " << round.epochs_run << "\n";

  // 5. Inspect the removed data's predictions: confidence should be low.
  nn::Model& unlearned = unlearner.global_model();
  const auto conf =
      metrics::confidence_series(unlearned, unlearner.removed_data(0));
  double mean_conf = 0.0;
  for (double c : conf) mean_conf += c;
  mean_conf /= double(conf.size());
  std::cout << "accuracy after unlearning: "
            << metrics::fmt(metrics::accuracy(unlearned, tt.test)) << "%"
            << "\nmean confidence on removed samples: " << mean_conf
            << " (1/num_classes = 0.10 would be fully forgotten)\n";
  return 0;
}

// Scenario example: *auditing* an unlearning run with membership inference.
//
// Backdoor ASR only verifies forgetting of poisoned patterns. A stronger,
// attack-agnostic audit asks: can an adversary still tell that the removed
// samples were ever trained on? This example trains a federated model that
// memorizes, runs Goldfish unlearning on part of one client's data, and
// reports the confidence-threshold membership-inference attack (AUC and
// balanced accuracy) before and after — the audit should collapse towards
// chance (0.5).
//
// Run: ./build/examples/audited_unlearning
#include <iostream>

#include "core/unlearner.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "metrics/evaluation.h"
#include "metrics/membership_inference.h"
#include "metrics/report.h"
#include "nn/models.h"

int main() {
  using namespace goldfish;
  std::cout << "== Audited unlearning demo ==\n";

  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 31, 500, 250));
  Rng rng(32);
  auto clients = data::partition_iid(tt.train, 2, rng);

  // Train long enough to memorize (small data, many epochs).
  Rng mrng(33);
  nn::Model fresh = nn::make_mlp(tt.train.geom, 64, 10, mrng);
  nn::Model global = fresh;
  fl::FlConfig cfg;
  cfg.local.epochs = 12;
  cfg.local.batch_size = 50;
  cfg.local.lr = 0.05f;
  fl::Engine eng(global, clients, tt.test, cfg);
  eng.run(eng.sync_scenario(3), {});
  global = eng.global_model();
  std::cout << "trained model: accuracy "
            << metrics::fmt(metrics::accuracy(global, tt.test)) << "%\n";

  // The data subject: 80 rows of client 0.
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < 80; ++i) rows.push_back(i);
  data::Dataset subject = clients[0].subset(rows);

  const auto audit = [&](const char* when, nn::Model& m) {
    const auto r = metrics::membership_inference(m, subject, tt.test);
    std::cout << "  " << when << ": MIA AUC " << metrics::fmt(r.auc)
              << ", best attack accuracy " << metrics::fmt(r.best_accuracy)
              << ", member confidence " << metrics::fmt(r.member_confidence)
              << " vs non-member " << metrics::fmt(r.nonmember_confidence)
              << "\n";
  };
  std::cout << "membership-inference audit on the subject's 80 rows:\n";
  audit("before unlearning", global);

  core::UnlearnConfig ucfg;
  ucfg.distill.max_epochs = 5;
  ucfg.distill.batch_size = 50;
  ucfg.distill.lr = 0.05f;
  core::GoldfishUnlearner unlearner(global, fresh, clients, tt.test, ucfg);
  unlearner.request_deletion({{0, rows}});
  unlearner.run(2);
  // The unlearner rides the event-driven fl::Engine, so distillation also
  // runs under a buffered semi-asynchronous server: the final round is a
  // two-update-buffer scenario instead of a barrier round.
  {
    fl::Scenario s = unlearner.engine().async_scenario(1);
    s.buffer = std::make_unique<fl::FixedBuffer>(2);
    unlearner.engine().run(std::move(s), [](const fl::StepResult& r) {
      std::cout << "  buffered distillation step: K=" << r.updates_consumed
                << " at t=" << metrics::fmt(r.virtual_time, 2)
                << ", accuracy " << metrics::fmt(r.global_accuracy)
                << "%, epochs " << r.epochs_run << "\n";
    });
  }
  audit("after unlearning ", unlearner.global_model());

  std::cout << "accuracy after unlearning: "
            << metrics::fmt(
                   metrics::accuracy(unlearner.global_model(), tt.test))
            << "%\nexpected shape: AUC falls from ≫0.5 (memorized) to ≤0.5 "
               "while test accuracy holds.\nnote: an AUC far *below* 0.5 "
               "means the removed rows are now conspicuously *low*-"
               "confidence — the confusion loss over-flattens them. This is "
               "precisely the unlearning-leaks-privacy effect of Chen et "
               "al. (CCS'21), cited in the paper's motivation; calibrate "
               "µ_c against it.\n";
  return 0;
}

// Fig. 4 (a–e): test accuracy per retraining epoch/round for Ours vs B1
// (retrain from scratch) vs B2 (rapid retraining) on each dataset/model
// combination. Paper shape: Ours highest, B2 second, B1 lowest at equal
// epoch budgets.
#include "bench/common.h"

namespace goldfish::bench {
namespace {

struct Fig4Entry {
  const char* label;
  data::DatasetKind kind;
  /// Architecture override for the two extra CIFAR sub-figures; empty →
  /// the profile default.
  std::string arch_override;
  long train_override = 0;
  /// Noise moderation for the narrow quick-scale ResNets (see DESIGN.md §2).
  float noise_scale = 1.0f;
};

void run_entry(const Fig4Entry& entry) {
  Scenario s = make_scenario(entry.kind, 0.06f, 7000);
  if (!entry.arch_override.empty()) {
    // Rebuild with the override architecture (Fig. 4d/e variants).
    s.prof.arch = entry.arch_override;
    s.prof.batch = 32;
    if (entry.train_override > 0) {
      s.prof.train_size = entry.train_override;
      auto spec = data::default_spec(entry.kind, 7000, s.prof.train_size,
                                     s.prof.test_size);
      spec.noise_scale = entry.noise_scale;
      s.tt = data::make_synthetic(spec);
      Rng rng(7001);
      s.parts = data::partition_iid(s.tt.train, s.prof.clients, rng);
      auto poisoned = data::poison_dataset(s.parts[0], s.spec, 0.06f, rng);
      s.parts[0] = poisoned.poisoned;
      s.poisoned_rows = poisoned.poisoned_indices;
      s.probe = data::make_trigger_probe(s.tt.test, s.spec);
    }
    Rng mrng(7002);
    s.fresh = nn::make_model(s.prof.arch, s.tt.train.geom,
                             s.tt.train.num_classes, mrng);
    s.trained = s.fresh;
    fl::FlConfig cfg;
    cfg.local.epochs = s.prof.local_epochs;
    cfg.local.batch_size = s.prof.batch;
    cfg.local.lr = s.prof.lr;
    fl::Engine eng(s.trained, s.parts, s.tt.test, cfg);
    eng.run(eng.sync_scenario(std::max(3L, s.prof.fl_rounds / 2)), {});
    s.trained = eng.global_model();
  }

  const long rounds = metrics::full_scale() ? 10 : 5;

  // Ours: per-round accuracy from the unlearner.
  core::UnlearnConfig ucfg;
  ucfg.distill.max_epochs = s.prof.local_epochs;
  ucfg.distill.batch_size = s.prof.batch;
  ucfg.distill.lr = s.prof.lr;
  ucfg.distill.use_early_termination = false;
  core::GoldfishUnlearner ul(s.trained, s.fresh, s.parts, s.tt.test, ucfg);
  ul.request_deletion({{0, s.poisoned_rows}});
  const auto ours = ul.run(rounds);

  // B1 / B2: per-round accuracy from their simulations.
  fl::FlConfig b1cfg;
  b1cfg.local.epochs = s.prof.local_epochs;
  b1cfg.local.batch_size = s.prof.batch;
  b1cfg.local.lr = s.prof.lr;
  const auto b1 = baselines::retrain_from_scratch(
      s.fresh, s.remaining(), s.tt.test, b1cfg, rounds);

  baselines::RapidRetrainConfig b2cfg;
  b2cfg.fl = b1cfg;
  nn::Model trained_copy = s.trained;
  const auto b2 = baselines::rapid_retrain(
      s.fresh, trained_copy, s.remaining(), s.tt.test, b2cfg, rounds);

  metrics::TableReporter table(
      std::string("Fig.4 — retraining accuracy, ") + entry.label + " (" +
          s.prof.arch + ")",
      {"round", "Ours", "B1", "B2"});
  for (long r = 0; r < rounds; ++r) {
    table.add_row({std::to_string(r + 1),
                   metrics::fmt(ours[std::size_t(r)].global_accuracy),
                   metrics::fmt(b1[std::size_t(r)].global_accuracy),
                   metrics::fmt(b2[std::size_t(r)].global_accuracy)});
  }
  table.print();
  table.write_csv(csv_dir() + "/fig4_" + std::string(entry.label) + ".csv");
}

}  // namespace
}  // namespace goldfish::bench

int main() {
  using goldfish::data::DatasetKind;
  goldfish::bench::print_header("Fig. 4: retraining accuracy curves");
  const bool full = goldfish::metrics::full_scale();
  const std::vector<goldfish::bench::Fig4Entry> entries = {
      {"mnist", DatasetKind::Mnist, "", 0},
      {"fmnist", DatasetKind::FashionMnist, "", 0},
      {"cifar10_lenet", DatasetKind::Cifar10, "", 0},
      // Fig. 4d: CIFAR-10 on a ResNet (32 at full scale, 8 at quick).
      {"cifar10_resnet", DatasetKind::Cifar10,
       full ? "resnet32" : "resnet8", full ? 900 : 300,
       full ? 1.0f : 0.35f},
      // Fig. 4e: CIFAR-100 on a ResNet (56 at full scale, 8 at quick).
      {"cifar100_resnet", DatasetKind::Cifar100,
       full ? "resnet56" : "resnet8", full ? 900 : 300,
       full ? 1.0f : 0.35f},
  };
  for (const auto& e : entries) goldfish::bench::run_entry(e);
  return 0;
}

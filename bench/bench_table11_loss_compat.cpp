// Table XI: compatibility of the framework with different hard losses —
// cross-entropy (Total loss α), Focal (β), NLL (γ) — on the Table X setup.
// Paper shape: all three keep high accuracy and low backdoor ASR.
#include "bench/ablation_common.h"

int main() {
  using namespace goldfish;
  using namespace goldfish::bench;
  print_header("Table XI: hard-loss compatibility (CIFAR-10, ResNet)");

  const bool full = metrics::full_scale();
  Scenario s = make_scenario(data::DatasetKind::Cifar10, 0.10f, 11100);
  {
    s.prof.arch = full ? "resnet32" : "resnet8";
    s.prof.train_size = full ? 900 : 300;
    s.prof.batch = 32;
    auto spec = data::default_spec(
        data::DatasetKind::Cifar10, 11100, s.prof.train_size,
        s.prof.test_size);
    spec.noise_scale = full ? 1.0f : 0.35f;
    s.tt = data::make_synthetic(spec);
    Rng rng(11101);
    s.parts = data::partition_iid(s.tt.train, s.prof.clients, rng);
    auto poisoned = data::poison_dataset(s.parts[0], s.spec, 0.10f, rng);
    s.parts[0] = poisoned.poisoned;
    s.poisoned_rows = poisoned.poisoned_indices;
    s.probe = data::make_trigger_probe(s.tt.test, s.spec);
    Rng mrng(11102);
    s.fresh = nn::make_model(s.prof.arch, s.tt.train.geom,
                             s.tt.train.num_classes, mrng);
    s.trained = s.fresh;
    fl::FlConfig cfg;
    cfg.local.epochs = s.prof.local_epochs;
    cfg.local.batch_size = s.prof.batch;
    cfg.local.lr = s.prof.lr;
    fl::Engine eng(s.trained, s.parts, s.tt.test, cfg);
    eng.run(eng.sync_scenario(full ? 6 : 3), {});
    s.trained = eng.global_model();
  }

  const std::vector<std::pair<const char*, const char*>> variants = {
      {"Total loss a (CE)", "cross_entropy"},
      {"Total loss b (Focal)", "focal"},
      {"Total loss g (NLL)", "nll"},
  };

  const auto checkpoints = study_checkpoints();
  std::vector<std::vector<CheckpointRow>> results;
  for (const auto& [label, loss_name] : variants) {
    losses::GoldfishLossConfig loss_cfg;
    loss_cfg.hard_loss_name = loss_name;
    loss_cfg.mu_c = 0.25f;
    loss_cfg.mu_d = 1.0f;
    loss_cfg.temperature = 3.0f;
    results.push_back(run_loss_study(s, loss_cfg, checkpoints));
  }

  metrics::TableReporter table(
      "Table XI — hard-loss compatibility (acc / backdoor per epoch)",
      {"epoch", "metric", "Total loss a", "Total loss b", "Total loss g"});
  for (std::size_t cp = 0; cp < checkpoints.size(); ++cp) {
    table.add_row({std::to_string(checkpoints[cp]), "acc",
                   metrics::fmt(results[0][cp].accuracy),
                   metrics::fmt(results[1][cp].accuracy),
                   metrics::fmt(results[2][cp].accuracy)});
    table.add_row({std::to_string(checkpoints[cp]), "backdoor",
                   metrics::fmt(results[0][cp].asr),
                   metrics::fmt(results[1][cp].asr),
                   metrics::fmt(results[2][cp].asr)});
  }
  table.print();
  table.write_csv(csv_dir() + "/tableXI_loss_compat.csv");
  return 0;
}

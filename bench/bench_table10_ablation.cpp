// Table X: ablation of the loss-function components on CIFAR-10 with a
// ResNet (32 at full scale, 8 at quick). Configurations: hard loss only /
// without distillation (hard+confusion) / without confusion (hard+distill) /
// total loss. Paper shape: w/o distillation forgets well but loses accuracy;
// w/o confusion keeps accuracy but retains backdoor; total loss gets both.
#include "bench/ablation_common.h"

int main() {
  using namespace goldfish;
  using namespace goldfish::bench;
  print_header("Table X: loss-component ablation (CIFAR-10, ResNet)");

  const bool full = metrics::full_scale();
  Scenario s = make_scenario(data::DatasetKind::Cifar10, 0.10f, 10100);
  {
    // Swap in the ResNet the paper uses for this study.
    s.prof.arch = full ? "resnet32" : "resnet8";
    s.prof.train_size = full ? 900 : 300;
    s.prof.batch = 32;
    auto spec = data::default_spec(
        data::DatasetKind::Cifar10, 10100, s.prof.train_size,
        s.prof.test_size);
    spec.noise_scale = full ? 1.0f : 0.35f;
    s.tt = data::make_synthetic(spec);
    Rng rng(10101);
    s.parts = data::partition_iid(s.tt.train, s.prof.clients, rng);
    auto poisoned = data::poison_dataset(s.parts[0], s.spec, 0.10f, rng);
    s.parts[0] = poisoned.poisoned;
    s.poisoned_rows = poisoned.poisoned_indices;
    s.probe = data::make_trigger_probe(s.tt.test, s.spec);
    Rng mrng(10102);
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

  struct Config {
    const char* label;
    bool distill;
    bool confusion;
  };
  const std::vector<Config> configs = {
      {"Hard loss only", false, false},
      {"w/o Distillation", false, true},
      {"w/o Confusion", true, false},
      {"Total loss", true, true},
  };

  const auto checkpoints = study_checkpoints();
  // rows[config] = checkpointed results
  std::vector<std::vector<CheckpointRow>> results;
  for (const Config& c : configs) {
    losses::GoldfishLossConfig loss_cfg;
    loss_cfg.mu_c = 0.25f;
    loss_cfg.mu_d = 1.0f;
    loss_cfg.temperature = 3.0f;
    loss_cfg.use_distillation = c.distill;
    loss_cfg.use_confusion = c.confusion;
    results.push_back(run_loss_study(s, loss_cfg, checkpoints));
  }

  metrics::TableReporter table(
      "Table X — loss ablation (acc / backdoor per epoch)",
      {"epoch", "metric", "Hard only", "w/o Distill", "w/o Confusion",
       "Total"});
  for (std::size_t cp = 0; cp < checkpoints.size(); ++cp) {
    table.add_row({std::to_string(checkpoints[cp]), "acc",
                   metrics::fmt(results[0][cp].accuracy),
                   metrics::fmt(results[1][cp].accuracy),
                   metrics::fmt(results[2][cp].accuracy),
                   metrics::fmt(results[3][cp].accuracy)});
    table.add_row({std::to_string(checkpoints[cp]), "backdoor",
                   metrics::fmt(results[0][cp].asr),
                   metrics::fmt(results[1][cp].asr),
                   metrics::fmt(results[2][cp].asr),
                   metrics::fmt(results[3][cp].asr)});
  }
  table.print();
  table.write_csv(csv_dir() + "/tableX_ablation.csv");
  return 0;
}

// Extra ablation (DESIGN.md §5): what do the optimization/extension modules
// buy? Toggles early termination (Eq. 7) and adaptive temperature (Eq. 11)
// inside Goldfish unlearning and reports local epochs spent, accuracy,
// backdoor ASR, and a membership-inference audit on the removed rows.
// Not a paper table — it quantifies design choices the paper motivates
// qualitatively.
#include "bench/common.h"
#include "metrics/membership_inference.h"

int main() {
  using namespace goldfish;
  using namespace goldfish::bench;
  print_header("ablation: early termination & adaptive temperature");

  Scenario s = make_scenario(data::DatasetKind::Mnist, 0.10f, 13000);
  const long rounds = metrics::full_scale() ? 6 : 3;

  struct Config {
    const char* label;
    bool early;
    bool adaptive_t;
    float delta;
  };
  const std::vector<Config> configs = {
      {"no early term, fixed T", false, false, 0.0f},
      {"early term (d=0.3), fixed T", true, false, 0.3f},
      {"no early term, adaptive T", false, true, 0.0f},
      {"early term + adaptive T", true, true, 0.3f},
  };

  metrics::TableReporter table(
      "Optimization/extension ablation (MNIST, 10% deletion)",
      {"config", "epochs spent", "early stops", "acc%", "ASR%", "MIA AUC"});

  for (const Config& c : configs) {
    core::UnlearnConfig cfg;
    cfg.distill.max_epochs = s.prof.local_epochs + 3;
    cfg.distill.batch_size = s.prof.batch;
    cfg.distill.lr = s.prof.lr;
    cfg.distill.use_early_termination = c.early;
    cfg.distill.delta = c.delta;
    cfg.distill.use_adaptive_temperature = c.adaptive_t;
    core::GoldfishUnlearner ul(s.trained, s.fresh, s.parts, s.tt.test, cfg);
    ul.request_deletion({{0, s.poisoned_rows}});
    long epochs = 0, stops = 0;
    for (const auto& r : ul.run(rounds)) {
      epochs += r.epochs_run;
      stops += r.terminated_early;
    }
    nn::Model& m = ul.global_model();
    const auto mia = metrics::membership_inference(
        m, ul.removed_data(0), s.tt.test);
    table.add_row({c.label, std::to_string(epochs), std::to_string(stops),
                   metrics::fmt(metrics::accuracy(m, s.tt.test)),
                   metrics::fmt(metrics::attack_success_rate(m, s.probe)),
                   metrics::fmt(mia.auc)});
  }
  table.print();
  table.write_csv(csv_dir() + "/ablation_optimizations.csv");
  return 0;
}

// Scenario example: surviving a sybil backdoor attack — the adversarial
// timeline end to end, on one event-driven engine run.
//
// A burst of sybil clients joins the federation sharing a heavily poisoned
// dataset (pixel-trigger backdoor → target class). Under plain fedavg the
// backdoor takes over within a few aggregations. The server then defends on
// the same timeline: it hot-swaps to coordinate-wise trimmed-mean and files
// deletion requests replacing the sybils' data with its clean remainder. An
// audit event samples the attack success rate and a membership-inference
// attack into every step of the telemetry stream — the printed curve shows
// the attack succeeding and then being contained.
//
// Containment is not removal: the backdoor is already in the weights, and
// robust aggregation only stops *new* poison. The finale is the paper's
// answer — Goldfish unlearning distills the contaminated model from a fresh
// init, with the poisoned rows as the forget set, and the ASR collapses
// while accuracy recovers.
//
// Run: ./build/examples/backdoor_unlearning
#include <iostream>
#include <memory>

#include "core/unlearner.h"
#include "data/backdoor.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "metrics/evaluation.h"
#include "metrics/report.h"
#include "nn/models.h"

int main() {
  using namespace goldfish;
  std::cout << "== Sybil backdoor vs robust aggregation + unlearning ==\n";

  constexpr long kHonest = 6;
  constexpr long kSybils = 3;
  constexpr double kDefenseTime = 5.5;
  constexpr long kAggregations = 10;

  // Federated dataset: kHonest honest clients plus one extra partition that
  // becomes the sybils' shared payload, 90% backdoor-poisoned.
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 7, 700, 200));
  Rng rng(8);
  auto parts = data::partition_iid(tt.train, kHonest + 1, rng);
  data::Dataset sybil_clean = std::move(parts.back());
  parts.pop_back();

  data::BackdoorSpec attack;
  attack.target_label = 0;
  attack.patch = 4;
  auto poisoned = data::poison_dataset(sybil_clean, attack, 0.9f, rng);
  const data::Dataset probe = data::make_trigger_probe(tt.test, attack);
  std::cout << "sybil payload: " << poisoned.poisoned_indices.size() << " of "
            << sybil_clean.size() << " rows poisoned (target label "
            << attack.target_label << ")\n\n";

  Rng mrng(9);
  nn::Model fresh = nn::make_mlp(tt.train.geom, 48, 10, mrng);

  fl::FlConfig cfg;
  cfg.local.epochs = 4;
  cfg.local.batch_size = 50;
  cfg.local.lr = 0.05f;
  cfg.seed = 10;
  cfg.robust.trim_fraction = 0.4;  // k = 3 per side at K = 9

  // The timeline: audit from the start, sybil burst at t=0.1, defense
  // (robust swap + deletion of the poisoned rows) at t=5.5.
  fl::Engine eng(fresh, parts, tt.test, cfg);
  fl::Scenario s;
  s.aggregations = kAggregations;
  s.staleness_alpha = 0.0;
  s.buffer = std::make_unique<fl::FixedBuffer>(0);  // K = active clients
  s.clock = std::make_unique<fl::VirtualClock>(cfg.seed, 1.0, 0.0);

  fl::AuditEvent audit;
  audit.time = 0.05;
  audit.probe = probe;
  audit.members = poisoned.poisoned;
  audit.nonmembers = tt.test;
  s.audits.push_back(std::move(audit));

  fl::SybilJoinEvent burst;
  burst.time = 0.1;
  burst.count = kSybils;
  burst.dataset = poisoned.poisoned;
  s.sybil_joins.push_back(std::move(burst));

  s.aggregator_swaps.push_back({kDefenseTime, "trimmed-mean"});
  for (long i = 0; i < kSybils; ++i) {
    fl::DeletionEvent del;
    del.time = kDefenseTime;
    del.client = parts.size() + static_cast<std::size_t>(i);
    del.new_data = sybil_clean;
    s.deletions.push_back(std::move(del));
  }

  std::cout << "step  t      aggregator     acc%    ASR%   MIA-AUC\n";
  eng.run(std::move(s), [&](const fl::StepResult& r) {
    std::cout << "  " << r.step << "   " << metrics::fmt(r.virtual_time)
              << "  " << r.aggregator
              << std::string(r.aggregator.size() < 13
                                 ? 13 - r.aggregator.size()
                                 : 1, ' ')
              << metrics::fmt(r.global_accuracy) << "  "
              << metrics::fmt(r.attack_success) << "  "
              << metrics::fmt(r.mia_auc) << "\n";
  });

  nn::Model contaminated = eng.global_model();
  const auto report = [&](const char* name, nn::Model& m) {
    std::cout << "  " << name << ": accuracy "
              << metrics::fmt(metrics::accuracy(m, tt.test)) << "%, ASR "
              << metrics::fmt(metrics::attack_success_rate(m, probe))
              << "%\n";
  };
  std::cout << "\nafter the timeline (attack contained, not removed):\n";
  report("global", contaminated);

  // The finale: Goldfish unlearning. The contaminated global is the
  // teacher; the federation is the post-attack one (sybils still holding
  // the poisoned payload) and the deletion requests name exactly the
  // poisoned rows as the forget set.
  std::vector<data::Dataset> federation = parts;
  std::vector<core::UnlearnRequest> requests;
  for (long i = 0; i < kSybils; ++i) {
    requests.push_back({federation.size(), poisoned.poisoned_indices});
    federation.push_back(poisoned.poisoned);
  }
  core::UnlearnConfig ucfg;
  ucfg.distill.max_epochs = 6;
  ucfg.distill.lr = 0.03f;
  ucfg.distill.use_early_termination = false;
  core::GoldfishUnlearner unlearner(contaminated, fresh, federation, tt.test,
                                    ucfg);
  unlearner.request_deletion(requests);
  std::cout << "\nGoldfish unlearning (distilling from fresh init):\n";
  for (const fl::StepResult& round : unlearner.run(8))
    std::cout << "    distill round " << round.step + 1 << ": accuracy "
              << metrics::fmt(round.global_accuracy) << "%, epochs "
              << round.epochs_run << "\n";
  report("Goldfish (unlearned)", unlearner.global_model());

  std::cout << "\nexpected shape: ASR rockets under fedavg, plateaus once "
               "trimmed-mean + deletion land, and collapses (< 10%) after "
               "unlearning, with accuracy recovered.\n";
  return 0;
}

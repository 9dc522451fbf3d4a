// End-to-end federated unlearning: plant a backdoor through one client,
// train federatedly, verify the attack works, unlearn with Goldfish, verify
// the attack collapses while utility recovers — the paper's headline claim
// (§IV-B, Fig. 5 / Tables III–VI) at test scale.
#include <gtest/gtest.h>

#include "baselines/incompetent_teacher.h"
#include "core/unlearner.h"
#include "data/backdoor.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "metrics/divergence.h"
#include "metrics/evaluation.h"
#include "nn/models.h"

namespace goldfish {
namespace {

struct Scenario {
  data::TrainTest tt;
  std::vector<data::Dataset> parts;       // client datasets (client 0 poisoned)
  std::vector<std::size_t> poisoned_rows; // rows of client 0
  data::Dataset probe;                    // trigger probe set
  nn::Model trained;                      // contaminated global model
  nn::Model fresh;                        // ω0

  Scenario() {
    tt = data::make_synthetic(
        data::default_spec(data::DatasetKind::Mnist, 91, 600, 200));
    Rng rng(92);
    parts = data::partition_iid(tt.train, 3, rng);

    // 25% of the victim client's data is poisoned with a 4×4 trigger:
    // strong enough to survive 3-way FedAvg dilution at test scale.
    data::BackdoorSpec spec;
    spec.target_label = 0;
    spec.patch = 4;
    auto poisoned = data::poison_dataset(parts[0], spec, 0.25f, rng);
    parts[0] = poisoned.poisoned;
    poisoned_rows = poisoned.poisoned_indices;
    probe = data::make_trigger_probe(tt.test, spec);

    Rng mrng(93);
    fresh = nn::make_mlp({1, 28, 28}, 48, 10, mrng);
    trained = fresh;
    fl::FlConfig cfg;
    cfg.local.epochs = 4;
    cfg.local.batch_size = 50;
    cfg.local.lr = 0.05f;
    fl::Engine eng(trained, parts, tt.test, cfg);
    eng.run(eng.sync_scenario(6), {});
    trained = eng.global_model();
  }
};

Scenario& scenario() {
  static Scenario s;
  return s;
}

TEST(Integration, BackdoorPlantsSuccessfully) {
  auto& s = scenario();
  const double asr = metrics::attack_success_rate(s.trained, s.probe);
  const double acc = metrics::accuracy(s.trained, s.tt.test);
  // The contaminated model must both work and carry the backdoor, or the
  // unlearning experiment below would be vacuous.
  EXPECT_GT(acc, 50.0);
  EXPECT_GT(asr, 50.0);
}

TEST(Integration, GoldfishUnlearningRemovesBackdoor) {
  auto& s = scenario();
  core::UnlearnConfig cfg;
  cfg.distill.max_epochs = 4;
  cfg.distill.lr = 0.02f;
  cfg.distill.use_early_termination = false;
  core::GoldfishUnlearner ul(s.trained, s.fresh, s.parts, s.tt.test, cfg);
  ul.request_deletion({{0, s.poisoned_rows}});
  const auto rounds = ul.run(3);

  const double asr_before = metrics::attack_success_rate(s.trained, s.probe);
  const double asr_after =
      metrics::attack_success_rate(ul.global_model(), s.probe);
  const double acc_after = metrics::accuracy(ul.global_model(), s.tt.test);

  EXPECT_LT(asr_after, 0.35 * asr_before);  // backdoor collapsed
  EXPECT_GT(acc_after, 45.0);               // utility recovered
  // Telemetry sanity.
  EXPECT_EQ(rounds.size(), 3u);
  EXPECT_GT(rounds.back().mean_temperature, 0.0);
}

TEST(Integration, UnlearnedModelStatisticallyCloseToRetrain) {
  auto& s = scenario();
  // Goldfish-unlearned model.
  core::UnlearnConfig cfg;
  cfg.distill.max_epochs = 4;
  cfg.distill.lr = 0.02f;
  cfg.distill.use_early_termination = false;
  core::GoldfishUnlearner ul(s.trained, s.fresh, s.parts, s.tt.test, cfg);
  ul.request_deletion({{0, s.poisoned_rows}});
  ul.run(3);

  // Reference retrain (B1) on the remaining data.
  std::vector<data::Dataset> remaining = s.parts;
  std::vector<std::size_t> keep;
  for (long i = 0; i < s.parts[0].size(); ++i) {
    if (std::find(s.poisoned_rows.begin(), s.poisoned_rows.end(),
                  static_cast<std::size_t>(i)) == s.poisoned_rows.end())
      keep.push_back(static_cast<std::size_t>(i));
  }
  remaining[0] = s.parts[0].subset(keep);
  nn::Model b1 = s.fresh;
  fl::FlConfig b1cfg;
  b1cfg.local.epochs = 3;
  b1cfg.local.lr = 0.02f;
  fl::Engine eng(b1, remaining, s.tt.test, b1cfg);
  eng.run(eng.sync_scenario(4), {});
  b1 = eng.global_model();

  // Tables VII–IX metrics: unlearned vs retrained distributions are close.
  const auto p_ours = metrics::mean_prediction(ul.global_model(), s.tt.test);
  const auto p_b1 = metrics::mean_prediction(b1, s.tt.test);
  EXPECT_LT(metrics::jensen_shannon_divergence(p_ours, p_b1), 0.2);
  EXPECT_LT(metrics::l2_distance(p_ours, p_b1), 0.5);
}

TEST(Integration, B3AlsoRemovesBackdoorButGoldfishKeepsAccuracy) {
  auto& s = scenario();
  // Split client 0 into remaining/removed for B3.
  std::vector<data::Dataset> remaining = s.parts;
  std::vector<data::Dataset> removed(s.parts.size());
  std::vector<std::size_t> keep;
  for (long i = 0; i < s.parts[0].size(); ++i) {
    if (std::find(s.poisoned_rows.begin(), s.poisoned_rows.end(),
                  static_cast<std::size_t>(i)) == s.poisoned_rows.end())
      keep.push_back(static_cast<std::size_t>(i));
  }
  removed[0] = s.parts[0].subset(s.poisoned_rows);
  remaining[0] = s.parts[0].subset(keep);

  baselines::IncompetentTeacherConfig cfg;
  cfg.fl.local.epochs = 4;
  cfg.fl.local.batch_size = 50;
  cfg.fl.local.lr = 0.05f;
  cfg.forget_weight = 2.0f;
  Rng rng(94);
  nn::Model incompetent = nn::make_mlp({1, 28, 28}, 48, 10, rng);
  nn::Model b3;
  baselines::incompetent_teacher_unlearn(s.trained, incompetent, remaining,
                                         removed, s.tt.test, cfg, 3, &b3);
  const double asr_b3 = metrics::attack_success_rate(b3, s.probe);
  const double asr_orig = metrics::attack_success_rate(s.trained, s.probe);
  EXPECT_LT(asr_b3, 0.5 * asr_orig);
}

}  // namespace
}  // namespace goldfish

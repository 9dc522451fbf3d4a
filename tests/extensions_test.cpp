// Tests for the verification/integration extensions: membership-inference
// auditing, the sharded federated client fleet, and architecture-sweep
// training smoke tests.
#include <gtest/gtest.h>

#include "core/sharded_client.h"
#include "core/unlearner.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "metrics/evaluation.h"
#include "metrics/membership_inference.h"
#include "nn/models.h"

namespace goldfish {
namespace {

// -- membership inference -----------------------------------------------------

struct MiaFixture {
  data::TrainTest tt;
  nn::Model overfit;  // trained hard on a small member set
  data::Dataset members;

  MiaFixture()
      : tt(data::make_synthetic(
            data::default_spec(data::DatasetKind::Mnist, 151, 300, 200))) {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < 100; ++i) idx.push_back(i);
    members = tt.train.subset(idx);
    Rng rng(152);
    overfit = nn::make_mlp({1, 28, 28}, 64, 10, rng);
    fl::TrainOptions opts;
    opts.epochs = 40;  // deliberate memorization
    opts.batch_size = 50;
    opts.lr = 0.05f;
    fl::train_local(overfit, members, opts);
  }
};

MiaFixture& mia_fixture() {
  static MiaFixture f;
  return f;
}

TEST(MembershipInference, DetectsMemorization) {
  auto& f = mia_fixture();
  const auto r =
      metrics::membership_inference(f.overfit, f.members, f.tt.test);
  EXPECT_GT(r.auc, 0.75);
  EXPECT_GT(r.best_accuracy, 0.65);
  EXPECT_GT(r.member_confidence, r.nonmember_confidence);
}

TEST(MembershipInference, ChanceOnFreshModel) {
  auto& f = mia_fixture();
  Rng rng(153);
  nn::Model fresh = nn::make_mlp({1, 28, 28}, 64, 10, rng);
  const auto r =
      metrics::membership_inference(fresh, f.members, f.tt.test);
  EXPECT_NEAR(r.auc, 0.5, 0.12);
}

TEST(MembershipInference, AucBounds) {
  auto& f = mia_fixture();
  const auto r =
      metrics::membership_inference(f.overfit, f.members, f.tt.test);
  EXPECT_GE(r.auc, 0.0);
  EXPECT_LE(r.auc, 1.0);
  EXPECT_GE(r.best_accuracy, 0.5);
  EXPECT_LE(r.best_accuracy, 1.0);
}

TEST(MembershipInference, ConfidencesPerSample) {
  auto& f = mia_fixture();
  const auto conf = metrics::true_label_confidences(f.overfit, f.members);
  EXPECT_EQ(conf.size(), static_cast<std::size_t>(f.members.size()));
  for (double c : conf) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST(MembershipInference, UnlearningReducesAttack) {
  // Memorize a member set federatedly, unlearn half of client 0's rows,
  // and check the attack on exactly those rows weakens.
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 154, 400, 200));
  Rng rng(155);
  auto parts = data::partition_iid(tt.train, 2, rng);
  Rng mrng(156);
  nn::Model fresh = nn::make_mlp({1, 28, 28}, 64, 10, mrng);
  nn::Model global = fresh;
  fl::FlConfig cfg;
  cfg.local.epochs = 10;
  cfg.local.batch_size = 50;
  cfg.local.lr = 0.05f;
  fl::Engine eng(global, parts, tt.test, cfg);
  eng.run(eng.sync_scenario(3), {});
  global = eng.global_model();

  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < 60; ++i) rows.push_back(i);
  data::Dataset removed = parts[0].subset(rows);

  const auto before = metrics::membership_inference(global, removed, tt.test);

  core::UnlearnConfig ucfg;
  ucfg.distill.max_epochs = 4;
  ucfg.distill.batch_size = 50;
  ucfg.distill.lr = 0.05f;
  ucfg.distill.use_early_termination = false;
  core::GoldfishUnlearner ul(global, fresh, parts, tt.test, ucfg);
  ul.request_deletion({{0, rows}});
  ul.run(2);
  const auto after =
      metrics::membership_inference(ul.global_model(), removed, tt.test);

  EXPECT_LT(after.auc, before.auc);
  EXPECT_LT(after.member_confidence, before.member_confidence);
}

// -- sharded client fleet -----------------------------------------------------

TEST(ShardedFleet, IntegratesWithEngine) {
  // 750 rows per client / 250 per shard: enough for shard models to train
  // (see the Fig. 6 sizing rationale).
  auto spec = data::default_spec(data::DatasetKind::Mnist, 161, 1500, 200);
  spec.noise_scale = 0.6f;
  auto tt = data::make_synthetic(spec);
  Rng rng(162);
  auto parts = data::partition_iid(tt.train, 2, rng);
  Rng mrng(163);
  nn::Model init = nn::make_mlp({1, 28, 28}, 32, 10, mrng);

  Rng frng(164);
  core::ShardedClientFleet fleet(init, parts, 3, frng);
  ASSERT_EQ(fleet.num_clients(), 2u);

  fl::FlConfig cfg;
  fl::Engine eng(init, parts, tt.test, cfg);
  fl::TrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 50;
  opts.lr = 0.05f;
  eng.set_client_update(fleet.update_fn(opts));
  const auto rounds = eng.collect(eng.sync_scenario(3));
  EXPECT_GT(rounds.back().global_accuracy, 55.0);
}

TEST(ShardedFleet, DeletionTouchesOneClientOnly) {
  auto spec = data::default_spec(data::DatasetKind::Mnist, 165, 600, 100);
  spec.noise_scale = 0.6f;
  auto tt = data::make_synthetic(spec);
  Rng rng(166);
  auto parts = data::partition_iid(tt.train, 2, rng);
  Rng mrng(167);
  nn::Model init = nn::make_mlp({1, 28, 28}, 16, 10, mrng);
  Rng frng(168);
  core::ShardedClientFleet fleet(init, parts, 3, frng);

  fl::TrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = 50;
  opts.lr = 0.05f;
  fleet.manager(0).train_all(opts);
  fleet.manager(1).train_all(opts);
  const auto before_other = fleet.manager(1).aggregate();

  const std::vector<std::size_t> doomed{fleet.manager(0).shard_row_ids(0)[0]};
  const auto report = fleet.delete_rows(0, doomed, opts);
  EXPECT_EQ(report.rows_deleted, 1);
  // Client 1's shards must be bit-identical.
  EXPECT_NEAR(nn::snapshot_distance_sq(before_other,
                                       fleet.manager(1).aggregate()),
              0.0f, 1e-10f);
}

TEST(ShardedFleet, OutOfRangeClientThrows) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 169, 60, 20));
  Rng rng(170);
  auto parts = data::partition_iid(tt.train, 2, rng);
  Rng mrng(171);
  nn::Model init = nn::make_mlp({1, 28, 28}, 8, 10, mrng);
  Rng frng(172);
  core::ShardedClientFleet fleet(init, parts, 2, frng);
  fl::TrainOptions opts;
  EXPECT_THROW(fleet.delete_rows(7, {0}, opts), CheckError);
  EXPECT_THROW(fleet.manager(9), CheckError);
}

// -- architecture sweep: every factory model trains end to end -----------------

class ArchSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ArchSweep, OneTrainingStepChangesParamsAndKeepsShape) {
  const std::string arch = GetParam();
  // Keep geometry small so conv/resnet variants stay fast.
  const nn::InputGeom geom =
      arch == "lenet5" ? nn::InputGeom{1, 28, 28} : nn::InputGeom{3, 16, 16};
  Rng rng(180);
  nn::Model m = nn::make_model(arch, geom, 10, rng);
  const auto before = m.snapshot();

  Rng drng(181);
  Tensor x = Tensor::randn({4, geom.flat()}, drng);
  const std::vector<long> y{0, 1, 2, 3};
  losses::CrossEntropyLoss ce;
  nn::Sgd sgd;
  const Tensor logits = m.forward(x, true);
  ASSERT_EQ(logits.dim(0), 4);
  ASSERT_EQ(logits.dim(1), 10);
  auto r = ce.eval(logits, y);
  m.backward(r.grad_logits);
  sgd.step(m);
  EXPECT_GT(nn::snapshot_distance_sq(before, m.snapshot()), 0.0f);

  // Clone + snapshot/load round-trips hold for every architecture.
  nn::Model copy = m;
  copy.load(m.snapshot());
  EXPECT_NEAR(nn::snapshot_distance_sq(copy.snapshot(), m.snapshot()), 0.0f,
              1e-12f);
}

INSTANTIATE_TEST_SUITE_P(Factories, ArchSweep,
                         ::testing::Values("mlp32", "lenet5",
                                           "modified_lenet5", "resnet8"));

}  // namespace
}  // namespace goldfish

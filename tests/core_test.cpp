// Core Goldfish modules: early termination (Eq. 7), adaptive temperature
// (Eq. 11), the distillation trainer (Algorithm 1), and sharding (Eq. 8–10).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/distill_trainer.h"
#include "core/early_termination.h"
#include "core/sharding.h"
#include "core/unlearner.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/trainer.h"
#include "metrics/evaluation.h"
#include "nn/models.h"

namespace goldfish {
namespace {

TEST(ExcessRisk, InfiniteBeforeFirstEpoch) {
  core::ExcessRiskTracker t(1.0f, 0.1f);
  EXPECT_TRUE(std::isinf(t.excess_risk()));
  EXPECT_FALSE(t.should_stop());
}

TEST(ExcessRisk, RunningMeanAgainstReference) {
  core::ExcessRiskTracker t(1.0f, 0.1f);
  t.record_epoch(2.0f);  // mean 2.0, err 1.0
  EXPECT_NEAR(t.excess_risk(), 1.0f, 1e-6f);
  EXPECT_FALSE(t.should_stop());
  t.record_epoch(0.2f);  // mean 1.1, err 0.1
  EXPECT_NEAR(t.excess_risk(), 0.1f, 1e-5f);
  EXPECT_TRUE(t.should_stop());
}

TEST(ExcessRisk, AbsoluteValueOfGap) {
  core::ExcessRiskTracker t(2.0f, 0.05f);
  t.record_epoch(1.0f);  // student *below* reference still counts
  EXPECT_NEAR(t.excess_risk(), 1.0f, 1e-6f);
}

TEST(ExcessRisk, RejectsBadInputs) {
  EXPECT_THROW(core::ExcessRiskTracker(1.0f, -0.1f), CheckError);
  core::ExcessRiskTracker t(1.0f, 0.1f);
  EXPECT_THROW(t.record_epoch(std::nanf("")), CheckError);
}

TEST(AdaptiveTemperature, NoDeletionGivesT0) {
  core::AdaptiveTemperature at;  // α = e
  // |D_f| = 0 → exponent −1, α·e⁻¹ = 1 → T = T0.
  EXPECT_NEAR(at(1000, 0), at.t0, 1e-3f);
}

TEST(AdaptiveTemperature, MoreDeletionHigherTemperature) {
  core::AdaptiveTemperature at;
  const float t_small = at(980, 20);
  const float t_big = at(700, 300);
  EXPECT_GT(t_big, t_small);
  EXPECT_GT(t_small, at(1000, 0));
}

TEST(AdaptiveTemperature, MatchesEquation11) {
  core::AdaptiveTemperature at;
  at.t0 = 2.0f;
  at.alpha = 1.5f;
  const float expected =
      1.5f * 2.0f * std::exp(-900.0f / 1000.0f);
  EXPECT_NEAR(at(900, 100), std::max(expected, at.min_temperature), 1e-4f);
}

TEST(AdaptiveTemperature, FlooredAtOne) {
  core::AdaptiveTemperature at;
  at.t0 = 0.5f;
  at.alpha = 1.0f;
  EXPECT_FLOAT_EQ(at(1000, 0), 1.0f);  // raw value ≈ 0.18 → floored
}

TEST(AdaptiveTemperature, EmptyClientThrows) {
  core::AdaptiveTemperature at;
  EXPECT_THROW(at(0, 0), CheckError);
}

// -- distillation trainer ----------------------------------------------------

struct DistillFixture {
  data::TrainTest tt;
  nn::Model teacher;

  DistillFixture()
      : tt(data::make_synthetic(
            data::default_spec(data::DatasetKind::Mnist, 51, 400, 100))),
        teacher([] {
          Rng rng(52);
          return nn::make_mlp({1, 28, 28}, 32, 10, rng);
        }()) {
    fl::TrainOptions opts;
    opts.epochs = 8;
    opts.lr = 0.01f;
    fl::train_local(teacher, tt.train, opts);
  }
};

DistillFixture& distill_fixture() {
  static DistillFixture f;
  return f;
}

TEST(DistillTrainer, StudentApproachesTeacherAccuracy) {
  auto& f = distill_fixture();
  Rng rng(53);
  nn::Model student = nn::make_mlp({1, 28, 28}, 32, 10, rng);
  core::DistillOptions opts;
  opts.max_epochs = 8;
  opts.lr = 0.01f;
  opts.use_early_termination = false;
  nn::Model teacher = f.teacher;
  const auto targets = core::teacher_targets(teacher, f.tt.train, opts);
  const auto res = core::goldfish_distill(student, targets, f.tt.train,
                                          data::Dataset(), opts);
  EXPECT_EQ(res.epochs_run, 8);
  const double teacher_acc = metrics::accuracy(teacher, f.tt.test);
  const double student_acc = metrics::accuracy(student, f.tt.test);
  EXPECT_GT(student_acc, 0.7 * teacher_acc);
}

TEST(DistillTrainer, EarlyTerminationStopsSooner) {
  auto& f = distill_fixture();
  Rng rng(54);
  nn::Model student = nn::make_mlp({1, 28, 28}, 32, 10, rng);
  core::DistillOptions opts;
  opts.max_epochs = 30;
  opts.lr = 0.02f;
  opts.use_early_termination = true;
  opts.delta = 1.5f;  // generous threshold → stops early for sure
  nn::Model teacher = f.teacher;
  const auto targets = core::teacher_targets(teacher, f.tt.train, opts);
  const auto res = core::goldfish_distill(student, targets, f.tt.train,
                                          data::Dataset(), opts);
  EXPECT_TRUE(res.terminated_early);
  EXPECT_LT(res.epochs_run, 30);
  EXPECT_LE(res.final_excess_risk, 1.5f);
}

TEST(DistillTrainer, AdaptiveTemperatureRecorded) {
  auto& f = distill_fixture();
  Rng rng(55);
  nn::Model student = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  core::DistillOptions opts;
  opts.max_epochs = 1;
  opts.use_adaptive_temperature = true;
  nn::Model teacher = f.teacher;
  data::Dataset d_f = f.tt.train.subset({0, 1, 2, 3, 4});
  const auto targets = core::teacher_targets(teacher, f.tt.train, opts);
  const auto res =
      core::goldfish_distill(student, targets, f.tt.train, d_f, opts);
  EXPECT_NEAR(res.temperature_used,
              opts.temperature(f.tt.train.size(), 5), 1e-5f);
  // Fixed temperature when the extension is off.
  nn::Model student2 = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  opts.use_adaptive_temperature = false;
  const auto res2 =
      core::goldfish_distill(student2, targets, f.tt.train, d_f, opts);
  EXPECT_FLOAT_EQ(res2.temperature_used, opts.loss.temperature);
}

TEST(DistillTrainer, EmptyRemainingThrows) {
  auto& f = distill_fixture();
  Rng rng(56);
  nn::Model student = nn::make_mlp({1, 28, 28}, 8, 10, rng);
  nn::Model teacher = f.teacher;
  core::DistillOptions opts;
  EXPECT_THROW(core::teacher_targets(teacher, data::Dataset(), opts),
               CheckError);
  const auto targets = core::teacher_targets(teacher, f.tt.train, opts);
  EXPECT_THROW(core::goldfish_distill(student, targets, data::Dataset(),
                                      data::Dataset(), opts),
               CheckError);
}

TEST(DistillTrainer, ReferenceLossMatchesCrossEntropyScale) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 33, 100, 50));
  Rng rng(34);
  nn::Model fresh = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  core::DistillOptions opts;
  opts.loss.hard_loss_name = "cross_entropy";
  const float loss = core::reference_loss_of(fresh, tt.train, opts);
  // Untrained → near log(10) ≈ 2.30 (He-init logits on unit-variance
  // inputs inflate it somewhat).
  EXPECT_NEAR(loss, 2.6f, 1.0f);
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// The forwarders the traced benchmark hook calls (reference_loss_of plus the
// teacher-taking goldfish_distill) must replay the cached-target path bit
// for bit, with and without removed data.
TEST(DistillTrainer, OldAndNewOverloadsAgreeBitwise) {
  auto& f = distill_fixture();
  const data::Dataset d_f = f.tt.train.subset({3, 9, 27, 81, 243});
  const data::Dataset none;
  for (const data::Dataset* forget : {&d_f, &none}) {
    SCOPED_TRACE(forget->empty() ? "without D_f" : "with D_f");
    Rng rng(57);
    const nn::Model init = nn::make_mlp({1, 28, 28}, 16, 10, rng);
    core::DistillOptions opts;
    opts.max_epochs = 3;
    opts.batch_size = 48;  // 400 rows → a partial last batch every epoch
    opts.lr = 0.01f;
    opts.delta = 0.5f;

    nn::Model old_student = init;
    nn::Model old_teacher = f.teacher;
    const float ref = core::reference_loss_of(old_teacher, f.tt.train, opts);
    const core::DistillResult a = core::goldfish_distill(
        old_student, old_teacher, f.tt.train, *forget, ref, opts);

    nn::Model new_student = init;
    nn::Model new_teacher = f.teacher;
    const core::TeacherTargets targets =
        core::teacher_targets(new_teacher, f.tt.train, opts);
    const core::DistillResult b = core::goldfish_distill(
        new_student, targets, f.tt.train, *forget, opts);

    EXPECT_EQ(a.epoch_losses, b.epoch_losses);
    EXPECT_EQ(a.epochs_run, b.epochs_run);
    EXPECT_EQ(a.terminated_early, b.terminated_early);
    EXPECT_EQ(a.final_excess_risk, b.final_excess_risk);
    EXPECT_EQ(a.temperature_used, b.temperature_used);
    const auto sa = old_student.snapshot();
    const auto sb = new_student.snapshot();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i)
      EXPECT_TRUE(bitwise_equal(sa[i], sb[i])) << "parameter " << i;
  }
}

// The invariant the teacher cache rests on: row i of the cached logits
// (computed in 256-row chunks) is bitwise the logits a forward of any
// batch holding row i gives, at any position in it, including the partial
// last tile of the GEMM.
TEST(TeacherTargets, RowsDoNotDependOnBatchComposition) {
  const std::pair<const char*, nn::InputGeom> archs[] = {
      {"mlp16", {1, 8, 8}}, {"lenet5", {1, 16, 16}}, {"resnet8", {3, 8, 8}}};
  for (const auto& [arch, geom] : archs) {
    SCOPED_TRACE(arch);
    Rng rng(58);
    constexpr long kRows = 600;  // chunks of 256, 256 and a partial 88
    data::Dataset ds;
    ds.features = Tensor::randn({kRows, geom.flat()}, rng);
    ds.num_classes = 10;
    ds.geom = geom;
    for (long i = 0; i < kRows; ++i) ds.labels.push_back(i % 10);
    nn::Model teacher = nn::make_model(arch, geom, 10, rng);

    const core::TeacherTargets targets =
        core::teacher_targets(teacher, ds, core::DistillOptions());
    ASSERT_EQ(targets.logits.dim(0), kRows);
    ASSERT_EQ(targets.logits.dim(1), 10);

    // Shuffled 50-row batches (and one 37-row one, like an epoch's last
    // batch) put each sampled row at many positions, the last tile's too.
    std::vector<std::size_t> order(kRows);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (long trial = 0; trial < 6; ++trial) {
      rng.shuffle(order);
      const std::size_t n = trial == 5 ? 37 : 50;
      const std::vector<std::size_t> rows(order.begin(), order.begin() + n);
      const Tensor& z = teacher.forward(ds.batch(rows).first, false);
      for (std::size_t r = 0; r < n; ++r) {
        ASSERT_EQ(std::memcmp(z.data() + r * 10,
                              targets.logits.data() + rows[r] * 10,
                              10 * sizeof(float)),
                  0)
            << "row " << rows[r] << " at batch position " << r;
      }
    }
  }
}

// -- sharding ---------------------------------------------------------------

struct ShardFixture {
  data::TrainTest tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 61, 240, 60));
  nn::Model init = [] {
    Rng rng(62);
    return nn::make_mlp({1, 28, 28}, 16, 10, rng);
  }();
};

TEST(Sharding, SplitsAllRows) {
  ShardFixture f;
  Rng rng(63);
  core::ShardManager mgr(f.init, f.tt.train, 6, rng);
  EXPECT_EQ(mgr.num_shards(), 6);
  EXPECT_EQ(mgr.total_rows(), 240);
  for (long s = 0; s < 6; ++s) EXPECT_EQ(mgr.shard_rows(s), 40);
}

TEST(Sharding, AggregateOfIdenticalModelsIsIdentity) {
  ShardFixture f;
  Rng rng(64);
  core::ShardManager mgr(f.init, f.tt.train, 4, rng);
  // No training yet: every shard holds the init weights.
  const auto agg = mgr.aggregate();
  EXPECT_NEAR(nn::snapshot_distance_sq(agg, f.init.snapshot()), 0.0f, 1e-8f);
}

TEST(Sharding, Equation10RecoversStoredWeights) {
  ShardFixture f;
  Rng rng(65);
  core::ShardManager mgr(f.init, f.tt.train, 3, rng);
  fl::TrainOptions opts;
  opts.epochs = 1;
  opts.lr = 0.01f;
  mgr.train_all(opts);
  // ω_i reconstructed from the aggregate must equal the stored shard model.
  for (long s = 0; s < 3; ++s) {
    const auto recovered = mgr.recover_shard_weights(s);
    const auto stored = mgr.shard_model(s).snapshot();
    EXPECT_LT(nn::snapshot_distance_sq(recovered, stored), 1e-4f)
        << "shard " << s;
  }
}

TEST(Sharding, DeletionRetrainsOnlyAffectedShards) {
  ShardFixture f;
  Rng rng(66);
  core::ShardManager mgr(f.init, f.tt.train, 6, rng);
  fl::TrainOptions opts;
  opts.epochs = 1;
  opts.lr = 0.01f;
  mgr.train_all(opts);

  // Find rows all living in one shard: take 3 rows of shard 2 by probing
  // membership through deletion on a copy is overkill — instead delete rows
  // we know exist and check the report's shard count is small.
  std::vector<std::vector<Tensor>> before;
  for (long s = 0; s < 6; ++s)
    before.push_back(mgr.shard_model(s).snapshot());

  const auto report = mgr.delete_rows({0, 1, 2}, opts);
  EXPECT_EQ(report.rows_deleted, 3);
  EXPECT_LE(static_cast<long>(report.affected_shards.size()), 3);
  EXPECT_EQ(mgr.total_rows(), 237);

  // Unaffected shards' models must be bit-identical.
  std::set<long> affected(report.affected_shards.begin(),
                          report.affected_shards.end());
  for (long s = 0; s < 6; ++s) {
    if (affected.count(s)) continue;
    EXPECT_NEAR(nn::snapshot_distance_sq(before[static_cast<std::size_t>(s)],
                                         mgr.shard_model(s).snapshot()),
                0.0f, 1e-10f)
        << "untouched shard " << s << " changed";
  }
}

TEST(Sharding, AffectedShardRetrainsFromReinitialization) {
  // Unlearning guarantee: an affected shard's old weights carry the deleted
  // rows' influence and must be discarded. With a 0-epoch retrain the
  // affected shard model must equal the pristine init, not its trained
  // weights.
  ShardFixture f;
  Rng rng(69);
  core::ShardManager mgr(f.init, f.tt.train, 4, rng);
  fl::TrainOptions opts;
  opts.epochs = 2;
  opts.lr = 0.02f;
  mgr.train_all(opts);

  const std::vector<std::size_t> doomed{mgr.shard_row_ids(1).front()};
  fl::TrainOptions no_train = opts;
  no_train.epochs = 0;
  const auto report = mgr.delete_rows(doomed, no_train);
  ASSERT_EQ(report.affected_shards.size(), 1u);
  ASSERT_EQ(report.affected_shards[0], 1);
  EXPECT_NEAR(nn::snapshot_distance_sq(mgr.shard_model(1).snapshot(),
                                       f.init.snapshot()),
              0.0f, 1e-10f);
  // Untouched shards keep trained weights (≠ init).
  EXPECT_GT(nn::snapshot_distance_sq(mgr.shard_model(0).snapshot(),
                                     f.init.snapshot()),
            1e-6f);
}

TEST(Sharding, DeletingUnknownRowsIsNoop) {
  ShardFixture f;
  Rng rng(67);
  core::ShardManager mgr(f.init, f.tt.train, 4, rng);
  fl::TrainOptions opts;
  opts.epochs = 1;
  const auto report = mgr.delete_rows({100000}, opts);
  EXPECT_EQ(report.rows_deleted, 0);
  EXPECT_TRUE(report.affected_shards.empty());
  EXPECT_EQ(mgr.total_rows(), 240);
}

TEST(Sharding, ParallelDeletionMatchesSerial) {
  ShardFixture f;
  Rng rng(68);
  core::ShardManager serial(f.init, f.tt.train, 6, rng);
  Rng rng2(68);
  core::ShardManager parallel(f.init, f.tt.train, 6, rng2);
  fl::TrainOptions opts;
  opts.epochs = 1;
  opts.lr = 0.01f;
  serial.train_all(opts);
  parallel.train_all(opts);
  std::vector<std::size_t> doomed;
  for (std::size_t i = 0; i < 30; ++i) doomed.push_back(i);
  runtime::Scheduler serial_sched(1);
  runtime::Scheduler parallel_sched(4);
  serial.delete_rows(doomed, opts, &serial_sched);
  parallel.delete_rows(doomed, opts, &parallel_sched);
  EXPECT_NEAR(
      nn::snapshot_distance_sq(serial.aggregate(), parallel.aggregate()),
      0.0f, 1e-8f);
}

// -- unlearner orchestration (small smoke; the full path is covered by the
//    integration test) --------------------------------------------------------

TEST(Unlearner, RequestSplitsClientData) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 71, 120, 40));
  Rng rng(72);
  auto parts = data::partition_iid(tt.train, 2, rng);
  nn::Model trained = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  nn::Model fresh = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  core::UnlearnConfig cfg;
  core::GoldfishUnlearner ul(trained, fresh, parts, tt.test, cfg);
  const long before = parts[0].size();
  ul.request_deletion({{0, {0, 1, 2, 3}}});
  EXPECT_EQ(ul.remaining_data(0).size(), before - 4);
  EXPECT_EQ(ul.removed_data(0).size(), 4);
  EXPECT_EQ(ul.removed_data(1).size(), 0);
}

TEST(Unlearner, RejectsBadRequests) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 73, 60, 20));
  Rng rng(74);
  auto parts = data::partition_iid(tt.train, 2, rng);
  nn::Model m = nn::make_mlp({1, 28, 28}, 8, 10, rng);
  core::UnlearnConfig cfg;
  core::GoldfishUnlearner ul(m, m, parts, tt.test, cfg);
  const long rows0 = ul.remaining_data(0).size();
  const long rows1 = ul.remaining_data(1).size();
  // Every request is checked before any is applied: a rejected list leaves
  // both clients' D_r and D_f untouched.
  const auto expect_rejected =
      [&](const std::vector<core::UnlearnRequest>& requests) {
    EXPECT_THROW(ul.request_deletion(requests), CheckError);
    EXPECT_EQ(ul.remaining_data(0).size(), rows0);
    EXPECT_EQ(ul.remaining_data(1).size(), rows1);
    EXPECT_EQ(ul.removed_data(0).size(), 0);
    EXPECT_EQ(ul.removed_data(1).size(), 0);
  };
  expect_rejected({{7, {0}}});
  expect_rejected({{0, {100000}}});
  // A valid request before a bad one is not applied either.
  expect_rejected({{0, {0, 1, 2}}, {1, {100000}}});
  // A client named twice: the second request would index the data the
  // first one already shrank.
  expect_rejected({{0, {0, 1}}, {0, {0, 1}}});
  // A request that would leave the client no data.
  std::vector<std::size_t> all(static_cast<std::size_t>(rows1));
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  expect_rejected({{0, {0}}, {1, all}});
}

}  // namespace
}  // namespace goldfish

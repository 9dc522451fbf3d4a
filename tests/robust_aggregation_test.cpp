// Byzantine-robust aggregation: hand-computed krum / trimmed-mean / median /
// norm-clip fixtures, equivalence with the weight-based family in the
// degenerate configurations, poisoned-update suppression, staleness
// layering over robust bases, adversarial scenario events (label flips,
// backdoor injections, sybil bursts, audits) with thread-count determinism,
// and the end-to-end attack → robust-swap → deletion → audit golden
// timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/unlearner.h"
#include "data/backdoor.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "metrics/evaluation.h"
#include "nn/models.h"

namespace goldfish {
namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool snapshots_bitwise_equal(const std::vector<Tensor>& a,
                             const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (!a[t].same_shape(b[t])) return false;
    if (std::memcmp(a[t].data(), b[t].data(),
                    a[t].numel() * sizeof(float)) != 0)
      return false;
  }
  return true;
}

/// A one-tensor update whose parameter vector is `vals`.
fl::ClientUpdate upd(const std::vector<float>& vals, long dataset_size = 1,
                     long staleness = 0) {
  Tensor t({static_cast<long>(vals.size())});
  for (std::size_t i = 0; i < vals.size(); ++i) t[i] = vals[i];
  fl::ClientUpdate u;
  u.params.push_back(std::move(t));
  u.dataset_size = dataset_size;
  u.staleness = staleness;
  return u;
}

// -- krum -------------------------------------------------------------------

TEST(RobustAggregation, KrumScoresMatchHandComputation) {
  // Four updates in R², f = 0: each score sums the n−f−2 = 2 smallest
  // squared distances to the others.
  std::vector<fl::ClientUpdate> ups;
  ups.push_back(upd({0.0f, 0.0f}));     // a
  ups.push_back(upd({0.3f, 0.0f}));     // b
  ups.push_back(upd({0.1f, 0.05f}));    // c
  ups.push_back(upd({10.0f, 10.0f}));   // adversary
  // Pairwise squared distances: ab=0.09, ac=0.0125, bc=0.0425; the
  // adversary's distances all exceed 194.
  const auto sc = fl::KrumAggregator::scores(ups, /*f=*/0);
  ASSERT_EQ(sc.size(), 4u);
  EXPECT_NEAR(sc[0], 0.0125 + 0.09, 1e-5);    // a: ac + ab
  EXPECT_NEAR(sc[1], 0.0425 + 0.09, 1e-5);    // b: bc + ab
  EXPECT_NEAR(sc[2], 0.0125 + 0.0425, 1e-5);  // c: ac + bc — the winner
  EXPECT_GT(sc[3], 300.0);                    // adversary
  // Classic krum (m = 1) returns the winner's parameters exactly.
  fl::KrumAggregator krum(/*f=*/0, /*m=*/1);
  const auto agg = krum.aggregate(ups);
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_FLOAT_EQ(agg[0][0], 0.1f);
  EXPECT_FLOAT_EQ(agg[0][1], 0.05f);
}

TEST(RobustAggregation, KrumIgnoresArbitrarilyExtremeAdversary) {
  // The suppression property: one Byzantine update, no matter how extreme,
  // is never selected — the krum winner always comes from the honest
  // cluster, so the aggregate is bit-identical to one of the honest
  // updates.
  std::vector<fl::ClientUpdate> honest;
  honest.push_back(upd({1.0f, 2.0f}));
  honest.push_back(upd({1.1f, 2.1f}));
  honest.push_back(upd({0.9f, 1.9f}));
  honest.push_back(upd({1.05f, 2.05f}));
  std::vector<fl::ClientUpdate> attacked = honest;
  attacked.push_back(upd({1e8f, -1e8f}));
  fl::KrumAggregator krum(/*f=*/1, /*m=*/1);
  const auto defended = krum.aggregate(attacked);
  bool matches_honest = false;
  for (const fl::ClientUpdate& h : honest)
    matches_honest |= snapshots_bitwise_equal(defended, h.params);
  EXPECT_TRUE(matches_honest);
  // And the adversary's score dwarfs every honest one.
  const auto sc = fl::KrumAggregator::scores(attacked, /*f=*/1);
  for (std::size_t i = 0; i + 1 < sc.size(); ++i)
    EXPECT_LT(sc[i], sc.back() / 1e6);
}

TEST(RobustAggregation, KrumRejectsTooFewUpdates) {
  std::vector<fl::ClientUpdate> ups;
  ups.push_back(upd({0.0f}));
  ups.push_back(upd({1.0f}));
  ups.push_back(upd({2.0f}));
  // n = 3, f = 1 → needs n >= f+3 = 4.
  fl::KrumAggregator krum(/*f=*/1);
  EXPECT_THROW(krum.aggregate(ups), CheckError);
}

TEST(RobustAggregation, MultiKrumSelectingAllEqualsUniform) {
  // f = 0, m = n selects every update with weight 1 — the same borrowed-view
  // averaging path as UniformAggregator, bit for bit.
  std::vector<fl::ClientUpdate> ups;
  ups.push_back(upd({0.5f, -1.0f, 3.0f}));
  ups.push_back(upd({1.5f, 0.25f, -2.0f}));
  ups.push_back(upd({-0.5f, 2.0f, 0.125f}));
  ups.push_back(upd({2.5f, 1.0f, 1.0f}));
  fl::KrumAggregator all(/*f=*/0, /*m=*/4);
  fl::UniformAggregator uniform;
  EXPECT_TRUE(
      snapshots_bitwise_equal(all.aggregate(ups), uniform.aggregate(ups)));
}

// -- trimmed mean and median ------------------------------------------------

TEST(RobustAggregation, TrimmedMeanMatchesHandComputation) {
  // n = 5, β = 0.2 → k = 1 per side: coordinate 0 averages {2,3,4} → 3,
  // coordinate 1 averages {−1,0,1} → 0 (the 100s and −50 are trimmed).
  std::vector<fl::ClientUpdate> ups;
  ups.push_back(upd({1.0f, 100.0f}));
  ups.push_back(upd({2.0f, 0.0f}));
  ups.push_back(upd({3.0f, -50.0f}));
  ups.push_back(upd({4.0f, 1.0f}));
  ups.push_back(upd({100.0f, -1.0f}));
  fl::TrimmedMeanAggregator trim(0.2);
  const auto agg = trim.aggregate(ups);
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_FLOAT_EQ(agg[0][0], 3.0f);
  EXPECT_FLOAT_EQ(agg[0][1], 0.0f);
}

TEST(RobustAggregation, TrimmedMeanWithZeroFractionMatchesUniform) {
  std::vector<fl::ClientUpdate> ups;
  ups.push_back(upd({0.25f, -3.0f}));
  ups.push_back(upd({1.75f, 2.0f}));
  ups.push_back(upd({-0.5f, 4.5f}));
  fl::TrimmedMeanAggregator trim(0.0);
  fl::UniformAggregator uniform;
  const auto a = trim.aggregate(ups);
  const auto b = uniform.aggregate(ups);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a[0].numel(); ++i)
    EXPECT_NEAR(a[0][i], b[0][i], 1e-6f);
}

TEST(RobustAggregation, TrimmedMeanBoundsPoisonedCoordinates) {
  // With one adversary and k >= 1, every aggregated coordinate stays inside
  // the honest values' range (Yin et al.'s coordinate-wise guarantee).
  std::vector<fl::ClientUpdate> ups;
  ups.push_back(upd({1.0f, -2.0f}));
  ups.push_back(upd({1.2f, -1.8f}));
  ups.push_back(upd({0.8f, -2.2f}));
  ups.push_back(upd({1.1f, -1.9f}));
  ups.push_back(upd({1e6f, -1e6f}));  // adversary
  fl::TrimmedMeanAggregator trim(0.2);
  const auto agg = trim.aggregate(ups);
  EXPECT_GE(agg[0][0], 0.8f);
  EXPECT_LE(agg[0][0], 1.2f);
  EXPECT_GE(agg[0][1], -2.2f);
  EXPECT_LE(agg[0][1], -1.8f);
}

TEST(RobustAggregation, MedianMatchesHandComputation) {
  std::vector<fl::ClientUpdate> odd;
  odd.push_back(upd({1.0f}));
  odd.push_back(upd({100.0f}));
  odd.push_back(upd({2.0f}));
  fl::MedianAggregator median;
  EXPECT_FLOAT_EQ(median.aggregate(odd)[0][0], 2.0f);

  std::vector<fl::ClientUpdate> even = odd;
  even.push_back(upd({3.0f}));
  // Even count: mean of the two central values (2 and 3).
  EXPECT_FLOAT_EQ(median.aggregate(even)[0][0], 2.5f);
}

TEST(RobustAggregation, MedianOfIdenticalUpdatesIsTheUpdate) {
  std::vector<fl::ClientUpdate> ups;
  for (int i = 0; i < 4; ++i) ups.push_back(upd({0.75f, -1.25f}));
  fl::MedianAggregator median;
  const auto agg = median.aggregate(ups);
  EXPECT_FLOAT_EQ(agg[0][0], 0.75f);
  EXPECT_FLOAT_EQ(agg[0][1], -1.25f);
}

// -- norm clipping ----------------------------------------------------------

TEST(RobustAggregation, NormClipScalesOversizedUpdates) {
  // A single update of norm 5 under clip 1: the aggregate is the update
  // scaled to norm 1.
  std::vector<fl::ClientUpdate> ups;
  ups.push_back(upd({3.0f, 4.0f}));
  fl::NormClipAggregator clip(1.0);
  EXPECT_DOUBLE_EQ(fl::NormClipAggregator::snapshot_norm(ups[0].params), 5.0);
  const auto agg = clip.aggregate(ups);
  EXPECT_NEAR(agg[0][0], 0.6f, 1e-6f);
  EXPECT_NEAR(agg[0][1], 0.8f, 1e-6f);
}

TEST(RobustAggregation, NormClipWithHugeThresholdMatchesUniformBitwise) {
  // No update reaches the threshold → every clip factor is exactly 1 and
  // the accumulation mirrors nn::weighted_average operation for operation.
  std::vector<fl::ClientUpdate> ups;
  ups.push_back(upd({0.5f, -1.0f, 3.0f}));
  ups.push_back(upd({1.5f, 0.25f, -2.0f}));
  ups.push_back(upd({-0.5f, 2.0f, 0.125f}));
  fl::NormClipAggregator clip(1e9);
  fl::UniformAggregator uniform;
  EXPECT_TRUE(
      snapshots_bitwise_equal(clip.aggregate(ups), uniform.aggregate(ups)));
}

TEST(RobustAggregation, NormClipBoundsAdversarialMass) {
  // The adversary's pull on the mean is bounded by C/n no matter its norm.
  std::vector<fl::ClientUpdate> ups;
  ups.push_back(upd({0.0f, 0.0f}));
  ups.push_back(upd({0.0f, 0.0f}));
  ups.push_back(upd({0.0f, 0.0f}));
  ups.push_back(upd({1e8f, 0.0f}));  // adversary
  fl::NormClipAggregator clip(2.0);
  const auto agg = clip.aggregate(ups);
  // Honest zeros contribute nothing; the adversary lands at C/n = 0.5.
  EXPECT_NEAR(agg[0][0], 0.5f, 1e-6f);
  EXPECT_FLOAT_EQ(agg[0][1], 0.0f);
}

// -- non-finite uploads -----------------------------------------------------

TEST(RobustAggregation, NonFiniteUploadPoisonsNoRobustAggregator) {
  // Four honest updates and one all-NaN or all-+Inf upload, at every
  // arrival position (first, the fold's would-be first snapshot, included).
  Rng rng(31);
  std::vector<fl::ClientUpdate> honest;
  for (int i = 0; i < 4; ++i) {
    fl::ClientUpdate u;
    u.params.push_back(Tensor::randn({8}, rng));
    u.dataset_size = 1;
    honest.push_back(std::move(u));
  }
  fl::RobustConfig rc;
  rc.krum_f = 1;
  rc.krum_m = 2;
  rc.trim_fraction = 0.2;
  for (float poison : {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity()})
    for (std::size_t at = 0; at <= honest.size(); ++at) {
      std::vector<fl::ClientUpdate> ups = honest;
      ups.insert(ups.begin() + static_cast<long>(at),
                 upd(std::vector<float>(8, poison)));
      for (const char* name :
           {"median", "trimmed-mean", "krum", "multi-krum", "norm-clip"}) {
        const auto agg = fl::make_aggregator(name, rc)->aggregate(ups);
        for (std::size_t j = 0; j < agg[0].numel(); ++j)
          EXPECT_TRUE(std::isfinite(agg[0][j]))
              << name << " poison=" << poison << " at " << at
              << " coordinate " << j;
      }
      const auto krum = fl::make_aggregator("krum", rc)->aggregate(ups);
      EXPECT_TRUE(std::any_of(honest.begin(), honest.end(),
                              [&](const fl::ClientUpdate& u) {
                                return snapshots_bitwise_equal(krum,
                                                               u.params);
                              }))
          << "poison=" << poison << " at " << at;
    }
}

// -- the seam: capabilities, weights(), staleness layering ------------------

TEST(RobustAggregation, RobustAggregatorsHaveNoScalarWeights) {
  std::vector<fl::ClientUpdate> ups;
  ups.push_back(upd({1.0f}));
  EXPECT_THROW(fl::TrimmedMeanAggregator(0.1).weights(ups), std::logic_error);
  EXPECT_THROW(fl::MedianAggregator().weights(ups), std::logic_error);
  EXPECT_THROW(fl::NormClipAggregator(1.0).weights(ups), std::logic_error);
  EXPECT_THROW(fl::KrumAggregator(0).weights(ups), std::logic_error);
}

TEST(RobustAggregation, ConstructorValidation) {
  EXPECT_THROW(fl::KrumAggregator(-1), CheckError);
  EXPECT_THROW(fl::KrumAggregator(0, 0), CheckError);
  EXPECT_THROW(fl::TrimmedMeanAggregator(0.5), CheckError);
  EXPECT_THROW(fl::TrimmedMeanAggregator(-0.1), CheckError);
  EXPECT_THROW(fl::NormClipAggregator(0.0), CheckError);
  EXPECT_THROW(fl::NormClipAggregator(-1.0), CheckError);
}

TEST(RobustAggregation, StalenessLayersOverRobustBases) {
  // Fresh updates (staleness 0) decay by exactly 1, so the wrapper must
  // reproduce the robust base bit for bit — the multiplier seam at work.
  std::vector<fl::ClientUpdate> ups;
  ups.push_back(upd({1.0f, 2.0f}, 1, 0));
  ups.push_back(upd({1.5f, 2.5f}, 1, 0));
  ups.push_back(upd({0.5f, 1.5f}, 1, 0));
  ups.push_back(upd({9.0f, -9.0f}, 1, 0));
  fl::StalenessAggregator wrapped(fl::make_aggregator("krum"), 0.5);
  fl::KrumAggregator base(/*f=*/1, /*m=*/1);
  EXPECT_TRUE(
      snapshots_bitwise_equal(wrapped.aggregate(ups), base.aggregate(ups)));
  EXPECT_EQ(wrapped.name(), "krum+staleness");
  // Capabilities compose: the wrapper keeps the base's robust flag and adds
  // the staleness requirement.
  EXPECT_TRUE(wrapped.capabilities().robust);
  EXPECT_TRUE(wrapped.capabilities().needs_staleness);

  // A stale adversary under trimmed-mean+staleness: survivors are weighted
  // by decay, so the stale honest update pulls less than a fresh one.
  std::vector<fl::ClientUpdate> mixed;
  mixed.push_back(upd({0.0f}, 1, 0));
  mixed.push_back(upd({0.0f}, 1, 0));
  mixed.push_back(upd({1.0f}, 1, 3));  // stale: decay (1+3)^-1 = 0.25
  fl::StalenessAggregator trim_stale(
      std::make_unique<fl::TrimmedMeanAggregator>(0.0), 1.0);
  // Weighted mean (0+0+0.25·1)/(1+1+0.25) = 0.111…, not the plain 1/3.
  EXPECT_NEAR(trim_stale.aggregate(mixed)[0][0], 0.25f / 2.25f, 1e-6f);
}

// -- adversarial scenario events --------------------------------------------

TEST(RobustAggregation, FlipLabelsIsAnInvolution) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 11, 60, 20));
  const std::vector<long> before = tt.train.labels;
  data::flip_labels(tt.train);
  bool changed = false;
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(tt.train.labels[i], tt.train.num_classes - 1 - before[i]);
    changed |= tt.train.labels[i] != before[i];
  }
  EXPECT_TRUE(changed);
  data::flip_labels(tt.train);
  EXPECT_EQ(tt.train.labels, before);
}

struct AdversarialFed {
  std::vector<data::Dataset> parts;
  data::Dataset test;
  nn::Model global;
  data::BackdoorSpec spec;
  data::Dataset sybil_data;  ///< heavily poisoned shared sybil payload
  data::Dataset sybil_clean; ///< its clean remainder (the deletion payload)
  std::vector<std::size_t> poisoned_rows;  ///< D_f indices in sybil_data
  data::Dataset probe;
};

AdversarialFed make_adversarial_fed(long clients, long train_rows,
                                    long test_rows, long hidden,
                                    std::uint64_t seed) {
  auto tt = data::make_synthetic(data::default_spec(
      data::DatasetKind::Mnist, seed, train_rows, test_rows));
  Rng rng(seed + 1);
  AdversarialFed fed;
  // One extra partition becomes the sybils' shared local dataset.
  auto parts = data::partition_iid(tt.train, clients + 1, rng);
  fed.sybil_clean = std::move(parts.back());
  parts.pop_back();
  fed.parts = std::move(parts);
  fed.test = std::move(tt.test);
  fed.global = nn::make_mlp({1, 28, 28}, hidden, 10, rng);
  fed.spec.target_label = 0;
  fed.spec.patch = 4;
  auto poisoned = data::poison_dataset(fed.sybil_clean, fed.spec, 0.9f, rng);
  fed.sybil_data = std::move(poisoned.poisoned);
  fed.poisoned_rows = std::move(poisoned.poisoned_indices);
  fed.probe = data::make_trigger_probe(fed.test, fed.spec);
  return fed;
}

/// The attack → robust-swap → deletion → audit timeline at test scale.
/// `swap_to` is the robust strategy the server hot-swaps to mid-run.
fl::Scenario adversarial_timeline(const AdversarialFed& fed, long sybils,
                                  long aggregations, double defense_time,
                                  const std::string& swap_to) {
  fl::Scenario s;
  s.aggregations = aggregations;
  s.staleness_alpha = 0.0;
  // Audit from the start: every step carries the ASR/MIA curve.
  fl::AuditEvent audit;
  audit.time = 0.05;
  audit.probe = fed.probe;
  audit.members = fed.sybil_data;
  audit.nonmembers = fed.test;
  s.audits.push_back(std::move(audit));
  // The sybil burst joins just after the honest cohort starts.
  fl::SybilJoinEvent burst;
  burst.time = 0.1;
  burst.count = static_cast<std::size_t>(sybils);
  burst.dataset = fed.sybil_data;
  s.sybil_joins.push_back(std::move(burst));
  // Defense: swap to the robust aggregator and unlearn the sybils' poisoned
  // rows (their datasets are replaced by the clean remainder).
  s.aggregator_swaps.push_back({defense_time, swap_to});
  for (long i = 0; i < sybils; ++i) {
    fl::DeletionEvent del;
    del.time = defense_time;
    del.client = fed.parts.size() + static_cast<std::size_t>(i);
    del.new_data = fed.sybil_clean;
    s.deletions.push_back(std::move(del));
  }
  return s;
}

TEST(AdversarialScenario, EventsAreDeterministicAcrossThreadCounts) {
  // Every adversarial event kind on one timeline — label flip, backdoor
  // injection, sybil burst, audit, robust swap, deletion — must be
  // bit-identical at 1, 2 and 8 threads: Phase A plans on the virtual
  // clock, Phase B only respects data dependencies.
  std::vector<std::vector<fl::StepResult>> streams;
  std::vector<std::vector<Tensor>> finals;
  for (std::size_t threads : {1u, 2u, 8u}) {
    auto tt = data::make_synthetic(
        data::default_spec(data::DatasetKind::Mnist, 17, 120, 40));
    Rng rng(18);
    auto parts = data::partition_iid(tt.train, 4, rng);
    nn::Model global = nn::make_mlp({1, 28, 28}, 12, 10, rng);
    fl::FlConfig cfg;
    cfg.local.epochs = 1;
    cfg.local.batch_size = 30;
    cfg.local.lr = 0.05f;
    cfg.threads = threads;
    cfg.seed = 19;
    data::BackdoorSpec spec;
    spec.target_label = 1;
    spec.patch = 3;

    fl::Engine eng(global, parts, tt.test, cfg);
    fl::Scenario s = eng.async_scenario(6);
    s.staleness_alpha = 0.0;
    fl::AuditEvent audit;
    audit.time = 0.0;
    audit.probe = data::make_trigger_probe(tt.test, spec);
    s.audits.push_back(std::move(audit));
    s.label_flips.push_back({1.2, 0});
    fl::BackdoorInjectEvent inject;
    inject.time = 1.5;
    inject.client = 1;
    inject.spec = spec;
    inject.fraction = 0.5f;
    s.backdoors.push_back(std::move(inject));
    fl::SybilJoinEvent burst;
    burst.time = 0.6;
    burst.count = 2;
    burst.dataset = parts[2];
    s.sybil_joins.push_back(std::move(burst));
    s.aggregator_swaps.push_back({2.5, "median"});
    fl::DeletionEvent del;
    del.time = 3.0;
    del.client = 0;
    del.new_data = parts[0].subset({0, 1, 2, 3, 4});
    s.deletions.push_back(std::move(del));

    streams.push_back(eng.collect(std::move(s)));
    finals.push_back(eng.global_model().snapshot());
  }
  for (std::size_t v = 1; v < streams.size(); ++v) {
    ASSERT_EQ(streams[v].size(), streams[0].size());
    for (std::size_t i = 0; i < streams[0].size(); ++i) {
      const fl::StepResult& a = streams[0][i];
      const fl::StepResult& b = streams[v][i];
      EXPECT_TRUE(bits_equal(a.global_accuracy, b.global_accuracy));
      EXPECT_TRUE(bits_equal(a.virtual_time, b.virtual_time));
      EXPECT_EQ(a.has_audit, b.has_audit);
      EXPECT_TRUE(bits_equal(a.attack_success, b.attack_success));
      EXPECT_TRUE(bits_equal(a.mia_auc, b.mia_auc));
      EXPECT_TRUE(bits_equal(a.mia_accuracy, b.mia_accuracy));
      EXPECT_EQ(a.aggregator, b.aggregator);
      EXPECT_EQ(a.updates_consumed, b.updates_consumed);
      EXPECT_EQ(a.dropped_updates, b.dropped_updates);
      EXPECT_EQ(a.active_clients, b.active_clients);
    }
    EXPECT_TRUE(snapshots_bitwise_equal(finals[0], finals[v]));
  }
  // The timeline exercised what it claims: audits ran, the swap landed.
  ASSERT_FALSE(streams[0].empty());
  EXPECT_TRUE(streams[0].front().has_audit);
  EXPECT_EQ(streams[0].back().aggregator, "median");
}

TEST(AdversarialScenario, LabelFlipOnlyPoisonsTasksStartedAfterTheEvent) {
  // Two 2-round runs: one clean, one with a flip at t = 0.5 — mid-flight
  // for round 1 (started at t = 0), before round 2 starts (t = 1). Round 1
  // must be bit-identical (in-flight tasks stay honest), round 2 must
  // diverge (flipped epoch), and the flip must commit durably.
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 23, 80, 30));
  Rng rng(24);
  auto parts = data::partition_iid(tt.train, 2, rng);
  nn::Model global = nn::make_mlp({1, 28, 28}, 8, 10, rng);
  fl::FlConfig cfg;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 40;
  cfg.local.lr = 0.05f;
  cfg.seed = 25;

  const std::vector<long> labels_before = parts[0].labels;
  fl::Engine clean_eng(global, parts, tt.test, cfg);
  const auto clean = clean_eng.collect(clean_eng.sync_scenario(2, false));

  fl::Engine flip_eng(global, parts, tt.test, cfg);
  fl::Scenario s = flip_eng.sync_scenario(2, false);
  s.label_flips.push_back({0.5, 0});
  const auto flipped = flip_eng.collect(std::move(s));

  ASSERT_EQ(clean.size(), 2u);
  ASSERT_EQ(flipped.size(), 2u);
  // Round 1 trained on the honest data in both runs.
  EXPECT_TRUE(
      bits_equal(clean[0].global_accuracy, flipped[0].global_accuracy));
  // Round 2 trained on the flipped epoch: the models diverge.
  EXPECT_FALSE(snapshots_bitwise_equal(clean_eng.global_model().snapshot(),
                                       flip_eng.global_model().snapshot()));
  // Durable: the engine's copy of client 0's data is now flipped.
  const std::vector<long>& after = flip_eng.client_data(0).labels;
  ASSERT_EQ(after.size(), labels_before.size());
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_EQ(after[i], parts[0].num_classes - 1 - labels_before[i]);
}

TEST(AdversarialScenario, ValidationRejectsMalformedEvents) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 29, 60, 20));
  Rng rng(30);
  auto parts = data::partition_iid(tt.train, 2, rng);
  nn::Model global = nn::make_mlp({1, 28, 28}, 8, 10, rng);
  fl::FlConfig cfg;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 30;
  cfg.local.lr = 0.05f;
  fl::Engine eng(global, parts, tt.test, cfg);

  {
    fl::Scenario s = eng.sync_scenario(1, false);
    s.label_flips.push_back({0.5, 7});  // unknown client
    EXPECT_THROW(eng.collect(std::move(s)), CheckError);
  }
  {
    fl::Scenario s = eng.sync_scenario(1, false);
    fl::BackdoorInjectEvent ev;
    ev.client = 0;
    ev.fraction = 0.0f;  // poisons nothing
    s.backdoors.push_back(std::move(ev));
    EXPECT_THROW(eng.collect(std::move(s)), CheckError);
  }
  {
    fl::Scenario s = eng.sync_scenario(1, false);
    fl::SybilJoinEvent ev;
    ev.count = 0;  // empty burst
    ev.dataset = parts[0];
    s.sybil_joins.push_back(std::move(ev));
    EXPECT_THROW(eng.collect(std::move(s)), CheckError);
  }
  {
    fl::Scenario s = eng.sync_scenario(1, false);
    fl::AuditEvent ev;  // no probe set
    s.audits.push_back(std::move(ev));
    EXPECT_THROW(eng.collect(std::move(s)), CheckError);
  }
  {
    fl::Scenario s = eng.sync_scenario(1, false);
    fl::AuditEvent ev;
    ev.probe = parts[0];
    ev.members = parts[0];  // members without nonmembers
    s.audits.push_back(std::move(ev));
    EXPECT_THROW(eng.collect(std::move(s)), CheckError);
  }
}

// -- the golden timeline ----------------------------------------------------

TEST(AdversarialGolden, AttackSwapDeletionAuditTimeline) {
  // The acceptance scenario, end to end: a sybil backdoor burst
  // contaminates fedavg; the server swaps to trimmed-mean and deletes the
  // sybils' poisoned rows (both on the scenario timeline, audited every
  // step, bit-identical at 1, 2 and 8 threads); then Goldfish unlearning
  // distills the contaminated model from a fresh init — the backdoor
  // collapses below 10% ASR while accuracy recovers.
  AdversarialFed fed = make_adversarial_fed(/*clients=*/6, /*train_rows=*/700,
                                            /*test_rows=*/200, /*hidden=*/48,
                                            /*seed=*/41);
  std::vector<std::vector<fl::StepResult>> streams;
  std::vector<std::vector<Tensor>> finals;
  for (std::size_t threads : {1u, 2u, 8u}) {
    fl::FlConfig cfg;
    cfg.local.epochs = 4;
    cfg.local.batch_size = 50;
    cfg.local.lr = 0.05f;
    cfg.threads = threads;
    cfg.seed = 42;
    cfg.robust.trim_fraction = 0.4;  // 3 sybils of 9: trim must cover 1/3
    fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
    fl::Scenario s = adversarial_timeline(fed, /*sybils=*/3,
                                          /*aggregations=*/10,
                                          /*defense_time=*/5.5,
                                          "trimmed-mean");
    s.buffer = std::make_unique<fl::FixedBuffer>(0);  // K = active clients
    s.clock = std::make_unique<fl::VirtualClock>(cfg.seed, 1.0, 0.0);
    streams.push_back(eng.collect(std::move(s)));
    finals.push_back(eng.global_model().snapshot());
  }
  for (std::size_t v = 1; v < streams.size(); ++v) {
    ASSERT_EQ(streams[v].size(), streams[0].size());
    for (std::size_t i = 0; i < streams[0].size(); ++i) {
      EXPECT_TRUE(bits_equal(streams[0][i].global_accuracy,
                             streams[v][i].global_accuracy));
      EXPECT_TRUE(bits_equal(streams[0][i].attack_success,
                             streams[v][i].attack_success));
      EXPECT_TRUE(bits_equal(streams[0][i].mia_auc, streams[v][i].mia_auc));
    }
    EXPECT_TRUE(snapshots_bitwise_equal(finals[0], finals[v]));
  }

  const std::vector<fl::StepResult>& run = streams[0];
  ASSERT_EQ(run.size(), 10u);
  double peak_asr = 0.0;
  for (const fl::StepResult& r : run) {
    ASSERT_TRUE(r.has_audit);
    peak_asr = std::max(peak_asr, r.attack_success);
  }
  // The attack works under fedavg...
  EXPECT_GT(peak_asr, 40.0);
  EXPECT_EQ(run.front().aggregator, "fedavg");
  // ...and the swap lands on the timeline.
  EXPECT_EQ(run.back().aggregator, "trimmed-mean");

  // Phase 2 — Goldfish unlearning: the contaminated global becomes the
  // teacher, the federation is the post-attack one (sybils still holding
  // their poisoned data), and the deletion request names exactly the
  // poisoned rows.
  nn::Model contaminated = fed.global;
  contaminated.load(finals[0]);
  const double asr_before =
      metrics::attack_success_rate(contaminated, fed.probe);
  EXPECT_GT(asr_before, 40.0);

  std::vector<data::Dataset> federation = fed.parts;
  std::vector<core::UnlearnRequest> requests;
  for (std::size_t i = 0; i < 3; ++i) {
    requests.push_back({federation.size(), fed.poisoned_rows});
    federation.push_back(fed.sybil_data);
  }
  core::UnlearnConfig ucfg;
  ucfg.distill.max_epochs = 6;
  ucfg.distill.lr = 0.03f;
  ucfg.distill.use_early_termination = false;
  ucfg.seed = 43;
  core::GoldfishUnlearner ul(contaminated, fed.global, federation, fed.test,
                             ucfg);
  ul.request_deletion(requests);
  ul.run(8);

  // The audit after unlearning: backdoor below 10%, model still useful.
  const double asr_after =
      metrics::attack_success_rate(ul.global_model(), fed.probe);
  EXPECT_LT(asr_after, 10.0);
  EXPECT_GT(metrics::accuracy(ul.global_model(), fed.test), 45.0);
}

}  // namespace
}  // namespace goldfish

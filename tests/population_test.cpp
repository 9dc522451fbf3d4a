// The population subsystem (src/fl/population/): cold client-state store
// spill/materialize round trips, cohort enumeration, and the engine's one
// commit path over its two backings (hot resident clients, cold records) —
// including the deletion-on-a-cold-client eviction that must not force a
// materialization, durable per-client telemetry, and an aborted run that
// commits nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "fl/population/population.h"
#include "nn/models.h"
#include "step_result_equal.h"
#include "tensor/serialize.h"

namespace goldfish {
namespace {

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

bool datasets_bitwise_equal(const data::Dataset& a, const data::Dataset& b) {
  return a.num_classes == b.num_classes &&
         a.geom.channels == b.geom.channels &&
         a.geom.height == b.geom.height && a.geom.width == b.geom.width &&
         a.labels == b.labels && a.features.same_shape(b.features) &&
         std::memcmp(a.features.data(), b.features.data(),
                     a.features.numel() * sizeof(float)) == 0;
}

struct Fed {
  std::vector<data::Dataset> parts;
  data::Dataset test;
  nn::Model global;
};

Fed make_fed(long clients, long train_rows, long test_rows,
             std::uint64_t seed) {
  auto tt = data::make_synthetic(data::default_spec(
      data::DatasetKind::Mnist, seed, train_rows, test_rows));
  Rng rng(seed + 1);
  Fed fed;
  fed.parts = data::partition_iid(tt.train, clients, rng);
  fed.test = std::move(tt.test);
  fed.global = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  return fed;
}

fl::FlConfig fast_cfg() {
  fl::FlConfig cfg;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 50;
  cfg.local.lr = 0.05f;
  return cfg;
}

fl::population::Population make_population(
    const std::vector<data::Dataset>& parts) {
  fl::population::Population pop;
  for (const data::Dataset& p : parts) pop.clients.add(p);
  return pop;
}

/// The same federation behind either constructor: resident datasets (a hot
/// store) or a cold population.
std::unique_ptr<fl::Engine> make_engine(bool hot, const Fed& fed,
                                        const fl::FlConfig& cfg) {
  if (hot)
    return std::make_unique<fl::Engine>(fed.global, fed.parts, fed.test, cfg);
  return std::make_unique<fl::Engine>(fed.global, make_population(fed.parts),
                                      fed.test, cfg);
}

/// Live bytes of a dataset, as ClientStateStore::resident_bytes counts them.
std::size_t dataset_bytes(const data::Dataset& ds) {
  return static_cast<std::size_t>(ds.features.numel()) * sizeof(float) +
         ds.labels.size() * sizeof(long);
}

bool telemetry_equal(const fl::population::ClientStateStore::Telemetry& a,
                     const fl::population::ClientStateStore::Telemetry& b) {
  return a.tasks_started == b.tasks_started &&
         a.updates_aggregated == b.updates_aggregated &&
         a.bytes_uplinked == b.bytes_uplinked &&
         a.last_version == b.last_version;
}

// -- cold client-state store -----------------------------------------------

TEST(ClientStore, SpillMaterializeRoundTripIsByteIdentical) {
  Fed fed = make_fed(3, 120, 30, 1101);
  fl::population::ClientStateStore store;
  for (const data::Dataset& p : fed.parts) store.add(p);
  ASSERT_EQ(store.num_clients(), 3u);
  EXPECT_EQ(store.resident_bytes(), 0u);
  EXPECT_GT(store.cold_bytes(), 0u);

  for (std::size_t c = 0; c < 3; ++c) {
    const data::Dataset& m = store.materialize(c);
    EXPECT_TRUE(store.resident(c));
    ASSERT_TRUE(datasets_bitwise_equal(m, fed.parts[c]));
    // Byte-identity of the embedded GFT1 record: serializing the
    // round-tripped features reproduces the original bytes exactly.
    std::string a, b;
    serialize_tensors({fed.parts[c].features}, a);
    serialize_tensors({m.features}, b);
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(store.resident_clients(), 3u);
  EXPECT_GT(store.resident_bytes(), 0u);
  EXPECT_EQ(store.materializations(), 3u);
  // Idempotent while resident: same slot, no new decode.
  store.materialize(1);
  EXPECT_EQ(store.materializations(), 3u);

  store.release_all();
  EXPECT_EQ(store.resident_bytes(), 0u);
  EXPECT_EQ(store.resident_clients(), 0u);
  EXPECT_GT(store.peak_resident_bytes(), 0u);
  // Re-materialization after release decodes the same bytes again.
  EXPECT_TRUE(datasets_bitwise_equal(store.materialize(0), fed.parts[0]));
}

TEST(ClientStore, TelemetryPatchesInPlaceAndSurvivesReplace) {
  Fed fed = make_fed(2, 80, 20, 1102);
  fl::population::ClientStateStore store;
  store.add(fed.parts[0]);
  const std::size_t before = store.record_bytes(0);

  store.bump_tasks_started(0, 3);
  store.bump_updates_aggregated(0, 2);
  store.bump_bytes_uplinked(0, 4096);
  store.set_last_version(0, 7);
  // Telemetry patches never touch the tensor payload.
  EXPECT_EQ(store.record_bytes(0), before);
  auto t = store.telemetry(0);
  EXPECT_EQ(t.tasks_started, 3);
  EXPECT_EQ(t.updates_aggregated, 2);
  EXPECT_EQ(t.bytes_uplinked, 4096u);
  EXPECT_EQ(t.last_version, 7);

  // replace() swaps the data but keeps the audit trail — without decoding
  // the old record (the client is cold; materializations() stays 0).
  store.replace(0, fed.parts[1]);
  EXPECT_EQ(store.materializations(), 0u);
  t = store.telemetry(0);
  EXPECT_EQ(t.tasks_started, 3);
  EXPECT_EQ(t.last_version, 7);
  EXPECT_TRUE(datasets_bitwise_equal(store.materialize(0), fed.parts[1]));
}

// -- cohort participation --------------------------------------------------

TEST(CohortParticipation, DeterministicSortedDistinctAndConsistent) {
  fl::CohortParticipation pol(8, 4242);
  EXPECT_TRUE(pol.enumerates_cohort());
  const std::vector<std::size_t> first = pol.cohort(3, 100);
  ASSERT_EQ(first.size(), 8u);
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
  EXPECT_EQ(std::adjacent_find(first.begin(), first.end()), first.end());
  // Cached and stable for the version.
  EXPECT_EQ(pol.cohort(3, 100), first);
  for (std::size_t c = 0; c < 100; ++c)
    EXPECT_EQ(pol.participates(c, 3, 0.0),
              std::binary_search(first.begin(), first.end(), c));
  // A fresh policy with the same seed draws the same cohorts.
  fl::CohortParticipation again(8, 4242);
  EXPECT_EQ(again.cohort(3, 100), first);
  // Different versions draw different cohorts (overwhelmingly likely).
  EXPECT_NE(again.cohort(4, 100), first);
  // Cohort clamps to the population.
  fl::CohortParticipation wide(64, 7);
  EXPECT_EQ(wide.cohort(0, 5).size(), 5u);
  // Non-enumerating policies reject cohort().
  fl::FullParticipation full;
  EXPECT_FALSE(full.enumerates_cohort());
  EXPECT_THROW(full.cohort(0, 10), std::logic_error);
}

/// The same membership function as CohortParticipation, exposed only
/// through participates() — forcing the engine down its O(population)
/// parked-rescan path. Used to pin that cohort *enumeration* changes the
/// scheduling cost, never the schedule.
class NonEnumeratingCohort final : public fl::ParticipationPolicy {
 public:
  NonEnumeratingCohort(std::size_t cohort_size, std::uint64_t seed,
                       std::size_t num_clients)
      : inner_(cohort_size, seed), n_(num_clients) {}
  bool participates(std::size_t client, long version, double) override {
    const auto& co = inner_.cohort(version, n_);
    return std::binary_search(co.begin(), co.end(), client);
  }
  std::string name() const override { return "cohort-scan"; }

 private:
  fl::CohortParticipation inner_;
  std::size_t n_;
};

TEST(CohortParticipation, EnumeratedScheduleMatchesMembershipScan) {
  Fed a = make_fed(10, 200, 40, 1501);
  Fed b = make_fed(10, 200, 40, 1501);
  fl::FlConfig cfg = fast_cfg();
  cfg.async.buffer_size = 3;
  cfg.async.duration_log_jitter = 0.25;

  fl::Engine enumerated(a.global, a.parts, a.test, cfg);
  fl::Scenario s1 = enumerated.async_scenario(4);
  s1.participation = std::make_unique<fl::CohortParticipation>(4, 77);
  const auto r1 = enumerated.collect(std::move(s1));

  fl::Engine scanned(b.global, b.parts, b.test, cfg);
  fl::Scenario s2 = scanned.async_scenario(4);
  s2.participation = std::make_unique<NonEnumeratingCohort>(4, 77, 10);
  const auto r2 = scanned.collect(std::move(s2));

  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].updates_consumed, r2[i].updates_consumed);
    EXPECT_EQ(std::memcmp(&r1[i].global_accuracy, &r2[i].global_accuracy,
                          sizeof(double)),
              0);
  }
  EXPECT_TRUE(snapshots_bitwise_equal(enumerated.global_model().snapshot(),
                                      scanned.global_model().snapshot()));
}

// -- the engine over hot and cold backings ---------------------------------

TEST(PopulationEngine, MatchesResidentEngineBitForBit) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    Fed ra = make_fed(6, 180, 40, 1601);
    Fed rb = make_fed(6, 180, 40, 1601);
    fl::FlConfig cfg = fast_cfg();
    cfg.threads = threads;
    cfg.async.buffer_size = 3;
    cfg.async.duration_log_jitter = 0.25;
    cfg.async.staleness_alpha = 0.5;

    fl::Engine resident(ra.global, ra.parts, ra.test, cfg);
    fl::Engine populated(rb.global, make_population(rb.parts), rb.test, cfg);
    EXPECT_EQ(populated.num_clients(), 6u);

    const auto scenario = [&](const fl::Engine& e) {
      fl::Scenario s = e.async_scenario(4);
      s.participation = std::make_unique<fl::CohortParticipation>(4, 11);
      return s;
    };
    const auto a = resident.collect(scenario(resident));
    const auto b = populated.collect(scenario(populated));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::memcmp(&a[i].global_accuracy, &b[i].global_accuracy,
                            sizeof(double)),
                0);
      EXPECT_EQ(a[i].updates_consumed, b[i].updates_consumed);
      EXPECT_EQ(a[i].bytes_uplinked, b[i].bytes_uplinked);
    }
    EXPECT_TRUE(snapshots_bitwise_equal(resident.global_model().snapshot(),
                                        populated.global_model().snapshot()))
        << "threads=" << threads;

    // End of run: every cohort slot returned, and both backings committed
    // the same durable telemetry.
    auto* pop = populated.population();
    ASSERT_NE(pop, nullptr);
    EXPECT_EQ(pop->clients.resident_bytes(), 0u);
    EXPECT_GT(pop->clients.materializations(), 0u);
    for (std::size_t c = 0; c < populated.num_clients(); ++c)
      EXPECT_TRUE(telemetry_equal(pop->clients.telemetry(c),
                                  resident.population()->clients.telemetry(c)))
          << "threads=" << threads << " client " << c;
  }
}

TEST(PopulationEngine, DurableStateAndTelemetryCommit) {
  // One commit path, two backings: the resident constructor's hot store
  // commits exactly the telemetry a cold one does.
  Fed fed = make_fed(5, 150, 40, 1602);
  fl::FlConfig cfg = fast_cfg();
  auto cold = make_engine(false, fed, cfg);
  auto hot = make_engine(true, fed, cfg);
  for (fl::Engine* eng : {cold.get(), hot.get()}) {
    SCOPED_TRACE(eng == hot.get() ? "hot" : "cold");
    auto steps = eng->collect(eng->sync_scenario(2));
    ASSERT_EQ(steps.size(), 2u);

    auto* pop = eng->population();
    ASSERT_NE(pop, nullptr);
    std::size_t started = 0, aggregated = 0;
    for (std::size_t c = 0; c < eng->num_clients(); ++c) {
      const auto t = pop->clients.telemetry(c);
      started += static_cast<std::size_t>(t.tasks_started);
      aggregated += static_cast<std::size_t>(t.updates_aggregated);
      EXPECT_GT(t.bytes_uplinked, 0u);
      EXPECT_GE(t.last_version, 1L);
    }
    EXPECT_EQ(aggregated, 10u);  // 2 barrier rounds × 5 clients
    EXPECT_GE(started, aggregated);
    // Every client's newest download is the second round's broadcast.
    for (std::size_t c = 0; c < eng->num_clients(); ++c)
      EXPECT_EQ(pop->clients.telemetry(c).last_version, 1)
          << "client " << c;
  }
  for (std::size_t c = 0; c < fed.parts.size(); ++c)
    EXPECT_TRUE(telemetry_equal(cold->population()->clients.telemetry(c),
                                hot->population()->clients.telemetry(c)))
        << "client " << c;
  // client_data() serves hot records only.
  EXPECT_THROW(cold->client_data(0), CheckError);

  // A later run's deletion and join stay hot: no client is ever decoded or
  // spilled cold, and client_data() returns the post-run data.
  const auto remainder = fed.parts[0].subset({0, 1, 2, 3, 4});
  const auto joiner = fed.parts[1].subset({5, 6, 7});
  fl::Scenario s;
  s.aggregations = 0;
  s.deletions.push_back({0.0, 0, remainder});
  s.joins.push_back({0.0, joiner});
  hot->collect(std::move(s));
  const auto& store = hot->population()->clients;
  EXPECT_EQ(store.materializations(), 0u);
  std::vector<data::Dataset> after = fed.parts;
  after[0] = remainder;
  after.push_back(joiner);
  ASSERT_EQ(hot->num_clients(), after.size());
  std::size_t federation_bytes = 0;
  for (std::size_t c = 0; c < after.size(); ++c) {
    federation_bytes += dataset_bytes(after[c]);
    EXPECT_TRUE(datasets_bitwise_equal(hot->client_data(c), after[c]))
        << "client " << c;
  }
  EXPECT_EQ(store.resident_bytes(), federation_bytes);
}

TEST(PopulationEngine, AbortedRunCommitsNothing) {
  for (const bool hot : {false, true}) {
    SCOPED_TRACE(hot ? "hot" : "cold");
    Fed fed = make_fed(5, 150, 40, 1606);
    fl::FlConfig cfg = fast_cfg();
    auto eng = make_engine(hot, fed, cfg);
    eng->collect(eng->sync_scenario(1));  // pre-run state to preserve

    bool fail = true;
    eng->set_client_update([&](std::size_t cid, nn::Model& model,
                               const data::Dataset& ds, long round) {
      if (fail && cid == 2) throw std::runtime_error("client 2 crashed");
      fl::TrainOptions opts = cfg.local;
      opts.seed = mix_seed(cfg.seed, cid, static_cast<std::uint64_t>(round));
      fl::train_local(model, ds, opts);
    });

    const auto* pop = eng->population();
    std::vector<fl::population::ClientStateStore::Telemetry> telemetry;
    for (std::size_t c = 0; c < eng->num_clients(); ++c)
      telemetry.push_back(pop->clients.telemetry(c));
    const long rounds = eng->rounds_completed();

    // The scenario would delete, join and flip if it committed.
    fl::Scenario s = eng->sync_scenario(2);
    s.deletions.push_back({0.5, 0, fed.parts[0].subset({0, 1, 2})});
    s.joins.push_back({0.5, fed.parts[1].subset({0, 1, 2})});
    s.label_flips.push_back({0.5, 3});
    EXPECT_THROW(eng->collect(std::move(s)), std::runtime_error);

    EXPECT_FALSE(eng->running());
    EXPECT_EQ(eng->num_clients(), fed.parts.size());
    EXPECT_EQ(eng->rounds_completed(), rounds);
    for (std::size_t c = 0; c < eng->num_clients(); ++c)
      EXPECT_TRUE(telemetry_equal(pop->clients.telemetry(c), telemetry[c]))
          << "client " << c;
    if (hot) {
      for (std::size_t c = 0; c < fed.parts.size(); ++c)
        EXPECT_TRUE(datasets_bitwise_equal(eng->client_data(c), fed.parts[c]))
            << "client " << c;
    } else {
      EXPECT_EQ(pop->clients.resident_bytes(), 0u);
    }

    fail = false;
    EXPECT_EQ(eng->collect(eng->sync_scenario(1)).size(), 1u);
    EXPECT_EQ(pop->clients.telemetry(2).updates_aggregated,
              telemetry[2].updates_aggregated + 1);
  }
}

TEST(PopulationEngine, PhaseAThrowLeavesNoRunState) {
  // Phase A keeps its per-client builder state in entries that outlive a
  // run and resets the ones it touched — also when it throws. Runs that
  // throw inside Phase A after tasks have started must leave the engine as
  // a freshly built one: the next run's StepResult stream, model and
  // telemetry match the fresh engine's bit for bit.
  for (const bool hot : {false, true}) {
    SCOPED_TRACE(hot ? "hot" : "cold");
    Fed fed = make_fed(6, 180, 40, 1608);
    fl::FlConfig cfg = fast_cfg();
    cfg.async.buffer_size = 3;
    cfg.async.duration_log_jitter = 0.25;
    auto used = make_engine(hot, fed, cfg);
    auto fresh = make_engine(hot, fed, cfg);

    // A deletion, then a label flip, aimed at client 6 before it joins:
    // valid ids for the scenario, but not yet at the event's time.
    for (const bool flip : {false, true}) {
      fl::Scenario s = used->async_scenario(4);
      s.joins.push_back({2.0, fed.parts[0].subset({0, 1, 2, 3})});
      if (flip) {
        s.label_flips.push_back({1.0, 6});
      } else {
        s.deletions.push_back({1.0, 6, fed.parts[0].subset({0, 1})});
      }
      EXPECT_THROW(used->collect(std::move(s)), CheckError);
    }
    // A stall: a client joins and starts training, then every client
    // leaves, so once the voided tasks land nothing can fill the buffer.
    {
      fl::Scenario s = used->sync_scenario(2, /*local_accuracy=*/false);
      s.joins.push_back({0.25, fed.parts[1].subset({0, 1, 2, 3})});
      for (std::size_t c = 0; c <= 6; ++c) s.leaves.push_back({0.5, c});
      EXPECT_THROW(used->collect(std::move(s)), CheckError);
    }
    EXPECT_FALSE(used->running());
    EXPECT_EQ(used->num_clients(), 6u);
    EXPECT_EQ(used->active_clients(), 6u);
    EXPECT_EQ(used->rounds_completed(), 0);

    const auto scenario = [&](const fl::Engine& e) {
      fl::Scenario s = e.async_scenario(5);
      s.participation = std::make_unique<fl::CohortParticipation>(4, 19);
      s.deletions.push_back({0.8, 2, fed.parts[2].subset({0, 1, 2, 3, 4})});
      s.joins.push_back({1.2, fed.parts[3].subset({0, 1, 2, 3, 4, 5})});
      s.leaves.push_back({1.6, 4});
      s.label_flips.push_back({2.0, 6});
      return s;
    };
    const auto a = used->collect(scenario(*used));
    const auto b = fresh->collect(scenario(*fresh));
    ASSERT_EQ(a.size(), 5u);
    ASSERT_EQ(b.size(), 5u);
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_TRUE(steps_bitwise_equal(a[i], b[i])) << "step " << i;
    EXPECT_TRUE(snapshots_bitwise_equal(used->global_model().snapshot(),
                                        fresh->global_model().snapshot()));
    EXPECT_EQ(used->rounds_completed(), fresh->rounds_completed());
    EXPECT_EQ(used->active_clients(), fresh->active_clients());
    ASSERT_EQ(used->num_clients(), fresh->num_clients());
    const auto& got = used->population()->clients;
    const auto& want = fresh->population()->clients;
    EXPECT_EQ(got.resident_bytes(), want.resident_bytes());
    for (std::size_t c = 0; c < used->num_clients(); ++c) {
      EXPECT_TRUE(telemetry_equal(got.telemetry(c), want.telemetry(c)))
          << "client " << c;
      if (hot) {
        EXPECT_TRUE(datasets_bitwise_equal(used->client_data(c),
                                           fresh->client_data(c)))
            << "client " << c;
      }
    }
  }
}

TEST(PopulationEngine, DeletionOnColdClientEvictsWithoutMaterializing) {
  Fed fed = make_fed(6, 180, 40, 1603);
  fl::FlConfig cfg = fast_cfg();
  fl::Engine eng(fed.global, make_population(fed.parts), fed.test, cfg);
  auto* pop = eng.population();

  // Round 1: a 3-client cohort trains; the other clients stay cold.
  fl::Scenario s = eng.async_scenario(1);
  s.participation = std::make_unique<fl::CohortParticipation>(3, 5);
  s.buffer = std::make_unique<fl::FixedBuffer>(3);
  eng.collect(std::move(s));
  const std::size_t decoded = pop->clients.materializations();
  EXPECT_EQ(decoded, 3u);

  // Find a client that never materialized.
  std::size_t cold = 0;
  for (std::size_t c = 0; c < eng.num_clients(); ++c)
    if (pop->clients.telemetry(c).tasks_started == 0) cold = c;
  const std::size_t bytes_before = pop->clients.record_bytes(cold);

  // A zero-aggregation run whose only event deletes the cold client's rows:
  // the record is re-spilled WITHOUT decoding a single tensor.
  fl::Scenario del;
  del.aggregations = 0;
  del.deletions.push_back(
      {0.0, cold, fed.parts[cold].subset({0, 1, 2, 3, 4})});
  eng.collect(std::move(del));
  EXPECT_EQ(pop->clients.materializations(), decoded);  // no new decodes
  EXPECT_LT(pop->clients.record_bytes(cold), bytes_before);
  EXPECT_TRUE(datasets_bitwise_equal(pop->clients.materialize(cold),
                                     fed.parts[cold].subset({0, 1, 2, 3, 4})));
}

TEST(PopulationEngine, LastVersionIsEachClientsNewestDownload) {
  // last_version is the newest server version any of the client's tasks
  // downloaded in the latest run it started a task in (versions count from
  // 0 within each run). Pinned over a cohort-sampled, jittered async run
  // with a delta-quantized wire, a deletion and a join, then a second,
  // shorter run that overwrites the clients it samples; both backings
  // commit the same values.
  const std::vector<long> expected = {3, 5, 1, 5, 1, 5, 1, 4, 0, 1, 0};
  Fed fed = make_fed(10, 300, 40, 1607);
  fl::FlConfig cfg = fast_cfg();
  cfg.async.buffer_size = 3;
  cfg.async.duration_log_jitter = 0.5;
  auto cold = make_engine(false, fed, cfg);
  auto hot = make_engine(true, fed, cfg);
  for (fl::Engine* eng : {cold.get(), hot.get()}) {
    SCOPED_TRACE(eng == hot.get() ? "hot" : "cold");
    fl::Scenario s = eng->async_scenario(6);
    s.participation = std::make_unique<fl::CohortParticipation>(4, 31);
    s.wire = std::make_unique<fl::DeltaWire>(
        std::make_unique<fl::QuantizedWire>());
    s.deletions.push_back({1.0, 1, fed.parts[1].subset({0, 1, 2, 3, 4})});
    s.joins.push_back({1.5, fed.parts[2].subset({0, 1, 2, 3, 4, 5})});
    ASSERT_EQ(eng->collect(std::move(s)).size(), 6u);

    fl::Scenario again = eng->async_scenario(2);
    again.participation = std::make_unique<fl::CohortParticipation>(3, 32);
    again.wire = std::make_unique<fl::DeltaWire>(
        std::make_unique<fl::QuantizedWire>());
    ASSERT_EQ(eng->collect(std::move(again)).size(), 2u);

    const auto& store = eng->population()->clients;
    ASSERT_EQ(store.num_clients(), expected.size());
    std::vector<long> got;
    for (std::size_t c = 0; c < store.num_clients(); ++c)
      got.push_back(store.telemetry(c).last_version);
    EXPECT_EQ(got, expected);
  }
  for (std::size_t c = 0; c < cold->num_clients(); ++c)
    EXPECT_TRUE(telemetry_equal(cold->population()->clients.telemetry(c),
                                hot->population()->clients.telemetry(c)))
        << "client " << c;
}

TEST(PopulationEngine, JoinsFlipsAndLeavesMatchResidentMode) {
  Fed ra = make_fed(4, 160, 40, 1605);
  Fed rb = make_fed(4, 160, 40, 1605);
  auto joiner_a = ra.parts[0].subset({0, 1, 2, 3, 4, 5});
  auto joiner_b = rb.parts[0].subset({0, 1, 2, 3, 4, 5});
  fl::FlConfig cfg = fast_cfg();

  fl::Engine resident(ra.global, ra.parts, ra.test, cfg);
  fl::Engine populated(rb.global, make_population(rb.parts), rb.test, cfg);

  const auto scenario = [](const fl::Engine& e, data::Dataset joiner) {
    fl::Scenario s = e.sync_scenario(3, /*local_accuracy=*/false);
    s.joins.push_back({1.5, std::move(joiner)});
    s.label_flips.push_back({1.5, 1});
    s.leaves.push_back({2.5, 2});
    return s;
  };
  const auto a = resident.collect(scenario(resident, std::move(joiner_a)));
  const auto b = populated.collect(scenario(populated, std::move(joiner_b)));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::memcmp(&a[i].global_accuracy, &b[i].global_accuracy,
                          sizeof(double)),
              0);
  EXPECT_TRUE(snapshots_bitwise_equal(resident.global_model().snapshot(),
                                      populated.global_model().snapshot()));
  // Joins are durable in both modes; the flipped dataset committed to the
  // cold store matches the resident engine's durable copy bit for bit.
  ASSERT_EQ(populated.num_clients(), resident.num_clients());
  auto* pop = populated.population();
  for (std::size_t c = 0; c < resident.num_clients(); ++c)
    EXPECT_TRUE(datasets_bitwise_equal(pop->clients.materialize(c),
                                       resident.client_data(c)))
        << "client " << c;
}


// -- DatasetSharing: a cold slot's rows and the copies taken of them --------

const float* rows_of(const data::Dataset& ds) { return ds.features.data(); }

TEST(DatasetSharing, ColdCopyKeepsRowsAfterSlotReuse) {
  Fed fed = make_fed(2, 120, 30, 1201);
  ASSERT_TRUE(fed.parts[0].features.same_shape(fed.parts[1].features));
  fl::population::ClientStateStore store;
  for (const data::Dataset& p : fed.parts) store.add(p);

  const data::Dataset kept = store.materialize(0);
  EXPECT_EQ(rows_of(kept), rows_of(store.resident_dataset(0)));
  store.release(0);
  // The same slot takes client 1; the copy still shares the old block, so
  // the decode detaches the slot first.
  const data::Dataset& m1 = store.materialize(1);
  EXPECT_NE(rows_of(m1), rows_of(kept));
  EXPECT_TRUE(datasets_bitwise_equal(kept, fed.parts[0]));
  EXPECT_TRUE(datasets_bitwise_equal(m1, fed.parts[1]));

  // With no copy outstanding the slot's block is decoded into in place:
  // steady-state turnover neither detaches nor reallocates.
  const float* slot_rows = rows_of(m1);
  store.release(1);
  const data::Dataset& m0 = store.materialize(0);
  EXPECT_EQ(rows_of(m0), slot_rows);
  EXPECT_TRUE(datasets_bitwise_equal(m0, fed.parts[0]));
}

}  // namespace
}  // namespace goldfish

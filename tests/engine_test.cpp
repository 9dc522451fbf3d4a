// The event-driven fl::Engine: config validation at construction, scenario
// timelines (joins, leaves, aggregator swaps, deletions), participation /
// buffer / clock policies, determinism across thread counts, equivalence of
// the canned bundles with explicitly assembled scenarios, and the in-flight
// set_client_data guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/unlearner.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "nn/models.h"
#include "step_result_equal.h"
#include "tensor/buffer_pool.h"

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

// -- FlConfig validation at construction -----------------------------------

TEST(FlConfigValidation, RejectsEachBadFieldWithInvalidArgument) {
  Fed fed = make_fed(3, 120, 30, 301);
  const auto construct = [&](fl::FlConfig cfg) {
    fl::Engine eng(fed.global, fed.parts, fed.test, std::move(cfg));
  };

  construct(fast_cfg());  // the baseline config itself is valid

  // Names the registry does not know (it has no prefix syntax either).
  for (const char* name : {"geometric-median", "hier+fedavg"}) {
    fl::FlConfig bad = fast_cfg();
    bad.aggregator = name;
    EXPECT_THROW(construct(bad), std::invalid_argument) << name;
    EXPECT_THROW(fl::make_aggregator(name), CheckError) << name;
  }

  fl::FlConfig bad = fast_cfg();
  bad.robust.krum_f = -1;
  EXPECT_THROW(construct(bad), std::invalid_argument);

  bad = fast_cfg();
  bad.robust.krum_m = 0;
  EXPECT_THROW(construct(bad), std::invalid_argument);

  bad = fast_cfg();
  bad.aggregator = "krum";
  bad.robust.krum_f = 3;  // >= the 3 clients: n >= f+3 can never hold
  EXPECT_THROW(construct(bad), std::invalid_argument);

  bad = fast_cfg();  // ...but a krum_f the federation can satisfy is fine
  bad.aggregator = "krum";
  bad.robust.krum_f = 0;
  construct(bad);

  bad = fast_cfg();
  bad.robust.trim_fraction = 0.5;  // trims everything
  EXPECT_THROW(construct(bad), std::invalid_argument);

  bad = fast_cfg();
  bad.robust.trim_fraction = -0.1;
  EXPECT_THROW(construct(bad), std::invalid_argument);

  bad = fast_cfg();
  bad.robust.clip_norm = 0.0;
  EXPECT_THROW(construct(bad), std::invalid_argument);

  bad = fast_cfg();
  bad.robust.clip_norm = -2.0;
  EXPECT_THROW(construct(bad), std::invalid_argument);

  bad = fast_cfg();
  bad.async.buffer_size = 4;  // > 3 clients: the buffer could never fill
  EXPECT_THROW(construct(bad), std::invalid_argument);

  bad = fast_cfg();
  bad.async.buffer_size = -1;
  EXPECT_THROW(construct(bad), std::invalid_argument);

  bad = fast_cfg();
  bad.async.staleness_alpha = -0.5;
  EXPECT_THROW(construct(bad), std::invalid_argument);

  bad = fast_cfg();
  bad.async.mean_duration = -1.0;
  EXPECT_THROW(construct(bad), std::invalid_argument);

  bad = fast_cfg();
  bad.async.mean_duration = 0.0;  // zero would freeze the virtual clock
  EXPECT_THROW(construct(bad), std::invalid_argument);

  bad = fast_cfg();
  bad.async.duration_log_jitter = -0.25;
  EXPECT_THROW(construct(bad), std::invalid_argument);
}

TEST(FlConfigValidation, MessagesNameTheField) {
  Fed fed = make_fed(2, 80, 30, 303);
  fl::FlConfig bad = fast_cfg();
  bad.aggregator = "geometric-median";
  try {
    fl::Engine eng(fed.global, fed.parts, fed.test, bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("geometric-median"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("aggregator"), std::string::npos);
  }

  bad = fast_cfg();
  bad.robust.trim_fraction = 0.75;
  try {
    fl::Engine eng(fed.global, fed.parts, fed.test, bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("trim_fraction"), std::string::npos);
  }
}

// -- the in-flight mutation guard ------------------------------------------

TEST(EngineGuards, SetClientDataRejectedWhileRunInFlight) {
  Fed fed = make_fed(2, 100, 30, 305);
  fl::Engine eng(fed.global, fed.parts, fed.test, fast_cfg());
  data::Dataset replacement = fed.parts[0].subset({0, 1, 2});

  // From inside a client update the run is in flight by definition; the
  // mutation must be rejected (it could race another client's training
  // task) instead of silently corrupting the round.
  std::atomic<int> rejected{0};
  eng.set_client_update([&](std::size_t cid, nn::Model& model,
                            const data::Dataset& ds, long round) {
    try {
      eng.set_client_data(0, replacement);
    } catch (const std::logic_error&) {
      rejected.fetch_add(1);
    }
    fl::TrainOptions opts;
    opts.epochs = 1;
    opts.batch_size = 50;
    opts.lr = 0.05f;
    opts.seed = mix_seed(7, cid, static_cast<std::uint64_t>(round));
    fl::train_local(model, ds, opts);
  });
  eng.run(eng.sync_scenario(1), {});
  EXPECT_EQ(rejected.load(), 2);  // both clients hit the guard
  EXPECT_EQ(eng.client_data(0).size(), fed.parts[0].size());  // untouched

  // Outside a run the setter works as before.
  EXPECT_FALSE(eng.running());
  eng.set_client_data(0, replacement);
  EXPECT_EQ(eng.client_data(0).size(), 3);
}

// -- participation policies ------------------------------------------------

// The canned async bundle and an explicitly-assembled full-participation
// scenario must be the same computation, bit for bit: the legacy golden
// stream is reproduced by the policy form.
TEST(Participation, FullPolicyReproducesRunAsyncGoldenStream) {
  fl::FlConfig cfg = fast_cfg();
  cfg.async.buffer_size = 2;
  cfg.async.duration_log_jitter = 0.5;
  cfg.async.staleness_alpha = 0.5;

  Fed fed_a = make_fed(4, 240, 60, 307);
  fl::Engine legacy(fed_a.global, fed_a.parts, fed_a.test, cfg);
  const auto want = legacy.collect(legacy.async_scenario(5));

  Fed fed_b = make_fed(4, 240, 60, 307);
  fl::Engine eng(fed_b.global, fed_b.parts, fed_b.test, cfg);
  fl::Scenario s;
  s.aggregations = 5;
  s.participation = std::make_unique<fl::FullParticipation>();
  s.buffer = std::make_unique<fl::FixedBuffer>(cfg.async.buffer_size);
  s.clock = std::make_unique<fl::VirtualClock>(
      cfg.seed, cfg.async.mean_duration, cfg.async.duration_log_jitter);
  s.staleness_alpha = cfg.async.staleness_alpha;
  const auto got = eng.collect(std::move(s));

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(bits_equal(got[i].global_accuracy, want[i].global_accuracy));
    EXPECT_TRUE(bits_equal(got[i].virtual_time, want[i].virtual_time));
    EXPECT_TRUE(bits_equal(got[i].mean_staleness, want[i].mean_staleness));
    EXPECT_EQ(got[i].max_staleness, want[i].max_staleness);
    EXPECT_EQ(got[i].updates_consumed, want[i].updates_consumed);
    EXPECT_EQ(got[i].dropped_updates, want[i].dropped_updates);
    EXPECT_EQ(got[i].bytes_uplinked, want[i].bytes_uplinked);
    EXPECT_EQ(got[i].aggregator, "fedavg+staleness");
  }
  EXPECT_TRUE(snapshots_bitwise_equal(legacy.global_model().snapshot(),
                                      eng.global_model().snapshot()));
}

// Seeded uniform sampling: the cohort of each server version is a pure
// function of (seed, client, version), so the whole run is bit-identical at
// 1, 2 and 8 threads — and an empty cohort can never stall the server.
TEST(Participation, SampledDeterministicAcrossThreadCounts) {
  std::vector<std::vector<Tensor>> finals;
  std::vector<std::vector<fl::StepResult>> results;
  for (std::size_t threads : {1u, 2u, 8u}) {
    Fed fed = make_fed(4, 240, 60, 311);
    fl::FlConfig cfg = fast_cfg();
    cfg.threads = threads;
    cfg.async.buffer_size = 2;
    cfg.async.duration_log_jitter = 0.5;
    fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
    fl::Scenario s = eng.async_scenario(6);
    s.participation = std::make_unique<fl::SampledParticipation>(0.5, 99);
    results.push_back(eng.collect(std::move(s)));
    finals.push_back(eng.global_model().snapshot());
  }
  ASSERT_EQ(results[0].size(), 6u);
  for (std::size_t i = 1; i < finals.size(); ++i) {
    EXPECT_TRUE(snapshots_bitwise_equal(finals[0], finals[i]));
    ASSERT_EQ(results[0].size(), results[i].size());
    for (std::size_t a = 0; a < results[0].size(); ++a) {
      EXPECT_TRUE(bits_equal(results[0][a].global_accuracy,
                             results[i][a].global_accuracy));
      EXPECT_TRUE(bits_equal(results[0][a].virtual_time,
                             results[i][a].virtual_time));
      EXPECT_TRUE(bits_equal(results[0][a].mean_staleness,
                             results[i][a].mean_staleness));
      EXPECT_EQ(results[0][a].bytes_uplinked, results[i][a].bytes_uplinked);
    }
  }
}

// Every server regime is bit-identical at 1, 2 and 8 threads: synchronous
// barrier rounds, sampled async rounds with staleness decay under the
// adaptive (MSE-scored) aggregator, and async rounds under a robust one.
TEST(EngineDeterminism, BitIdenticalAcrossThreadCounts) {
  struct Config {
    const char* aggregator;
    bool sampled;
    double jitter;
    double alpha;
    long buffer;
  };
  const Config configs[] = {
      {"fedavg", false, 0.0, 0.0, 0},    // synchronous barrier rounds
      {"adaptive", true, 0.25, 0.5, 3},  // sampled + async + staleness
      {"krum", false, 0.25, 0.5, 5},     // robust, async
  };
  for (const Config& c : configs) {
    std::vector<std::vector<Tensor>> finals;
    std::vector<std::vector<fl::StepResult>> results;
    for (std::size_t threads : {1u, 2u, 8u}) {
      Fed fed = make_fed(6, 180, 40, 1401);
      fl::FlConfig cfg = fast_cfg();
      cfg.threads = threads;
      cfg.aggregator = c.aggregator;
      cfg.async.buffer_size = c.buffer;
      cfg.async.staleness_alpha = c.alpha;
      cfg.async.duration_log_jitter = c.jitter;
      fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
      fl::Scenario s = eng.async_scenario(4);
      if (c.sampled)
        s.participation = std::make_unique<fl::SampledParticipation>(0.7, 99);
      results.push_back(eng.collect(std::move(s)));
      finals.push_back(eng.global_model().snapshot());
    }
    ASSERT_EQ(results[0].size(), 4u) << c.aggregator;
    for (std::size_t i = 1; i < finals.size(); ++i) {
      EXPECT_TRUE(snapshots_bitwise_equal(finals[0], finals[i]))
          << c.aggregator << " run " << i;
      ASSERT_EQ(results[0].size(), results[i].size());
      for (std::size_t a = 0; a < results[0].size(); ++a) {
        EXPECT_TRUE(bits_equal(results[0][a].global_accuracy,
                               results[i][a].global_accuracy));
        EXPECT_EQ(results[0][a].updates_consumed,
                  results[i][a].updates_consumed);
      }
    }
  }
}

// The sampling policy is a pure function of (seed, client, version): stable
// under repetition, exhaustive at fraction 1, genuinely thinning below it.
TEST(Participation, SampledPolicyIsAPureSeededFunction) {
  fl::SampledParticipation all(1.0, 7);
  fl::SampledParticipation half(0.5, 7);
  long admitted = 0;
  for (std::size_t c = 0; c < 16; ++c)
    for (long v = 0; v < 16; ++v) {
      EXPECT_TRUE(all.participates(c, v, 0.0));
      const bool first = half.participates(c, v, 0.0);
      EXPECT_EQ(first, half.participates(c, v, 123.0));  // time-independent
      if (first) ++admitted;
    }
  // ~Binomial(256, 0.5): far from both degenerate cohorts.
  EXPECT_GT(admitted, 64);
  EXPECT_LT(admitted, 192);
  // Refusals wait for the next version, not a timed retry.
  EXPECT_LT(half.retry_at(0, 0, 1.0), 0.0);
}

// Sampling must actually change who trains: against full participation on
// an identical federation, the thinned run executes a different set of
// (client, round) training tasks.
TEST(Participation, SamplingThinsTheCohorts) {
  const auto trained_set = [](double fraction) {
    Fed fed = make_fed(4, 200, 50, 313);
    fl::FlConfig cfg = fast_cfg();
    cfg.async.buffer_size = 2;
    cfg.async.duration_log_jitter = 0.5;
    fl::Engine eng(fed.global, fed.parts, fed.test, cfg);

    std::mutex mu;
    std::set<std::pair<std::size_t, long>> tasks;
    eng.set_client_update([&](std::size_t cid, nn::Model& model,
                              const data::Dataset& ds, long round) {
      {
        std::lock_guard<std::mutex> lock(mu);
        tasks.insert({cid, round});
      }
      fl::TrainOptions opts;
      opts.epochs = 1;
      opts.batch_size = 50;
      opts.lr = 0.05f;
      opts.seed = mix_seed(7, cid, static_cast<std::uint64_t>(round));
      fl::train_local(model, ds, opts);
    });

    fl::Scenario s = eng.async_scenario(4);
    if (fraction < 1.0)
      s.participation =
          std::make_unique<fl::SampledParticipation>(fraction, 5);
    const auto steps = eng.collect(std::move(s));
    EXPECT_EQ(steps.size(), 4u);
    return tasks;
  };

  const auto full = trained_set(1.0);
  const auto thinned = trained_set(0.4);
  EXPECT_FALSE(thinned.empty());
  EXPECT_NE(full, thinned);  // the policy reshaped the training schedule
}

// Availability windows park clients off-window and wake them at the next
// window start; the schedule stays deterministic across thread counts.
TEST(Participation, AvailabilityWindowsDeterministic) {
  std::vector<std::vector<Tensor>> finals;
  for (std::size_t threads : {1u, 2u}) {
    Fed fed = make_fed(3, 150, 40, 317);
    fl::FlConfig cfg = fast_cfg();
    cfg.threads = threads;
    cfg.async.buffer_size = 2;
    cfg.async.duration_log_jitter = 0.25;
    fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
    fl::Scenario s = eng.async_scenario(4);
    s.participation =
        std::make_unique<fl::AvailabilityWindows>(10.0, 0.4, 3.0);
    const auto steps = eng.collect(std::move(s));
    ASSERT_EQ(steps.size(), 4u);
    for (std::size_t i = 1; i < steps.size(); ++i)
      EXPECT_GE(steps[i].virtual_time, steps[i - 1].virtual_time);
    finals.push_back(eng.global_model().snapshot());
  }
  EXPECT_TRUE(snapshots_bitwise_equal(finals[0], finals[1]));
}

// -- buffer policies -------------------------------------------------------

// AdaptiveBuffer reacts to observed staleness within its clamp range; the
// policy itself is exercised directly for the exact growth/shrink rule.
TEST(BufferPolicy, AdaptiveGrowsOnStaleShrinksOnFresh) {
  fl::AdaptiveBuffer k(4, 2, 6, /*target_max_staleness=*/1);
  EXPECT_EQ(k.size(0, 0.0, 0, 8), 4);   // first aggregation: initial K
  EXPECT_EQ(k.size(1, 0.5, 2, 8), 5);   // overshoot: grow
  EXPECT_EQ(k.size(2, 1.0, 2, 8), 6);   // grow, hits max
  EXPECT_EQ(k.size(3, 2.0, 3, 8), 6);   // clamped at max
  EXPECT_EQ(k.size(4, 0.0, 0, 8), 5);   // all fresh: shrink
  EXPECT_EQ(k.size(5, 0.2, 1, 8), 5);   // within target: hold
  EXPECT_EQ(k.size(6, 0.0, 0, 8), 4);
}

TEST(BufferPolicy, AdaptiveKChangesConsumptionPerStep) {
  Fed fed = make_fed(4, 240, 60, 331);
  fl::FlConfig cfg = fast_cfg();
  cfg.async.duration_log_jitter = 1.0;  // heavy stragglers → staleness
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
  fl::Scenario s = eng.async_scenario(6);
  s.buffer = std::make_unique<fl::AdaptiveBuffer>(2, 1, 4, 0);
  const auto steps = eng.collect(std::move(s));
  ASSERT_EQ(steps.size(), 6u);
  std::set<long> sizes;
  for (const auto& st : steps) {
    EXPECT_GE(st.updates_consumed, 1);
    EXPECT_LE(st.updates_consumed, 4);
    sizes.insert(st.updates_consumed);
  }
  EXPECT_GT(sizes.size(), 1u);  // K actually moved during the run
}

// -- clock policies --------------------------------------------------------

// TraceClock replays measured durations cyclically; the resulting timeline
// is fully hand-computable.
TEST(ClockPolicy, TraceReplayDrivesTheTimeline) {
  Fed fed = make_fed(3, 150, 40, 337);
  fl::FlConfig cfg = fast_cfg();
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
  fl::Scenario s;
  s.aggregations = 1;
  s.buffer = std::make_unique<fl::FixedBuffer>(3);
  s.clock = std::make_unique<fl::TraceClock>(
      std::vector<std::vector<double>>{{1.0}, {2.0}, {1.0, 3.0}});
  s.staleness_alpha = 0.0;
  const auto steps = eng.collect(std::move(s));
  ASSERT_EQ(steps.size(), 1u);
  // t=1: clients 0 and 2 buffer (2 of 3); t=2: client 0 laps (trace wraps
  // to 1.0) and fills the buffer before client 1's completion is consumed.
  EXPECT_TRUE(bits_equal(steps[0].virtual_time, 2.0));
  EXPECT_EQ(steps[0].updates_consumed, 3);
}

// -- scenario timeline events ----------------------------------------------

TEST(ScenarioTimeline, ClientJoinGrowsTheFederationDurably) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 341, 300, 60));
  Rng rng(342);
  auto parts = data::partition_iid(tt.train, 4, rng);
  std::vector<data::Dataset> initial(parts.begin(), parts.begin() + 3);
  nn::Model global = nn::make_mlp({1, 28, 28}, 16, 10, rng);

  fl::FlConfig cfg = fast_cfg();
  cfg.async.buffer_size = 3;
  cfg.async.duration_log_jitter = 0.0;
  fl::Engine eng(global, initial, tt.test, cfg);

  std::mutex mu;
  std::set<std::size_t> trained;
  eng.set_client_update([&](std::size_t cid, nn::Model& model,
                            const data::Dataset& ds, long round) {
    {
      std::lock_guard<std::mutex> lock(mu);
      trained.insert(cid);
    }
    fl::TrainOptions opts = cfg.local;
    opts.seed = mix_seed(cfg.seed, cid, static_cast<std::uint64_t>(round));
    fl::train_local(model, ds, opts);
  });

  fl::Scenario s = eng.async_scenario(3);
  s.joins.push_back({/*time=*/1.5, parts[3]});
  const auto steps = eng.collect(std::move(s));
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].active_clients, 3u);   // aggregated at t=1, pre-join
  EXPECT_EQ(steps.back().active_clients, 4u);
  EXPECT_TRUE(trained.count(3));            // the joiner really trained
  // Durable: the engine's federation now includes the client.
  EXPECT_EQ(eng.num_clients(), 4u);
  EXPECT_EQ(eng.client_data(3).size(), parts[3].size());
}

TEST(ScenarioTimeline, ClientLeaveVoidsInFlightAndDeactivates) {
  Fed fed = make_fed(3, 180, 40, 347);
  fl::FlConfig cfg = fast_cfg();
  cfg.async.buffer_size = 2;
  cfg.async.duration_log_jitter = 0.0;  // completions at t = 1, 2, 3, ...
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);

  fl::Scenario s = eng.async_scenario(3);
  // Client 2 leaves at t=0.5, before its first task completes: the task is
  // voided (the device is gone) and the client never trains again.
  s.leaves.push_back({0.5, 2});
  const auto steps = eng.collect(std::move(s));
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps.back().dropped_updates, 1);
  for (const auto& st : steps) EXPECT_EQ(st.active_clients, 2u);
  EXPECT_EQ(eng.active_clients(), 2u);  // durable
  EXPECT_EQ(eng.num_clients(), 3u);  // still registered, data kept

  // Later synchronous rounds train only the two remaining clients.
  const auto r = eng.collect(eng.sync_scenario(1)).back();
  EXPECT_GT(r.global_accuracy, 0.0);
  EXPECT_EQ(eng.active_clients(), 2u);
}

TEST(ScenarioTimeline, ActiveCountSurvivesRepeatedLeaves) {
  // The engine maintains its active-client count instead of recounting it:
  // a leave counts only when it deactivates an active client. Pinned
  // against a recount of the test's own model of the active set, over two
  // leaves of one client in a single run, a leave of a client that departed
  // in an earlier run, a join followed by the joiner's own leave, and a
  // leave past the run's horizon.
  Fed fed = make_fed(6, 240, 40, 359);
  fl::FlConfig cfg = fast_cfg();
  cfg.async.buffer_size = 2;
  cfg.async.duration_log_jitter = 0.25;
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);

  struct Change {
    double time;
    std::size_t client;  ///< a join's: the id it is assigned
    bool join;
  };
  std::vector<bool> active(6, true);  // durable state before the run
  // The active set after every change at or before `until` (changes are
  // listed in time order; events apply before completions at equal times).
  const auto model = [&](const std::vector<Change>& changes, double until) {
    std::vector<bool> a = active;
    for (const Change& ch : changes) {
      if (ch.time > until) continue;
      if (ch.join) {
        EXPECT_EQ(a.size(), ch.client);
        a.push_back(true);
      } else {
        a[ch.client] = false;
      }
    }
    return a;
  };
  const auto recount = [](const std::vector<bool>& a) {
    return static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  };
  const auto run = [&](long aggs, const std::vector<Change>& changes) {
    fl::Scenario s = eng.async_scenario(aggs);
    for (const Change& ch : changes) {
      if (ch.join)
        s.joins.push_back({ch.time, fed.parts[0].subset({0, 1, 2, 3, 4, 5})});
      else
        s.leaves.push_back({ch.time, ch.client});
    }
    const auto steps = eng.collect(std::move(s));
    ASSERT_EQ(steps.size(), static_cast<std::size_t>(aggs));
    for (const auto& st : steps)
      EXPECT_EQ(st.active_clients, recount(model(changes, st.virtual_time)))
          << "step " << st.step << " at t=" << st.virtual_time;
    active = model(changes, std::numeric_limits<double>::infinity());
    EXPECT_EQ(eng.active_clients(), recount(active));
  };

  run(3, {{0.5, 2, false}});
  ASSERT_EQ(eng.active_clients(), 5u);
  run(8, {{0.6, 1, false},
          {0.9, 2, false},  // departed in the previous run
          {1.1, 6, true},
          {1.4, 1, false},  // client 1's second leave this run
          {2.2, 6, false},  // the joiner leaves again
          {100.0, 0, false}});  // past the horizon: durable all the same
  EXPECT_EQ(eng.num_clients(), 7u);
  EXPECT_EQ(eng.active_clients(), 3u);
}

TEST(ScenarioTimeline, AggregatorSwapTakesEffectMidRun) {
  // Unequal client sizes so fedavg and uniform genuinely differ.
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 351, 300, 60));
  Rng rng(352);
  std::vector<std::size_t> big, small;
  for (std::size_t i = 0; i < 200; ++i) big.push_back(i);
  for (std::size_t i = 200; i < 280; ++i) small.push_back(i);
  std::vector<data::Dataset> clients = {tt.train.subset(big),
                                        tt.train.subset(small)};
  nn::Model global = nn::make_mlp({1, 28, 28}, 16, 10, rng);

  fl::FlConfig cfg = fast_cfg();
  cfg.aggregator = "fedavg";

  const auto run_with = [&](bool swap) {
    fl::Engine eng(global, clients, tt.test, cfg);
    fl::Scenario s = eng.sync_scenario(3, /*local_accuracy=*/false);
    if (swap) s.aggregator_swaps.push_back({1.5, "uniform"});
    auto steps = eng.collect(std::move(s));
    return std::make_pair(std::move(steps), eng.global_model().snapshot());
  };

  const auto [plain, plain_final] = run_with(false);
  const auto [swapped, swapped_final] = run_with(true);
  ASSERT_EQ(swapped.size(), 3u);
  EXPECT_EQ(swapped[0].aggregator, "fedavg");   // round at t=1: pre-swap
  EXPECT_EQ(swapped[1].aggregator, "uniform");  // t=2 ≥ 1.5: swapped
  EXPECT_EQ(swapped[2].aggregator, "uniform");
  EXPECT_EQ(plain[1].aggregator, "fedavg");
  // Identical first round, diverged afterwards.
  EXPECT_TRUE(
      bits_equal(plain[0].global_accuracy, swapped[0].global_accuracy));
  EXPECT_FALSE(snapshots_bitwise_equal(plain_final, swapped_final));
}

TEST(ScenarioTimeline, RejectsMalformedEvents) {
  Fed fed = make_fed(2, 100, 30, 353);
  fl::Engine eng(fed.global, fed.parts, fed.test, fast_cfg());
  {
    fl::Scenario s = eng.async_scenario(1);
    s.leaves.push_back({0.5, 7});  // unknown client
    EXPECT_THROW(eng.collect(std::move(s)), CheckError);
  }
  {
    fl::Scenario s = eng.async_scenario(1);
    s.joins.push_back({0.5, data::Dataset{}});  // empty dataset
    EXPECT_THROW(eng.collect(std::move(s)), CheckError);
  }
  {
    fl::Scenario s = eng.async_scenario(1);
    s.aggregator_swaps.push_back({0.5, "geometric-median"});  // unknown
    EXPECT_THROW(eng.collect(std::move(s)), CheckError);
  }
  {
    fl::Scenario s = eng.async_scenario(-1);
    EXPECT_THROW(eng.collect(std::move(s)), CheckError);
  }
}

TEST(ScenarioTimeline, EachRejectedEventKindThrowsAndLeavesEngineFresh) {
  // One scenario per way an event can be malformed. Each run must throw a
  // CheckError naming the fault, and leave the engine as a fresh one: no
  // client added or removed, no RNG round consumed.
  Fed fed = make_fed(2, 100, 30, 354);
  const data::Dataset rows = fed.parts[0].subset({0, 1, 2});
  fl::BackdoorInjectEvent backdoor;
  backdoor.time = 0.5;
  backdoor.fraction = 0.5f;
  fl::AuditEvent audit;
  audit.time = 0.5;
  audit.probe = rows;
  struct Case {
    const char* name;
    std::function<void(fl::Scenario&)> edit;
    const char* message;
  };
  const std::vector<Case> cases = {
      {"negative horizon", [&](fl::Scenario& s) { s.aggregations = -1; },
       "negative aggregation count"},
      {"deletion, unknown client",
       [&](fl::Scenario& s) { s.deletions.push_back({0.5, 7, rows}); },
       "deletion for unknown client"},
      {"leave, unknown client",
       [&](fl::Scenario& s) { s.leaves.push_back({0.5, 7}); },
       "leave event for unknown client"},
      {"flip, unknown client",
       [&](fl::Scenario& s) { s.label_flips.push_back({0.5, 7}); },
       "label flip for unknown client"},
      {"backdoor, unknown client",
       [&](fl::Scenario& s) {
         s.backdoors.push_back(backdoor);
         s.backdoors.back().client = 7;
       },
       "backdoor injection for unknown client"},
      {"target not joined yet",
       [&](fl::Scenario& s) {
         s.joins.push_back({2.0, rows});
         s.deletions.push_back({1.0, 2, rows});
       },
       "has not joined yet"},
      {"repeated deletion",
       [&](fl::Scenario& s) {
         s.deletions.push_back({0.5, 1, rows});
         s.deletions.push_back({0.75, 1, rows});
       },
       "multiple deletions for one client"},
      {"empty deletion payload",
       [&](fl::Scenario& s) {
         s.deletions.push_back({0.5, 0, data::Dataset{}});
       },
       "deletion would leave a client without data"},
      {"empty join payload",
       [&](fl::Scenario& s) { s.joins.push_back({0.5, data::Dataset{}}); },
       "joining client needs data"},
      {"backdoor fraction 0",
       [&](fl::Scenario& s) {
         s.backdoors.push_back(backdoor);
         s.backdoors.back().fraction = 0.0f;
       },
       "backdoor fraction must be in (0, 1]"},
      {"backdoor fraction above 1",
       [&](fl::Scenario& s) {
         s.backdoors.push_back(backdoor);
         s.backdoors.back().fraction = 1.5f;
       },
       "backdoor fraction must be in (0, 1]"},
      {"empty audit probe",
       [&](fl::Scenario& s) {
         s.audits.push_back(audit);
         s.audits.back().probe = data::Dataset{};
       },
       "audit needs a trigger probe set"},
      {"members without nonmembers",
       [&](fl::Scenario& s) {
         s.audits.push_back(audit);
         s.audits.back().members = rows;
       },
       "audit member and nonmember sets come together"},
      {"unknown swap name",
       [&](fl::Scenario& s) {
         s.aggregator_swaps.push_back({0.5, "geometric-median"});
       },
       "unknown aggregator: geometric-median"},
      {"sybil burst of 0",
       [&](fl::Scenario& s) {
         fl::SybilJoinEvent ev;
         ev.time = 0.5;
         ev.dataset = rows;
         s.sybil_joins.push_back(std::move(ev));
       },
       "sybil burst needs count >= 1"},
  };
  fl::Engine eng(fed.global, fed.parts, fed.test, fast_cfg());
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    fl::Scenario s = eng.async_scenario(2);
    c.edit(s);
    try {
      eng.collect(std::move(s));
      ADD_FAILURE() << "no exception";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(eng.running());
    EXPECT_EQ(eng.num_clients(), 2u);
    EXPECT_EQ(eng.active_clients(), 2u);
    EXPECT_EQ(eng.rounds_completed(), 0);
  }
}

// -- composed scenarios: sampling × adaptive K × mid-run deletion ----------

fl::Scenario combo_scenario(fl::Engine& eng, long aggs, double fraction,
                            std::vector<fl::DeletionEvent> deletions) {
  fl::Scenario s = eng.async_scenario(aggs, std::move(deletions));
  s.participation = std::make_unique<fl::SampledParticipation>(fraction, 42);
  s.buffer = std::make_unique<fl::AdaptiveBuffer>(2, 1, 3, 1);
  return s;
}

TEST(ComposedScenarios, SamplingAdaptiveKDeletionDeterministic) {
  std::vector<std::vector<Tensor>> finals;
  std::vector<std::vector<fl::StepResult>> results;
  for (std::size_t threads : {1u, 2u, 8u}) {
    Fed fed = make_fed(4, 240, 60, 359);
    fl::FlConfig cfg = fast_cfg();
    cfg.threads = threads;
    cfg.async.duration_log_jitter = 0.5;
    fl::Engine eng(fed.global, fed.parts, fed.test, cfg);

    core::UnlearnRequest req;
    req.client_id = 1;
    req.rows = {0, 1, 2, 3};
    auto plan = core::make_async_deletion(eng, req, 1.25);
    std::vector<fl::DeletionEvent> dels;
    dels.push_back(std::move(plan.event));

    results.push_back(
        eng.collect(combo_scenario(eng, 5, 0.75, std::move(dels))));
    finals.push_back(eng.global_model().snapshot());
    EXPECT_EQ(eng.client_data(1).size(), fed.parts[1].size() - 4);
  }
  ASSERT_EQ(results[0].size(), 5u);
  for (std::size_t i = 1; i < finals.size(); ++i) {
    EXPECT_TRUE(snapshots_bitwise_equal(finals[0], finals[i]));
    for (std::size_t a = 0; a < results[0].size(); ++a) {
      EXPECT_TRUE(bits_equal(results[0][a].global_accuracy,
                             results[i][a].global_accuracy));
      EXPECT_TRUE(bits_equal(results[0][a].virtual_time,
                             results[i][a].virtual_time));
      EXPECT_EQ(results[0][a].updates_consumed,
                results[i][a].updates_consumed);
      EXPECT_EQ(results[0][a].dropped_updates, results[i][a].dropped_updates);
    }
  }
}

// Three distinct combinations of the new policy axes all run to completion
// deterministically (same engine, sequential scenarios, fresh policies).
TEST(ComposedScenarios, PolicyAxesComposeFreely) {
  Fed fed = make_fed(4, 240, 60, 367);
  fl::FlConfig cfg = fast_cfg();
  cfg.async.duration_log_jitter = 0.5;
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);

  // 1: sampling × fixed K.
  {
    fl::Scenario s = eng.async_scenario(3);
    s.participation = std::make_unique<fl::SampledParticipation>(0.6, 11);
    s.buffer = std::make_unique<fl::FixedBuffer>(2);
    ASSERT_EQ(eng.collect(std::move(s)).size(), 3u);
  }
  // 2: full participation × adaptive K × deletion.
  {
    core::UnlearnRequest req;
    req.client_id = 0;
    req.rows = {0, 1};
    auto plan = core::make_async_deletion(eng, req, 0.75);
    fl::Scenario s = eng.async_scenario(3);
    s.buffer = std::make_unique<fl::AdaptiveBuffer>(3, 2, 4, 1);
    s.deletions.push_back(std::move(plan.event));
    const auto steps = eng.collect(std::move(s));
    ASSERT_EQ(steps.size(), 3u);
    EXPECT_GE(steps.back().dropped_updates, 1);
  }
  // 3: sampling × adaptive K × availability-window-style trace clock.
  {
    fl::Scenario s = eng.async_scenario(3);
    s.participation = std::make_unique<fl::SampledParticipation>(0.8, 13);
    s.buffer = std::make_unique<fl::AdaptiveBuffer>(2, 1, 4, 0);
    s.clock = std::make_unique<fl::TraceClock>(
        std::vector<std::vector<double>>{{0.8, 1.3}, {1.0}, {2.1}, {0.6}});
    const auto steps = eng.collect(std::move(s));
    ASSERT_EQ(steps.size(), 3u);
  }
  // The engine survives it all and keeps serving synchronous rounds.
  const auto r = eng.collect(eng.sync_scenario(1)).back();
  EXPECT_GT(r.global_accuracy, 0.0);
}

// Steady-state composed scenarios touch the heap exactly zero times, like
// the canned rounds: policies and timelines live outside the FloatBuffer
// arena, and every tensor the run needs recycles through the pool.
TEST(ComposedScenarios, SteadyStateAllocatesNothing) {
  if (!alloc_stats::enabled())
    GTEST_SKIP() << "built without GOLDFISH_ALLOC_STATS";
  Fed fed = make_fed(3, 150, 60, 373);
  fl::FlConfig cfg = fast_cfg();
  cfg.local.batch_size = 25;
  cfg.async.duration_log_jitter = 0.5;
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);

  const auto one_run = [&] {
    return eng.collect(combo_scenario(eng, 3, 0.75, {}));
  };
  one_run();  // warm-up: pool, arenas, recycler
  one_run();
  const std::size_t before = alloc_stats::heap_allocations();
  one_run();
  EXPECT_EQ(alloc_stats::heap_allocations() - before, 0u);
}

// -- unlearning through the engine -----------------------------------------

// GoldfishUnlearner rides the same engine, so distillation rounds compose
// with buffering: an async scenario over the unlearner's engine runs the
// paper's distillation as a semi-asynchronous server, and every buffered
// step carries the distillation block its tasks reported.
TEST(UnlearnerEngine, AsyncDistillationScenarioRuns) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 379, 240, 60));
  Rng rng(380);
  auto clients = data::partition_iid(tt.train, 3, rng);
  nn::Model fresh = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  nn::Model global = fresh;
  {
    // Plain LocalTraining reports nothing: no distillation block.
    fl::FlConfig cfg = fast_cfg();
    fl::Engine eng(global, clients, tt.test, cfg);
    for (const fl::StepResult& st : eng.collect(eng.sync_scenario(2)))
      EXPECT_FALSE(st.has_distillation);
    global = eng.global_model();
  }

  core::UnlearnConfig cfg;
  cfg.distill.max_epochs = 2;
  cfg.distill.batch_size = 40;
  cfg.distill.lr = 0.05f;
  core::GoldfishUnlearner unlearner(global, fresh, clients, tt.test, cfg);
  unlearner.request_deletion({{/*client_id=*/0, {0, 1, 2, 3, 4}}});
  EXPECT_EQ(unlearner.removed_data(0).size(), 5);

  // One synchronous unlearning round through the canned bundle...
  const auto r0 = unlearner.run(1);
  ASSERT_EQ(r0.size(), 1u);
  EXPECT_TRUE(r0[0].has_distillation);
  EXPECT_GT(r0[0].epochs_run, 0);
  // ...then buffered-asynchronous distillation through the same engine.
  const long k = 2;
  fl::Engine& eng = unlearner.engine();
  fl::Scenario s = eng.async_scenario(2);
  s.buffer = std::make_unique<fl::FixedBuffer>(k);
  const auto steps = eng.collect(std::move(s));
  ASSERT_EQ(steps.size(), 2u);
  for (const auto& st : steps) {
    EXPECT_EQ(st.updates_consumed, k);
    EXPECT_GT(st.global_accuracy, 0.0);
    EXPECT_TRUE(st.has_distillation);
    EXPECT_GT(st.epochs_run, 0);
    EXPECT_LE(st.epochs_run, k * cfg.distill.max_epochs);
    EXPECT_GT(st.mean_temperature, 0.0);
  }
}

// The mean temperature averages the clients that ran a task in the round: a
// client that left in an earlier scenario runs none, and must not count as
// T = 0. Each temperature is Eq. 11 of the client's |D_r| and |D_f|, so the
// expected means are exact.
TEST(UnlearnerEngine, MeanTemperatureAveragesClientsThatRan) {
  Fed fed = make_fed(4, 240, 40, 381);
  core::UnlearnConfig cfg;
  cfg.distill.max_epochs = 1;
  cfg.distill.batch_size = 40;
  cfg.distill.lr = 0.05f;
  core::GoldfishUnlearner unlearner(fed.global, fed.global, fed.parts,
                                    fed.test, cfg);
  unlearner.request_deletion(
      {{/*client_id=*/0, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}});
  const auto temperature = [&](std::size_t c) {
    return double(cfg.distill.temperature(unlearner.remaining_data(c).size(),
                                          unlearner.removed_data(c).size()));
  };
  double all = 0.0;
  for (std::size_t c = 0; c < 4; ++c) all += temperature(c);
  EXPECT_TRUE(bits_equal(unlearner.run(1).at(0).mean_temperature, all / 4.0));

  // Client 3 leaves in a zero-aggregation scenario; the next round runs
  // clients 0..2 only.
  fl::Engine& eng = unlearner.engine();
  fl::Scenario leave;
  leave.aggregations = 0;
  leave.leaves.push_back({0.0, 3});
  eng.collect(std::move(leave));
  double ran = 0.0;
  for (std::size_t c = 0; c < 3; ++c) ran += temperature(c);
  const fl::StepResult r = unlearner.run(1).at(0);
  EXPECT_GT(r.epochs_run, 0);
  EXPECT_TRUE(bits_equal(r.mean_temperature, ran / 3.0))
      << r.mean_temperature << " vs " << ran / 3.0;
}

// Each task's report lands in its own slot and is folded in consumption
// order, so the unlearner's whole stream — distillation block included —
// and its final model are bit-identical at 1, 2 and 8 client threads.
TEST(UnlearnerEngine, StreamIsBitIdenticalAcrossThreadCounts) {
  std::vector<std::vector<fl::StepResult>> streams;
  std::vector<std::vector<Tensor>> finals;
  for (std::size_t threads : {1u, 2u, 8u}) {
    Fed fed = make_fed(4, 240, 40, 383);
    core::UnlearnConfig cfg;
    cfg.distill.max_epochs = 2;
    cfg.distill.batch_size = 40;
    cfg.distill.lr = 0.05f;
    cfg.threads = threads;
    core::GoldfishUnlearner unlearner(fed.global, fed.global, fed.parts,
                                      fed.test, cfg);
    unlearner.request_deletion({{/*client_id=*/1, {0, 1, 2, 3, 4, 5}}});
    streams.push_back(unlearner.run(3));
    finals.push_back(unlearner.global_model().snapshot());
  }
  ASSERT_EQ(streams[0].size(), 3u);
  for (const fl::StepResult& st : streams[0]) {
    EXPECT_TRUE(st.has_distillation);
    EXPECT_GT(st.epochs_run, 0);
  }
  for (std::size_t i = 1; i < streams.size(); ++i) {
    EXPECT_TRUE(snapshots_bitwise_equal(finals[0], finals[i]));
    ASSERT_EQ(streams[0].size(), streams[i].size());
    for (std::size_t a = 0; a < streams[0].size(); ++a)
      EXPECT_TRUE(steps_bitwise_equal(streams[0][a], streams[i][a]))
          << "threads index " << i << ", step " << a;
  }
}

}  // namespace
}  // namespace goldfish

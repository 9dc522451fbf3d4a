// Generated-scenario properties of Phase A (fl::plan_schedule), called
// directly — no engine, no training. The policy axes form a product set
// (every participation policy × three buffer policies × three clocks), and
// each combination runs many cheap seeded cases: a random timeline of
// deletions, joins, leaves, flips, backdoors, swaps and audits over at most
// 12 clients with 1-row datasets. A failure names the case seed, so one
// failing case can be replayed alone by generating that seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fl/schedule.h"
#include "tensor/check.h"
#include "tensor/rng.h"

namespace goldfish {
namespace {

// -- the product set of policy axes -----------------------------------------

constexpr const char* kParticipations[] = {"full", "sampled", "windows",
                                           "cohort"};
constexpr const char* kBuffers[] = {"fixed(0)", "fixed(k)", "adaptive"};
constexpr const char* kClocks[] = {"virtual(0)", "virtual(0.25)", "trace"};

struct Axes {
  int participation = 0;
  int buffer = 0;
  int clock = 0;
};

std::string describe(const Axes& a) {
  return std::string(kParticipations[a.participation]) + " × " +
         kBuffers[a.buffer] + " × " + kClocks[a.clock];
}

/// Calls fn once per combination of one option from each axis.
template <typename Fn>
void for_each_axes(Fn&& fn) {
  for (int p = 0; p < 4; ++p)
    for (int b = 0; b < 3; ++b)
      for (int c = 0; c < 3; ++c) fn(Axes{p, b, c});
}

// -- the seeded case generator ----------------------------------------------

data::Dataset one_row() {
  data::Dataset ds;
  ds.features = Tensor::zeros({1, 1});
  ds.labels = {0};
  ds.num_classes = 2;
  return ds;
}

struct Case {
  fl::Scenario s;
  std::vector<bool> active;  ///< registered clients, by id
  std::size_t active_count = 0;
};

/// A valid scenario: every client event names a client that is registered
/// or joined strictly earlier (joins apply after the other client events at
/// an equal time), at most one deletion per client, payloads non-empty.
/// The same seed always generates the same case, fresh policies included.
Case generate(std::uint64_t seed, const Axes& axes) {
  Rng rng(seed);
  const auto pick = [&](std::uint64_t n) {
    return static_cast<std::size_t>(rng.uniform_index(n));
  };
  const auto when = [&] { return 0.25 * double(pick(21)); };  // [0, 5]

  Case k;
  const std::size_t n0 = 1 + pick(8);
  k.active.assign(n0, true);
  for (std::size_t c = 0; c < n0; ++c)
    if (pick(6) == 0) k.active[c] = false;
  k.active_count = static_cast<std::size_t>(
      std::count(k.active.begin(), k.active.end(), true));

  fl::Scenario& s = k.s;
  s.aggregations = static_cast<long>(pick(7));
  const std::uint64_t policy_seed = rng.next_u64();
  switch (axes.participation) {
    case 0:
      s.participation = std::make_unique<fl::FullParticipation>();
      break;
    case 1:
      s.participation =
          std::make_unique<fl::SampledParticipation>(0.5, policy_seed);
      break;
    case 2:
      s.participation =
          std::make_unique<fl::AvailabilityWindows>(2.0, 0.5, 0.37);
      break;
    default:
      s.participation =
          std::make_unique<fl::CohortParticipation>(1 + pick(3), policy_seed);
  }
  switch (axes.buffer) {
    case 0:
      s.buffer = std::make_unique<fl::FixedBuffer>(0);
      break;
    case 1:
      s.buffer = std::make_unique<fl::FixedBuffer>(1 + long(pick(3)));
      break;
    default:
      s.buffer = std::make_unique<fl::AdaptiveBuffer>(2, 1, 4, 1);
  }
  if (axes.clock < 2) {
    s.clock = std::make_unique<fl::VirtualClock>(
        policy_seed, 1.0, axes.clock == 0 ? 0.0 : 0.25);
  } else {
    std::vector<std::vector<double>> traces(1 + pick(3));
    for (std::vector<double>& trace : traces)
      for (std::size_t i = 0, len = 1 + pick(3); i < len; ++i)
        trace.push_back(0.5 + 0.25 * double(pick(5)));
    s.clock = std::make_unique<fl::TraceClock>(std::move(traces));
  }

  // Joins take ids n0.. in (time, declaration index) order.
  for (std::size_t j = 0, joins = pick(5); j < joins; ++j)
    s.joins.push_back({when(), one_row()});
  std::vector<std::pair<double, std::size_t>> join_order;
  for (std::size_t j = 0; j < s.joins.size(); ++j)
    join_order.emplace_back(s.joins[j].time, j);
  std::sort(join_order.begin(), join_order.end());
  // A client an event at time t may name, or n0 + joins when none.
  const auto target_at = [&](double t) {
    std::size_t joined = 0;
    while (joined < join_order.size() && join_order[joined].first < t)
      ++joined;
    return pick(n0 + joined);
  };

  std::vector<bool> deleted(n0 + s.joins.size(), false);
  for (std::size_t i = 0, n = pick(4); i < n; ++i) {
    const double t = when();
    const std::size_t c = target_at(t);
    if (deleted[c]) continue;
    deleted[c] = true;
    s.deletions.push_back({t, c, one_row()});
  }
  for (std::size_t i = 0, n = pick(4); i < n; ++i) {
    const double t = when();
    s.leaves.push_back({t, target_at(t)});
  }
  for (std::size_t i = 0, n = pick(3); i < n; ++i) {
    const double t = when();
    s.label_flips.push_back({t, target_at(t)});
  }
  for (std::size_t i = 0, n = pick(3); i < n; ++i) {
    fl::BackdoorInjectEvent b;
    b.time = when();
    b.client = target_at(b.time);
    b.fraction = 0.25f * float(1 + pick(4));
    s.backdoors.push_back(std::move(b));
  }
  for (std::size_t i = 0, n = pick(3); i < n; ++i)
    s.aggregator_swaps.push_back({when(), pick(2) ? "uniform" : "median"});
  for (std::size_t i = 0, n = pick(3); i < n; ++i) {
    fl::AuditEvent a;
    a.time = when();
    a.probe = one_row();
    if (pick(2)) {
      a.members = one_row();
      a.nonmembers = one_row();
    }
    s.audits.push_back(std::move(a));
  }
  return k;
}

// -- the properties ---------------------------------------------------------

struct Outcome {
  bool planned = false;
  fl::Schedule plan;
  std::string error;  ///< the CheckError message when not planned
};

Outcome plan(const Case& k, std::vector<fl::ClientRun>& run_state) {
  Outcome out;
  try {
    out.plan = fl::plan_schedule(k.s, k.active, k.active_count, run_state);
    out.planned = true;
  } catch (const CheckError& e) {
    out.error = e.what();
  }
  return out;
}

bool same_plan(const fl::Schedule& a, const fl::Schedule& b) {
  if (a.tasks.size() != b.tasks.size() || a.aggs.size() != b.aggs.size() ||
      a.timeline.size() != b.timeline.size() || a.clients != b.clients ||
      a.rounds_consumed != b.rounds_consumed || a.join_order != b.join_order)
    return false;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const fl::Schedule::Task& x = a.tasks[i];
    const fl::Schedule::Task& y = b.tasks[i];
    if (x.client != y.client || x.slot != y.slot || x.index != y.index ||
        x.from_version != y.from_version || x.epoch != y.epoch ||
        x.finish != y.finish || x.staleness != y.staleness ||
        x.consumed_by != y.consumed_by)
      return false;
  }
  for (std::size_t i = 0; i < a.aggs.size(); ++i) {
    const fl::Schedule::Agg& x = a.aggs[i];
    const fl::Schedule::Agg& y = b.aggs[i];
    if (x.time != y.time || x.tasks != y.tasks ||
        x.dropped_so_far != y.dropped_so_far ||
        x.aggregator != y.aggregator || x.audit != y.audit ||
        x.active_clients != y.active_clients)
      return false;
  }
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    const fl::TimelineRef& x = a.timeline[i];
    const fl::TimelineRef& y = b.timeline[i];
    if (x.time != y.time || x.kind != y.kind || x.index != y.index ||
        x.slot != y.slot)
      return false;
  }
  return true;
}

/// What the harness saw across all cases: every property must have had
/// something to bite on, or the generator has drifted into vacuity.
struct Coverage {
  long planned = 0;
  long stalled = 0;
  long consumed = 0;
  long voided = 0;  ///< tasks a deletion or leave kept out of every agg
};

/// Checks every property on one case; returns the first violation, or an
/// empty string.
std::string check_case(std::uint64_t seed, const Axes& axes,
                       Coverage& cov) {
  std::ostringstream why;
  const Case first = generate(seed, axes);
  std::vector<fl::ClientRun> run_state;
  const Outcome a = plan(first, run_state);
  for (const fl::ClientRun& e : run_state)
    if (e.slot != -1 || e.next_index != 0 || e.epoch != 0 || e.in_flight ||
        e.poisoned || e.parked || e.left || e.deleted)
      return "run_state entry left touched";

  // Deterministic: fresh policies, fresh run state, the same plan.
  const Case again = generate(seed, axes);
  std::vector<fl::ClientRun> fresh_state;
  const Outcome b = plan(again, fresh_state);
  if (a.planned != b.planned || a.error != b.error ||
      (a.planned && !same_plan(a.plan, b.plan)))
    return "planning twice gave different plans";

  // Active clients: a recount of the joins and leaves applied by `time`
  // (events apply before completions at that time).
  const fl::Scenario& s = first.s;
  std::vector<fl::TimelineRef> events;
  for (std::size_t i = 0; i < s.joins.size(); ++i)
    events.push_back({s.joins[i].time, fl::TimelineRef::kJoin, i});
  for (std::size_t i = 0; i < s.leaves.size(); ++i)
    events.push_back({s.leaves[i].time, fl::TimelineRef::kLeave, i});
  std::sort(events.begin(), events.end(),
            [](const fl::TimelineRef& x, const fl::TimelineRef& y) {
              if (x.time != y.time) return x.time < y.time;
              if (x.kind != y.kind) return x.kind < y.kind;
              return x.index < y.index;
            });
  const auto active_at = [&](double time) {
    std::vector<bool> on = first.active;
    for (const fl::TimelineRef& ev : events) {
      if (ev.time > time) break;
      if (ev.kind == fl::TimelineRef::kJoin)
        on.push_back(true);
      else
        on[s.leaves[ev.index].client] = false;
    }
    return static_cast<std::size_t>(std::count(on.begin(), on.end(), true));
  };

  // Ends with the horizon's aggregations, or stalls — nothing else throws
  // on a valid scenario. A stall happens only once every event has applied
  // (events come first), and only with no active client left to re-admit.
  if (!a.planned) {
    if (a.error.find("scenario stalled") == std::string::npos)
      return "unexpected error: " + a.error;
    constexpr double kEnd = std::numeric_limits<double>::infinity();
    if (active_at(kEnd) != 0)
      return "stalled with " + std::to_string(active_at(kEnd)) +
             " active clients";
    ++cov.stalled;
    return "";
  }
  ++cov.planned;
  const fl::Schedule& p = a.plan;
  if (static_cast<long>(p.aggs.size()) != s.aggregations)
    return "planned " + std::to_string(p.aggs.size()) + " of " +
           std::to_string(s.aggregations) + " aggregations";
  // Every event applies, also past the horizon: joins take their ids in
  // (time, declaration index) order.
  std::vector<std::size_t> join_order;
  for (const fl::TimelineRef& ev : events)
    if (ev.kind == fl::TimelineRef::kJoin) join_order.push_back(ev.index);
  if (p.join_order != join_order) return "joins applied out of order";
  for (std::size_t g = 0; g < p.aggs.size(); ++g) {
    const std::size_t recount = active_at(p.aggs[g].time);
    if (p.aggs[g].active_clients != recount) {
      why << "agg " << g << " reports " << p.aggs[g].active_clients
          << " active clients, recount " << recount;
      return why.str();
    }
  }

  // Per task. Its start is recomputed from the clock, so an event within
  // rounding distance of the start is ambiguous and skipped.
  fl::ClockPolicy& clock = *again.s.clock;
  constexpr double kEps = 1e-9;
  for (std::size_t id = 0; id < p.tasks.size(); ++id) {
    const fl::Schedule::Task& t = p.tasks[id];
    const double start = t.finish - clock.duration(t.client, t.index);
    // A departed client never starts another task.
    for (const fl::ClientLeaveEvent& l : s.leaves)
      if (l.client == t.client && l.time < start - kEps) {
        why << "task " << id << " of client " << t.client << " starts at "
            << start << " after its leave at " << l.time;
        return why.str();
      }
    // The dataset it trains on: one epoch per deletion, flip or backdoor
    // of its client before its start.
    int mutations = 0;
    bool ambiguous = false;
    const auto mutation = [&](std::size_t c, double time) {
      if (c != t.client) return;
      if (std::abs(time - start) <= kEps) ambiguous = true;
      if (time < start - kEps) ++mutations;
    };
    for (const fl::DeletionEvent& d : s.deletions) mutation(d.client, d.time);
    for (const fl::LabelFlipEvent& f : s.label_flips)
      mutation(f.client, f.time);
    for (const fl::BackdoorInjectEvent& bd : s.backdoors)
      mutation(bd.client, bd.time);
    if (!ambiguous && t.epoch != mutations) {
      why << "task " << id << " trains on epoch " << t.epoch << ", but "
          << mutations << " data mutations precede its start";
      return why.str();
    }

    bool void_window = false;
    const double consumed_at =
        t.consumed_by >= 0
            ? p.aggs[static_cast<std::size_t>(t.consumed_by)].time
            : t.finish;
    // A deletion voids the task in flight and evicts it from the buffer; a
    // leave voids it only in flight.
    for (const fl::DeletionEvent& d : s.deletions)
      if (d.client == t.client && d.time > start + kEps &&
          d.time <= consumed_at)
        void_window = true;
    for (const fl::ClientLeaveEvent& l : s.leaves)
      if (l.client == t.client && l.time > start + kEps &&
          l.time <= t.finish)
        void_window = true;
    if (t.consumed_by < 0) {
      cov.voided += void_window;
      continue;
    }
    ++cov.consumed;
    if (void_window) {
      why << "task " << id << " of client " << t.client << " (" << start
          << ", " << t.finish << "] is consumed despite a deletion or leave "
          << "inside its window";
      return why.str();
    }
    if (t.from_version > t.consumed_by) {
      why << "task " << id << " downloads version " << t.from_version
          << " but feeds aggregation " << t.consumed_by;
      return why.str();
    }
    if (t.staleness != t.consumed_by - t.from_version) {
      why << "task " << id << " staleness " << t.staleness << " != "
          << t.consumed_by << " - " << t.from_version;
      return why.str();
    }
  }
  return "";
}

TEST(SchedulePlanner, GeneratedScenariosKeepInvariants) {
  constexpr long kCasesPerAxes = 300;  // × 36 combinations ≥ 10^4 cases
  Coverage cov;
  long cases = 0;
  for_each_axes([&](const Axes& axes) {
    const std::uint64_t base =
        mix_seed(0x5C4ED01EULL, static_cast<std::uint64_t>(axes.participation),
                 static_cast<std::uint64_t>(axes.buffer * 3 + axes.clock));
    for (long i = 0; i < kCasesPerAxes; ++i, ++cases) {
      const std::uint64_t seed = base + static_cast<std::uint64_t>(i);
      const std::string failure = check_case(seed, axes, cov);
      if (!failure.empty()) {
        FAIL() << "case seed " << seed << " (" << describe(axes)
               << "): " << failure;
      }
    }
  });
  EXPECT_GE(cases, 10000);
  // Every property had cases to bite on.
  EXPECT_GT(cov.planned, cases / 2);
  EXPECT_GT(cov.stalled, 0);
  EXPECT_GT(cov.consumed, cases);
  EXPECT_GT(cov.voided, 0);
}

}  // namespace
}  // namespace goldfish

#include "fl/schedule.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <tuple>
#include <utility>

#include "tensor/check.h"

namespace goldfish::fl {

namespace {

/// Merge every scenario event onto one timeline, ordered (time, kind,
/// declaration index). Phase A applies it in this order, and the engine's
/// dataset-epoch materialization replays the cached copy, so data mutations
/// land in exactly the order the schedule applied them. Sybil bursts never
/// appear here — Engine::run expands them into ordinary joins first.
std::vector<TimelineRef> merged_timeline(const Scenario& s) {
  std::vector<TimelineRef> timeline;
  const auto add = [&](int kind, const auto& events) {
    for (std::size_t i = 0; i < events.size(); ++i)
      timeline.push_back({events[i].time, kind, i});
  };
  add(TimelineRef::kDeletion, s.deletions);
  add(TimelineRef::kLeave, s.leaves);
  add(TimelineRef::kFlip, s.label_flips);
  add(TimelineRef::kBackdoor, s.backdoors);
  add(TimelineRef::kJoin, s.joins);
  add(TimelineRef::kSwap, s.aggregator_swaps);
  add(TimelineRef::kAudit, s.audits);
  std::sort(timeline.begin(), timeline.end(),
            [](const TimelineRef& a, const TimelineRef& b) {
              return std::tie(a.time, a.kind, a.index) <
                     std::tie(b.time, b.kind, b.index);
            });
  return timeline;
}

}  // namespace

Schedule plan_schedule(const Scenario& s, const std::vector<bool>& active,
                       std::size_t active_count,
                       std::vector<ClientRun>& run_state) {
  GOLDFISH_CHECK(s.aggregations >= 0, "negative aggregation count");
  Schedule plan;
  const std::size_t n0 = active.size();
  const std::size_t ids = n0 + s.joins.size();  // every id the run can name
  std::size_t total = n0;  // registered clients, plus joins applied so far
  if (run_state.size() < ids) run_state.resize(ids);

  // However Phase A exits (a policy or an event check may throw), the
  // entries it touched are reset; so the guard owns the slot → client list.
  struct Reset {
    std::vector<ClientRun>& state;
    std::vector<std::size_t> touched;
    ~Reset() {
      for (std::size_t c : touched) state[c] = ClientRun{};
    }
  } reset{run_state, {}};
  // The client's entry, claiming a run-local slot on first touch. Only
  // writes go through here: an untouched entry reads as the default.
  const auto touch = [&](std::size_t c) -> ClientRun& {
    ClientRun& e = run_state[c];
    if (e.slot < 0) {
      e.slot = static_cast<int>(reset.touched.size());
      reset.touched.push_back(c);
    }
    return e;
  };
  // A client event's target: an id no registered or joining client has is
  // unknown; a joining client's id is valid only once its join applied.
  const auto target = [&](std::size_t c, const char* unknown,
                          const char* not_joined) -> ClientRun& {
    GOLDFISH_CHECK(c < ids, unknown);
    GOLDFISH_CHECK(c < total, not_joined);
    return touch(c);
  };
  const auto is_active = [&](std::size_t c) {
    return !run_state[c].left && (c >= n0 || active[c]);
  };
  std::size_t active_now = active_count;

  std::vector<std::size_t> buffer;
  long server_version = 0;
  long dropped = 0;
  std::size_t current_agg = 0;    // aggregator sequence index (0 = configured)
  std::size_t current_audit = 0;  // active audit, 0 = none
  double last_time = 0.0;

  ParticipationPolicy& who = *s.participation;
  BufferPolicy& how_many = *s.buffer;
  ClockPolicy& clock = *s.clock;

  // Min-heap of completions keyed (finish time, client id, task id); the
  // client id breaks virtual-time ties deterministically.
  using Completion = std::tuple<double, std::size_t, std::size_t>;
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      completions;
  // Participation retry wake-ups, keyed (time, client id).
  using Wake = std::pair<double, std::size_t>;
  std::priority_queue<Wake, std::vector<Wake>, std::greater<Wake>> wakes;

  const auto start_task = [&](std::size_t c, double now) {
    ClientRun& e = touch(c);
    const long index = e.next_index++;
    const double dur = clock.duration(c, index);
    GOLDFISH_CHECK(dur > 0.0, "clock policy returned a non-positive duration");
    e.in_flight = true;
    e.parked = false;
    completions.emplace(now + dur, c, plan.tasks.size());
    plan.tasks.push_back({.client = c, .slot = std::size_t(e.slot),
                          .index = index, .from_version = server_version,
                          .epoch = e.epoch, .finish = now + dur});
  };

  const auto maybe_start = [&](std::size_t c, double now) {
    if (!is_active(c) || run_state[c].in_flight) return;
    if (who.participates(c, server_version, now)) {
      start_task(c, now);
      return;
    }
    touch(c).parked = true;
    const double retry = who.retry_at(c, server_version, now);
    if (retry > now) wakes.emplace(retry, c);
  };

  const auto evict_buffered = [&](std::size_t c) {
    auto evicted =
        std::remove_if(buffer.begin(), buffer.end(), [&](std::size_t id) {
          return plan.tasks[id].client == c;
        });
    dropped += buffer.end() - evicted;
    buffer.erase(evicted, buffer.end());
  };

  std::vector<TimelineRef> timeline = merged_timeline(s);
  std::size_t next_event = 0;

  // Checks and applies `ev`, recording a data-mutating event's target slot
  // in it. Every event passes through here exactly once, so this is the one
  // place each kind's rules live. Aggregator swap names are the exception:
  // Engine::run builds every swap's aggregator before planning.
  const auto apply_event = [&](TimelineRef& ev, bool live) {
    switch (ev.kind) {
      case TimelineRef::kDeletion: {
        const DeletionEvent& d = s.deletions[ev.index];
        ClientRun& e =
            target(d.client, "deletion for unknown client",
                   "deletion targets a client that has not joined yet");
        GOLDFISH_CHECK(!d.new_data.empty(),
                       "deletion would leave a client without data");
        // Each deletion carries the client's *entire* remaining dataset,
        // split from the pre-run data (core::make_async_deletion): a second
        // event for the same client would have been split from that same
        // pre-run data too and silently resurrect the first event's deleted
        // rows. Issue follow-up deletions in a later run, where the split
        // sees the shrunk data.
        GOLDFISH_CHECK(!e.deleted,
                       "multiple deletions for one client in a single "
                       "run; split them across runs");
        e.deleted = true;
        ev.slot = static_cast<std::size_t>(e.slot);
        ++e.epoch;
        // Evict its buffered updates: they trained on deleted rows.
        evict_buffered(d.client);
        // Its in-flight task (if any) is void on arrival.
        if (e.in_flight) e.poisoned = true;
        break;
      }
      case TimelineRef::kLeave: {
        const ClientLeaveEvent& l = s.leaves[ev.index];
        ClientRun& e = target(l.client, "leave event for unknown client",
                              "leave targets a client that has not joined yet");
        if (is_active(l.client)) --active_now;
        e.left = true;
        e.parked = false;
        // The device is gone: its in-flight upload never arrives. Updates
        // it already buffered on the server stay valid.
        if (e.in_flight) e.poisoned = true;
        break;
      }
      case TimelineRef::kJoin: {
        GOLDFISH_CHECK(!s.joins[ev.index].dataset.empty(),
                       "joining client needs data");
        const std::size_t id = total++;
        ++active_now;
        touch(id);  // its slot serves the join payload as epoch 0
        plan.join_order.push_back(ev.index);
        if (live) maybe_start(id, s.joins[ev.index].time);
        break;
      }
      case TimelineRef::kSwap:
        current_agg = ev.index + 1;
        break;
      case TimelineRef::kFlip: {
        // Only tasks started after the event train on the hostile data:
        // buffered updates and the in-flight task keep their honest epoch.
        ClientRun& e =
            target(s.label_flips[ev.index].client,
                   "label flip for unknown client",
                   "label flip targets a client that has not joined yet");
        ev.slot = static_cast<std::size_t>(e.slot);
        ++e.epoch;
        break;
      }
      case TimelineRef::kBackdoor: {
        const BackdoorInjectEvent& b = s.backdoors[ev.index];
        ClientRun& e =
            target(b.client, "backdoor injection for unknown client",
                   "backdoor targets a client that has not joined yet");
        GOLDFISH_CHECK(b.fraction > 0.0f && b.fraction <= 1.0f,
                       "backdoor fraction must be in (0, 1]");
        ev.slot = static_cast<std::size_t>(e.slot);
        ++e.epoch;
        break;
      }
      case TimelineRef::kAudit: {
        const AuditEvent& a = s.audits[ev.index];
        GOLDFISH_CHECK(!a.probe.empty(), "audit needs a trigger probe set");
        GOLDFISH_CHECK(a.members.empty() == a.nonmembers.empty(),
                       "audit member and nonmember sets come together (both "
                       "empty disables the MIA block)");
        current_audit = ev.index + 1;
        break;
      }
    }
  };

  // Buffer size for the first aggregation.
  long k = std::max(1L, how_many.size(0, 0.0, 0, active_now));

  // Every active client downloads version 0 and starts at t = 0 (subject to
  // the participation policy). A zero-aggregation horizon plans no tasks at
  // all, so it consumes no RNG rounds — only the timeline's durable effects
  // apply. A cohort-enumerating policy visits only version 0's cohort —
  // scheduling work per version stays O(cohort) even with 10^5+ registered
  // clients (the population-scale contract, docs/population.md).
  if (s.aggregations > 0) {
    if (who.enumerates_cohort())
      for (std::size_t c : who.cohort(0, n0)) maybe_start(c, 0.0);
    else
      for (std::size_t c = 0; c < n0; ++c) maybe_start(c, 0.0);
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  while (static_cast<long>(plan.aggs.size()) < s.aggregations) {
    const double t_comp =
        completions.empty() ? kInf : std::get<0>(completions.top());
    const double t_wake = wakes.empty() ? kInf : wakes.top().first;
    const bool has_event = next_event < timeline.size();
    const double t_event = has_event ? timeline[next_event].time : kInf;

    // Timeline events apply before anything else at the same instant.
    if (has_event && t_event <= t_comp && t_event <= t_wake) {
      last_time = std::max(last_time, t_event);
      apply_event(timeline[next_event++], /*live=*/true);
      continue;
    }
    // Stall: nothing in flight and no wake pending. The progress guarantee:
    // re-admit every idle active client at the current instant, bypassing
    // the participation policy — an empty sampled cohort must trade
    // staleness for progress, never deadlock the server.
    if (t_comp == kInf && t_wake == kInf) {
      bool any = false;
      for (std::size_t c = 0; c < total; ++c)
        if (is_active(c) && !run_state[c].in_flight) {
          start_task(c, last_time);
          any = true;
        }
      GOLDFISH_CHECK(any,
                     "scenario stalled: no active clients remain to fill "
                     "the aggregation buffer");
      continue;
    }
    // Participation retries run strictly before completions at the same
    // time: a retried task can only finish later, never at this instant.
    if (t_wake <= t_comp) {
      last_time = std::max(last_time, t_wake);
      while (!wakes.empty() && wakes.top().first == t_wake) {
        const std::size_t c = wakes.top().second;
        wakes.pop();
        if (run_state[c].parked) maybe_start(c, t_wake);
      }
      continue;
    }

    const double now = t_comp;
    last_time = std::max(last_time, now);
    // Same-timestamp completions are buffered as a batch (client-id order)
    // before any of those clients re-downloads; this is the tie-break that
    // makes the jitter-free K = n schedule identical to synchronous rounds.
    std::vector<std::size_t> batch;
    while (!completions.empty() &&
           std::get<0>(completions.top()) == now) {
      batch.push_back(std::get<2>(completions.top()));
      completions.pop();
    }
    bool version_advanced = false;
    for (std::size_t id : batch) {
      ClientRun& e = run_state[plan.tasks[id].client];
      e.in_flight = false;
      if (e.poisoned) {
        e.poisoned = false;
        ++dropped;
        continue;
      }
      buffer.push_back(id);
      if (static_cast<long>(buffer.size()) == k) {
        double staleness_sum = 0.0;
        long staleness_max = 0;
        for (std::size_t bid : buffer) {
          Schedule::Task& t = plan.tasks[bid];
          t.staleness = server_version - t.from_version;
          t.consumed_by = static_cast<long>(plan.aggs.size());
          staleness_sum += double(t.staleness);
          staleness_max = std::max(staleness_max, t.staleness);
        }
        const double staleness_mean = staleness_sum / double(buffer.size());
        plan.aggs.push_back({.time = now, .tasks = std::move(buffer),
                             .dropped_so_far = dropped,
                             .aggregator = current_agg, .audit = current_audit,
                             .active_clients = active_now});
        buffer.clear();
        ++server_version;
        version_advanced = true;
        if (static_cast<long>(plan.aggs.size()) == s.aggregations) break;
        // The next aggregation's K, informed by the staleness just observed.
        k = std::max(1L, how_many.size(static_cast<long>(plan.aggs.size()),
                                       staleness_mean, staleness_max,
                                       active_now));
      }
    }
    if (static_cast<long>(plan.aggs.size()) == s.aggregations) break;
    // Every completed client re-downloads the current model and trains on;
    // a version bump also re-checks clients the policy had parked. An
    // enumerating policy pins the new version's cohort first (so the
    // completed clients' membership probes answer against it) and the
    // rescan then visits cohort members only — never the whole population.
    if (version_advanced && who.enumerates_cohort())
      who.cohort(server_version, total);
    for (std::size_t id : batch) maybe_start(plan.tasks[id].client, now);
    if (version_advanced) {
      if (who.enumerates_cohort()) {
        for (std::size_t c : who.cohort(server_version, total))
          maybe_start(c, now);
      } else {
        for (std::size_t c = 0; c < total; ++c)
          if (run_state[c].parked) maybe_start(c, now);
      }
    }
  }
  // Events beyond the run's horizon are checked too and still take durable
  // effect before the run returns (there is no later virtual time to wait
  // for).
  while (next_event < timeline.size())
    apply_event(timeline[next_event++], /*live=*/false);

  for (std::size_t c : reset.touched)
    plan.rounds_consumed =
        std::max(plan.rounds_consumed, run_state[c].next_index);
  plan.clients = reset.touched;
  plan.timeline = std::move(timeline);
  return plan;
}

}  // namespace goldfish::fl

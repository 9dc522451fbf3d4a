// Phase A of an fl::Engine run: the Scenario (horizon, policies, typed event
// timeline) and the pure planner that turns it into a Schedule on a virtual
// clock. The plan never depends on training results, so Phase B can run it
// in any thread interleaving with bit-identical results.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "data/backdoor.h"
#include "fl/policies.h"

namespace goldfish::fl {

// -- scenario timeline events ----------------------------------------------
//
// Events are merged onto the virtual timeline and applied in (time, kind,
// declaration index) order, always *before* any task completion at the same
// or a later time.

/// An unlearning request arriving mid-run: at `time`, the client's local
/// data is replaced by `new_data` (its remaining rows D_r), any of its
/// updates still sitting in the server's buffer are evicted, and its
/// in-flight task is voided on completion — both were trained on data that
/// now includes deleted rows, and must never reach an aggregation. Updates
/// aggregated *before* `time` are history; undoing their influence is the
/// unlearner's job (core/unlearner.h builds these events).
struct DeletionEvent {
  double time = 0.0;
  std::size_t client = 0;
  data::Dataset new_data;
};

/// A new client joining the federation at `time` with its local dataset.
/// It is assigned the next free client id (ids are dense and stable) and
/// starts training immediately, subject to the participation policy. Joins
/// are durable: after the run the engine's federation includes the client.
struct ClientJoinEvent {
  double time = 0.0;
  data::Dataset dataset;
};

/// A client leaving the federation at `time`: it never starts another task
/// and its in-flight task (if any) is voided on completion — the device is
/// gone, the upload never arrives. Updates it already uploaded to the
/// server's buffer remain valid and aggregate normally. Leaves are durable:
/// the client stays registered (its data is kept) but inactive.
struct ClientLeaveEvent {
  double time = 0.0;
  std::size_t client = 0;
};

/// Swap the server's aggregation strategy at `time`: every aggregation at
/// or after `time` uses the named strategy (any name make_aggregator
/// accepts, robust families included — the knobs come from FlConfig's
/// RobustConfig), wrapped in the scenario's staleness discounting like the
/// base strategy. Scenario-scoped: the engine's configured aggregator is
/// restored for the next run.
struct AggregatorSwapEvent {
  double time = 0.0;
  std::string aggregator;
};

// -- adversarial events (docs/threat-model.md) -----------------------------

/// A client turns hostile at `time`: its local dataset's labels are flipped
/// in place (y → num_classes−1−y) for every task it *starts* after the
/// event. Updates already buffered and the in-flight task trained on the
/// honest data and stay valid — the device poisons what it trains next, it
/// cannot rewrite uploads the server already holds. Durable: the flipped
/// dataset is the client's data after the run.
struct LabelFlipEvent {
  double time = 0.0;
  std::size_t client = 0;
};

/// A client starts backdooring at `time`: `fraction` of its current dataset
/// is trigger-stamped and relabeled to the spec's target via
/// data::poison_dataset (row choice drawn from a seeded per-event RNG
/// stream — deterministic at any thread count). Same epoch semantics as
/// LabelFlipEvent: only tasks started after the event train poisoned.
struct BackdoorInjectEvent {
  double time = 0.0;
  std::size_t client = 0;
  data::BackdoorSpec spec;
  /// Fraction of the client's rows to poison, in (0, 1].
  float fraction = 0.5f;
};

/// A sybil burst: `count` colluding clients join at `time`, every one
/// training on its own copy of the shared `dataset` (typically poisoned).
/// Sugar over ClientJoinEvent — the engine expands the burst into `count`
/// ordinary joins (after all declared joins at the same instant), so ids
/// are dense, joins stay durable, and DeletionEvent / ClientLeaveEvent can
/// target each sybil individually for the cleanup phase.
struct SybilJoinEvent {
  double time = 0.0;
  std::size_t count = 0;
  data::Dataset dataset;
};

/// Switch on per-step auditing at `time`: every aggregation at or after it
/// measures the freshly aggregated global model against this event's probe
/// sets and records the result in its StepResult — attack_success_rate on
/// `probe` (a trigger set from data::make_trigger_probe), and, when
/// `members` is non-empty, the membership-inference attack over
/// (members = rows the attacker may have trained on, nonmembers = held-out
/// rows). A later AuditEvent replaces the probe sets from its time on.
struct AuditEvent {
  double time = 0.0;
  data::Dataset probe;
  data::Dataset members;     ///< optional; empty disables the MIA block
  data::Dataset nonmembers;  ///< required iff members is non-empty
};

/// A complete execution scenario: the horizon, the four policies (null →
/// the legacy defaults derived from FlConfig), and the event timeline.
/// Move-only; consumed by Engine::run (stateful policies such as
/// AdaptiveBuffer are single-use by design).
struct Scenario {
  /// Number of buffer aggregations to run (the horizon).
  long aggregations = 0;
  std::unique_ptr<ParticipationPolicy> participation;  ///< null → full
  std::unique_ptr<BufferPolicy> buffer;  ///< null → FixedBuffer(cfg.async)
  std::unique_ptr<ClockPolicy> clock;    ///< null → VirtualClock(cfg.async)
  /// How uploads travel: each client task encodes its trained parameters to
  /// actual bytes and the server decodes them before aggregation, so
  /// StepResult byte counts are real and lossy wires genuinely perturb the
  /// aggregate. Null → DenseWire (byte-true GFT1, bit-identical to the
  /// pre-WirePolicy engine). The engine announces the encoded upload size
  /// to the clock policy (ClockPolicy::set_upload_bytes) before Phase A.
  std::unique_ptr<WirePolicy> wire;
  std::vector<DeletionEvent> deletions;
  std::vector<ClientJoinEvent> joins;
  std::vector<ClientLeaveEvent> leaves;
  std::vector<AggregatorSwapEvent> aggregator_swaps;
  std::vector<LabelFlipEvent> label_flips;
  std::vector<BackdoorInjectEvent> backdoors;
  std::vector<SybilJoinEvent> sybil_joins;
  std::vector<AuditEvent> audits;
  /// Staleness decay exponent for this run; negative → cfg.async value.
  double staleness_alpha = -1.0;
  /// Report per-client local accuracy for every aggregation (the
  /// synchronous round's telemetry): each consumed update is scored on the
  /// server test set as decoded from the wire. Costs one forward per update,
  /// or nothing extra when the aggregator already scores it for MSE.
  bool local_accuracy = false;
};

// -- Phase A: the plan -------------------------------------------------------

/// One scenario event reference on the merged timeline. Kind order is the
/// tie-break at equal times: events mutating *existing* clients (deletions,
/// leaves, label flips, backdoor injections) apply before joins introduce
/// new ids, aggregator swaps after that, and audit activations last.
struct TimelineRef {
  enum Kind { kDeletion, kLeave, kFlip, kBackdoor, kJoin, kSwap, kAudit };
  double time = 0.0;
  int kind = kDeletion;
  std::size_t index = 0;  // into the scenario vector of that kind
  /// Run-local slot of the client a data-mutating event (deletion, flip,
  /// backdoor) targets; filled in by Phase A when it applies the event.
  std::size_t slot = 0;
};

/// The planner's per-client state, one entry per client id. The caller keeps
/// the entries across runs (all in their default state between runs), so a
/// run allocates nothing per registered client.
struct ClientRun {
  long next_index = 0;  ///< tasks started this run (RNG stream step)
  int slot = -1;        ///< run-local slot, -1 = untouched this run
  int epoch = 0;        ///< dataset version the next task trains on
  bool in_flight = false;
  /// The in-flight task must never reach the buffer: its data had rows
  /// deleted, or the client left before the upload.
  bool poisoned = false;
  bool parked = false;   ///< refused by the participation policy
  bool left = false;     ///< a ClientLeaveEvent applied this run
  bool deleted = false;  ///< a DeletionEvent applied this run
};

/// Phase A output: the complete event plan, fixed before any training runs.
/// Its size follows what the run touches — tasks, timeline events and the
/// clients they name — never the registered population.
struct Schedule {
  /// One planned local-training execution on the virtual timeline.
  struct Task {
    std::size_t client = 0;
    std::size_t slot = 0;   ///< the client's run-local slot
    long index = 0;         ///< per-client sequence number (RNG stream step)
    long from_version = 0;  ///< server version the client downloaded
    int epoch = 0;          ///< which of the client's datasets it trains on
    double finish = 0.0;
    long staleness = 0;     ///< server lag when consumed
    long consumed_by = -1;  ///< aggregation index; -1 = dropped / never used
  };

  /// One planned buffer aggregation: the task ids it consumes, in arrival
  /// order (virtual time, client id).
  struct Agg {
    double time = 0.0;
    std::vector<std::size_t> tasks;
    long dropped_so_far = 0;
    std::size_t aggregator = 0;  ///< 0 = configured strategy, i+1 = swap i
    std::size_t audit = 0;       ///< 0 = no audit active, i+1 = audit i
    std::size_t active_clients = 0;
  };

  std::vector<Task> tasks;
  std::vector<Agg> aggs;
  /// The planned scenario's events in (time, kind, declaration index)
  /// order, each client event carrying its target's slot, cached for the
  /// epoch replay.
  std::vector<TimelineRef> timeline;
  /// Slot → client id: every client the run touched (a task, or a
  /// deletion / leave / join / flip / backdoor event, or a participation
  /// refusal), in first-touch order.
  std::vector<std::size_t> clients;
  /// Max tasks any one client started: how many (client, round) RNG steps
  /// the run consumed. Fast clients lap the aggregation count, so advancing
  /// the round counter by less than this would hand later rounds
  /// already-used training streams.
  long rounds_consumed = 0;
  std::vector<std::size_t> join_order;  ///< scenario.joins indices, id order
};

/// Phase A for registered clients 0..active.size()−1 (`active_count` of
/// them active), joins taking the next ids. Needs the participation, buffer
/// and clock policies set and sybil bursts expanded into joins. A malformed
/// event (checked where it applies, past the horizon too) or a stall throws
/// CheckError. `run_state` grows to cover every id the run names and comes
/// back all-default. Cost: O(touched clients + events), plus the scans that
/// are a policy's semantics (FullParticipation's loops, the stall re-admit).
Schedule plan_schedule(const Scenario& s, const std::vector<bool>& active,
                       std::size_t active_count,
                       std::vector<ClientRun>& run_state);

}  // namespace goldfish::fl

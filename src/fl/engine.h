// The event-driven federated execution engine: ONE server loop under every
// regime the library supports — synchronous barrier rounds, FedBuff-style
// buffered aggregation, mid-stream deletions, clients joining and leaving,
// aggregator swaps — parameterized by small policy objects (fl/policies.h)
// and driven by a typed Scenario event timeline.
//
// Execution is split in two phases. Phase A (fl::plan_schedule in
// fl/schedule.h) plans every task, aggregation, staleness value and
// eviction on a virtual clock before any training runs. Phase B executes
// the plan, respecting only its data dependencies — a task training from
// server version v is submitted once version v is published, and the
// aggregation loop drains futures in the planned (virtual time, client id)
// order. Results are therefore bit-identical at any thread count.
//
// The steady state is allocation-free: client models come from a pooled
// replica set (broadcast is an in-place load over pooled storage), layers
// write into per-model Workspace arenas, the wire path reuses per-thread
// buffers, and remaining tensor temporaries recycle through a
// BufferPoolScope held for the engine's lifetime. Each client task
// provisions the buffer sizes it is first to need for every executor, so a
// run that reaches a deeper concurrency than the warm-up still finds them.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fl/aggregation.h"
#include "fl/policies.h"
#include "fl/population/population.h"
#include "fl/schedule.h"
#include "fl/trainer.h"
#include "metrics/evaluation.h"
#include "runtime/scheduler.h"
#include "tensor/buffer_pool.h"

namespace goldfish::fl {

/// Buffered-asynchronous execution knobs: the default parameter source for
/// buffered scenarios (Engine::async_scenario).
struct AsyncFlConfig {
  /// Updates buffered before the server aggregates (K). 0 → num_clients.
  long buffer_size = 0;
  /// Staleness decay exponent α: an update s server-versions stale is
  /// weighted by (1+s)^−α on top of the base aggregator's weight (composes
  /// with fedavg/uniform/adaptive). 0 disables decay.
  double staleness_alpha = 0.5;
  /// Mean virtual duration of one local-training task.
  double mean_duration = 1.0;
  /// Log-normal spread of task durations: duration = mean·exp(j·N(0,1)),
  /// drawn from the seeded RNG per (client, task). 0 → every task takes
  /// exactly mean_duration, which reproduces the synchronous schedule.
  double duration_log_jitter = 0.25;
};

/// Engine configuration, validated by the constructor. Server-side scoring
/// has no knob here: its chunk sizes are fixed memory bounds (2^21 input
/// floats per forward, 2^24 floats for the stacked `mlp<h>` activations),
/// and accuracy and MSE are bit-identical under any chunking.
struct FlConfig {
  TrainOptions local;                ///< per-round local training options
  /// "fedavg" | "uniform" | "adaptive" | "krum" | "multi-krum" |
  /// "trimmed-mean" | "median" | "norm-clip" (fl::make_aggregator).
  std::string aggregator = "fedavg";
  /// Knobs for the Byzantine-robust strategies (configured or hot-swapped);
  /// inert for the weight-based ones.
  RobustConfig robust;
  /// 0 → share the process-wide runtime Scheduler (the normal case; client
  /// tasks and the kernels inside them draw from one pool). Non-zero → a
  /// private Scheduler with that parallelism for *client-level* tasks only;
  /// kernels inside them still use the global pool, so to pin the whole
  /// process set GOLDFISH_THREADS instead.
  std::size_t threads = 0;
  std::uint64_t seed = 7;
  /// Buffered-asynchronous mode parameters (defaults for async scenarios).
  AsyncFlConfig async;
};

/// What a client update reports about its task. Goldfish distillation
/// reports; plain local training reports nothing (see
/// Engine::set_client_update).
struct ClientReport {
  long epochs_run = 0;
  bool terminated_early = false;  ///< early termination (Eq. 7) fired
  double temperature = 0.0;       ///< distillation temperature (Eq. 11)
};

/// Per-aggregation telemetry, emitted through the Engine's sink. A
/// synchronous round is simply a step whose staleness is 0 and whose
/// local-accuracy block is populated.
struct StepResult {
  long step = 0;              ///< aggregation index within this run
  double virtual_time = 0.0;  ///< virtual clock when the buffer filled
  double global_accuracy = 0.0;
  long updates_consumed = 0;  ///< buffer size K of this step
  double mean_staleness = 0.0;
  long max_staleness = 0;
  long dropped_updates = 0;   ///< cumulative evictions (deletions, leaves)
  /// Encoded wire bytes of the consumed updates, summed — byte-true under
  /// the scenario's WirePolicy (identical to the historical dense count
  /// when no wire policy is set).
  std::size_t bytes_uplinked = 0;
  /// Encoded bytes of a single upload under the scenario's WirePolicy
  /// (constant within a run: encoded size is a pure function of shapes).
  std::size_t upload_bytes = 0;
  /// Mean relative L2 reconstruction error ‖decoded − trained‖/‖trained‖
  /// over the consumed updates: the per-step loss the wire encoding
  /// injected (0 for lossless wires). The accuracy-vs-bytes axis pairs this
  /// with global_accuracy.
  double encode_error = 0.0;
  std::size_t active_clients = 0;  ///< federation size after joins/leaves
  std::string aggregator;          ///< strategy that produced this step
  /// Per-client local accuracy of the consumed updates — the decoded
  /// parameters the server aggregates, from the same forward pass as their
  /// adaptive-weight MSE; populated only when Scenario::local_accuracy is
  /// set.
  bool has_local_accuracy = false;
  double min_local_accuracy = 0.0;
  double max_local_accuracy = 0.0;
  double mean_local_accuracy = 0.0;
  /// Audit block; populated for every step at or after an AuditEvent.
  bool has_audit = false;
  /// Backdoor attack success rate (%) of the post-aggregation global model
  /// on the active audit's trigger probe.
  double attack_success = 0.0;
  /// Membership-inference attack over the audit's member/nonmember sets;
  /// 0.5 = chance (forgotten), → 1 = memorized. Stay at 0.5 when the audit
  /// carries no member rows.
  double mia_auc = 0.5;
  double mia_accuracy = 0.5;
  /// Distillation block: the ClientReports of the consumed tasks, folded in
  /// consumption order (client order for a synchronous round, so the mean is
  /// bit-identical at any thread count); populated only when a consumed
  /// task reported.
  bool has_distillation = false;
  long epochs_run = 0;        ///< Σ (early termination shrinks it)
  long terminated_early = 0;  ///< tasks that stopped early
  double mean_temperature = 0.0;  ///< mean over the tasks that reported
};

/// The single federated server loop. Owns the federation state (global
/// model, the client population, pooled client replicas, the server
/// evaluator) and executes Scenarios against it.
class Engine {
 public:
  /// The per-client update: receives a local model already initialized from
  /// the downloaded server version and trains it (the engine snapshots the
  /// model afterwards). `round` is the client's global RNG-stream index —
  /// unique per (client, round) across runs. This form reports nothing; an
  /// update may instead return a ClientReport (set_client_update).
  using ClientUpdateFn = std::function<void(
      std::size_t client_id, nn::Model& local_model,
      const data::Dataset& local_data, long round)>;

  /// Telemetry sink: called once per aggregation, in order.
  using StepSink = std::function<void(const StepResult&)>;

  /// Resident construction: the datasets move into a *hot*-backed
  /// population (every client stays resident; the store keeps only its
  /// telemetry header beside it), so client_data() serves them directly.
  /// Joins and replacements stay hot. Validates `cfg` up front (unknown
  /// aggregator string, buffer_size out of range, negative staleness_alpha
  /// / mean_duration, ...) and throws std::invalid_argument with a specific
  /// message instead of misbehaving later.
  Engine(nn::Model global, std::vector<data::Dataset> client_data,
         data::Dataset server_test, FlConfig cfg);

  /// Population-scale construction over a *cold* population::Population
  /// (byte-record client store, fl/population/). Clients are materialized into pooled slots only while
  /// they participate, so a run's resident memory is O(cohort), not
  /// O(registered clients) — see docs/population.md. Both constructors run
  /// the same code: the same data produces bit-identical StepResults.
  Engine(nn::Model global, population::Population pop,
         data::Dataset server_test, FlConfig cfg);

  /// Replace the default (plain LocalTraining) client update: any callable
  /// with ClientUpdateFn's arguments that returns a ClientReport (folded into
  /// StepResult's distillation block) or nothing. Rejected while a run is in
  /// flight.
  template <class F>
  void set_client_update(F fn) {
    if (running())
      throw std::logic_error(
          "fl::Engine: set_client_update while a run is in flight");
    if constexpr (std::is_void_v<std::invoke_result_t<
                      F&, std::size_t, nn::Model&, const data::Dataset&,
                      long>>)
      update_fn_ = [fn = std::move(fn)](
                       std::size_t c, nn::Model& m, const data::Dataset& ds,
                       long round) mutable -> std::optional<ClientReport> {
        fn(c, m, ds, round);
        return std::nullopt;
      };
    else
      update_fn_ = std::move(fn);
  }

  /// Execute a scenario, emitting one StepResult per aggregation. The
  /// scenario is consumed. Not reentrant; throws std::logic_error if a run
  /// is already in flight on another thread.
  void run(Scenario scenario, const StepSink& sink);

  /// run() collecting the telemetry stream into a vector.
  std::vector<StepResult> collect(Scenario scenario);

  // -- canned scenario bundles ---------------------------------------------

  /// `rounds` synchronous barrier rounds: full participation, K = all
  /// active clients, constant task durations, no staleness decay, and (with
  /// `local_accuracy`) the per-client local-accuracy block.
  Scenario sync_scenario(long rounds, bool local_accuracy = true) const;

  /// FedBuff-style buffered-asynchronous execution from the FlConfig's
  /// async block: clients train continuously, the server aggregates every
  /// K = cfg.async.buffer_size arrivals with (1+s)^−α staleness decay over
  /// the seeded log-normal VirtualClock. `deletions` must carry each
  /// client's *remaining* data (core::make_async_deletion builds them);
  /// after the run client_data() reflects the post-deletion datasets.
  Scenario async_scenario(long aggregations,
                          std::vector<DeletionEvent> deletions = {}) const;

  // -- federation state ----------------------------------------------------

  nn::Model& global_model() { return global_; }
  const data::Dataset& server_test() const { return test_; }
  /// A resident (hot) client's dataset; throws for a cold population,
  /// whose records are reached through population()->clients instead.
  const data::Dataset& client_data(std::size_t c) const;
  /// The federation's stores (never null).
  population::Population* population() { return &pop_; }
  const population::Population* population() const { return &pop_; }
  /// Registered clients, inactive (departed) ones included.
  std::size_t num_clients() const { return pop_.clients.num_clients(); }
  /// Clients currently participating in new runs (joins − leaves); a
  /// maintained count, O(1).
  std::size_t active_clients() const { return active_count_; }
  /// True while a run is in flight (mutating accessors are rejected).
  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Global round counter: the next unused (client, round) RNG-stream step.
  long rounds_completed() const { return round_; }
  const FlConfig& config() const { return cfg_; }

  /// Number of pooled client-model replicas currently alive (grows on
  /// demand, bounded by the scheduler's parallelism).
  std::size_t pool_size() const { return pool_total_; }

  /// Replace one client's dataset. Rejected (std::logic_error) while a run
  /// is in flight — a leased replica's training task may be reading the
  /// dataset concurrently; mid-run data changes are what DeletionEvent is
  /// for.
  void set_client_data(std::size_t c, data::Dataset ds);

 private:
  struct EpochTable;

  /// RAII lease of a pooled model replica: pops a free replica (cloning the
  /// global model only when the pool has never been this deep — i.e. the
  /// first run), returns it on destruction. Leases never outlive the
  /// engine. A lease marks its thread as running one of up to
  /// `parallelism()` concurrent tasks, so the buffers its task is first to
  /// need (the replica clone included) are provisioned for every executor.
  class ModelLease {
   public:
    explicit ModelLease(Engine& eng);
    ~ModelLease();
    nn::Model& get() { return *model_; }

   private:
    Engine& eng_;
    BufferPoolProvision provision_;
    std::unique_ptr<nn::Model> model_;
  };

  /// Replay the data-mutating events (deletions, label flips, backdoor
  /// injections) in merged timeline order, materializing every dataset
  /// version each touched client trains on during the run. O(touched
  /// clients + events): the table is indexed by run-local slot.
  EpochTable materialize_epochs(const Scenario& s, const Schedule& plan);
  /// Phase B, aggregating step a with aggregators[plan.aggs[a].aggregator].
  /// Leaves in `wire_bytes` each task's upload size. Each
  /// broadcast version's parameters are freed once the last task that
  /// downloads them is done with them (after its wire round-trip when the
  /// wire needs a reference). A failed task aborts the run: the other tasks
  /// are waited out and the error rethrown — nothing is committed.
  void execute(const Scenario& scenario, const Schedule& plan,
               const EpochTable& epochs,
               const std::vector<std::unique_ptr<Aggregator>>& aggregators,
               const StepSink& sink, std::vector<std::size_t>& wire_bytes);

  /// True when the global model is a two-layer MLP (the `mlp<h>` family),
  /// whose per-client evaluation can be stacked into one wide GEMM.
  bool stackable_mlp() const;
  /// The server's one scoring step over a buffer of consumed updates: each
  /// decoded update's local accuracy on the test set into `local_acc`, and
  /// (when `with_mse`) its MSE into ClientUpdate::mse — both from one
  /// forward pass. `mlp<h>` takes the stacked pass; every other
  /// architecture one leased-replica forward per update.
  void score_updates(std::vector<ClientUpdate>& updates, bool with_mse,
                     std::vector<double>& local_acc);
  /// The stacked pass: concatenate every update's hidden-layer weights into
  /// one (K·h, D) matrix so a single fused GEMM per test chunk computes all
  /// clients' hidden activations, then run each client's logits head on
  /// its strided slice. Bit-identical to scoring the clients one at a time.
  void stacked_score(std::vector<ClientUpdate>& updates, bool with_mse,
                     std::vector<double>& local_acc);

  // Declared first so it is destroyed last: models returning to the pool on
  // teardown park their storage here before the scope drains it.
  BufferPoolScope recycle_;
  nn::Model global_;
  /// Structural template for pool replicas. Never written after
  /// construction: a cold-pool lease clones *this* (its values are always
  /// overwritten by load before use), so growing the pool from a worker
  /// thread never races the main thread's writes to global_ — which the
  /// aggregation loop performs while client tasks are still in flight.
  nn::Model replica_template_;
  /// The federation's client store (hot or cold, fixed by the
  /// constructor). Every run goes through the same code; only where a
  /// client's bytes live differs.
  population::Population pop_;
  std::vector<bool> active_;  ///< false once a ClientLeaveEvent committed
  std::size_t active_count_ = 0;  ///< trues in active_, kept on commit
  std::vector<ClientRun> run_state_;  ///< Phase A's, by client id
  data::Dataset test_;
  FlConfig cfg_;
  std::unique_ptr<runtime::Scheduler> owned_sched_;  // only when cfg.threads
  runtime::Scheduler* sched_;  // the pool client tasks run on
  metrics::BatchedEvaluator eval_;
  /// The one stored client update; nullopt means "nothing to report".
  std::function<std::optional<ClientReport>(
      std::size_t, nn::Model&, const data::Dataset&, long)>
      update_fn_;
  long round_ = 0;
  std::atomic<bool> running_{false};

  std::mutex pool_mu_;
  std::vector<std::unique_ptr<nn::Model>> pool_;  // free replicas
  std::size_t pool_total_ = 0;                    // replicas ever created

  // Stacked-scoring scratch, reused across rounds.
  Tensor stacked_w_, stacked_b_, stacked_y_;
  bool stackable_ = false;  // computed once: the architecture never changes
};

}  // namespace goldfish::fl

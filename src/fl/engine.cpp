#include "fl/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <stdexcept>
#include <utility>

#include "metrics/membership_inference.h"
#include "runtime/gemm.h"
#include "tensor/ops.h"

namespace goldfish::fl {

namespace {

/// Satellite of the Engine ctor: reject malformed configs up front with a
/// specific std::invalid_argument instead of late or silent misbehavior.
FlConfig validated(FlConfig cfg, std::size_t num_clients) {
  const auto fail = [](const std::string& msg) {
    throw std::invalid_argument("fl::FlConfig: " + msg);
  };
  if (cfg.robust.krum_f < 0) fail("robust.krum_f must be >= 0");
  if (cfg.robust.krum_m < 1) fail("robust.krum_m must be >= 1");
  // The registry is the single source of truth for names, so probe it
  // instead of mirroring a list here.
  try {
    make_aggregator(cfg.aggregator, cfg.robust);
  } catch (const std::exception& e) {
    fail("unknown aggregator '" + cfg.aggregator +
         "' (expected fedavg | uniform | adaptive | krum | multi-krum | "
         "trimmed-mean | median | norm-clip): " + e.what());
  }
  if ((cfg.aggregator == "krum" || cfg.aggregator == "multi-krum") &&
      cfg.robust.krum_f >= static_cast<long>(num_clients))
    fail("robust.krum_f (" + std::to_string(cfg.robust.krum_f) +
         ") must be below the client count (" + std::to_string(num_clients) +
         "): krum scoring needs n >= f+3 updates and assumes an honest "
         "majority");
  if (!(cfg.robust.trim_fraction >= 0.0 && cfg.robust.trim_fraction < 0.5))
    fail("robust.trim_fraction must be in [0, 0.5) — trimming half or more "
         "per side leaves nothing to average");
  if (!(cfg.robust.clip_norm > 0.0))
    fail("robust.clip_norm must be positive");
  if (cfg.async.buffer_size < 0)
    fail("async.buffer_size must be >= 0 (0 means all clients)");
  if (cfg.async.buffer_size > static_cast<long>(num_clients))
    fail("async.buffer_size (" + std::to_string(cfg.async.buffer_size) +
         ") exceeds the client count (" + std::to_string(num_clients) +
         "): FedBuff's K <= C contract — a larger buffer would always "
         "wait on repeat updates from the same clients");
  if (!(cfg.async.staleness_alpha >= 0.0))
    fail("async.staleness_alpha must be >= 0 (0 disables decay)");
  if (!(cfg.async.mean_duration > 0.0))
    fail("async.mean_duration must be positive");
  if (!(cfg.async.duration_log_jitter >= 0.0))
    fail("async.duration_log_jitter must be >= 0");
  return cfg;
}

/// RNG stream salt for BackdoorInjectEvent row selection (cf. the policy
/// salts in fl/policies.cpp).
constexpr std::uint64_t kBackdoorSalt = 0xBADC0DEDB00ULL;

/// Relative L2 reconstruction error ‖decoded − trained‖ / ‖trained‖ across a
/// whole snapshot: how much the wire encoding perturbed this upload.
/// Accumulated in a fixed order, so it is deterministic per task.
double wire_reconstruction_error(const std::vector<Tensor>& trained,
                                 const std::vector<Tensor>& decoded) {
  double num = 0.0, den = 0.0;
  for (std::size_t t = 0; t < trained.size(); ++t) {
    const float* a = trained[t].data();
    const float* b = decoded[t].data();
    for (std::size_t i = 0; i < trained[t].numel(); ++i) {
      const double d = double(a[i]) - double(b[i]);
      num += d * d;
      den += double(a[i]) * double(a[i]);
    }
  }
  return den > 0.0 ? std::sqrt(num / den) : 0.0;
}

}  // namespace

Engine::Engine(nn::Model global, std::vector<data::Dataset> client_data,
               data::Dataset server_test, FlConfig cfg)
    : Engine(std::move(global),
             population::Population{
                 population::ClientStateStore(std::move(client_data)), {}},
             std::move(server_test), std::move(cfg)) {}

Engine::Engine(nn::Model global, population::Population pop,
               data::Dataset server_test, FlConfig cfg)
    : global_(std::move(global)),
      replica_template_(global_),
      pop_(std::move(pop)),
      active_(num_clients(), true),
      active_count_(num_clients()),
      test_(std::move(server_test)),
      cfg_(validated(std::move(cfg), num_clients())),
      sched_(&runtime::scheduler_for(cfg_.threads, owned_sched_)),
      eval_(test_) {
  GOLDFISH_CHECK(num_clients() > 0, "engine needs clients");
  GOLDFISH_CHECK(!test_.empty(), "engine needs a server test set");
  stackable_ = stackable_mlp();
  // Default behaviour: Algorithm 1's LocalTraining. Each (client, round)
  // pair gets its own RNG stream via the collision-free splitmix mix.
  set_client_update([this](std::size_t cid, nn::Model& model,
                           const data::Dataset& ds, long round) {
    TrainOptions opts = cfg_.local;
    opts.seed = mix_seed(cfg_.seed, cid, static_cast<std::uint64_t>(round));
    train_local(model, ds, opts);
  });
}

Engine::ModelLease::ModelLease(Engine& eng)
    : eng_(eng), provision_(eng.sched_->parallelism()) {
  {
    std::lock_guard<std::mutex> lock(eng_.pool_mu_);
    if (!eng_.pool_.empty()) {
      model_ = std::move(eng_.pool_.back());
      eng_.pool_.pop_back();
      return;
    }
    ++eng_.pool_total_;
  }
  // First time this concurrency depth is reached (at most the scheduler's
  // parallelism): seed a fresh replica. Every later lease reuses it. Cloned
  // from the immutable template, not global_: the aggregation loop writes
  // global_ while worker-thread leases may still be growing the pool.
  model_ = std::make_unique<nn::Model>(eng_.replica_template_);
}

Engine::ModelLease::~ModelLease() {
  std::lock_guard<std::mutex> lock(eng_.pool_mu_);
  eng_.pool_.push_back(std::move(model_));
}

void Engine::set_client_data(std::size_t c, data::Dataset ds) {
  if (running())
    throw std::logic_error(
        "fl::Engine: set_client_data while a run is in flight would race a "
        "leased replica's training task; inject a DeletionEvent into the "
        "scenario instead");
  // A cold record is re-spilled in place; its old payload is never decoded.
  pop_.clients.replace(c, std::move(ds));
}

const data::Dataset& Engine::client_data(std::size_t c) const {
  GOLDFISH_CHECK(pop_.clients.hot(),
                 "client_data() needs resident clients; population engines "
                 "keep clients cold (population()->clients)");
  return pop_.clients.resident_dataset(c);
}

bool Engine::stackable_mlp() const {
  // The `mlp<h>` factory family: Sequential[Linear → ReLU → Linear], whose
  // parameters are exactly [W1 (h,D), b1 (h), W2 (K,h), b2 (K)]. Anything
  // else (conv nets, deeper stacks) is scored per update through the pool.
  if (global_.arch_name().rfind("mlp", 0) != 0) return false;
  const auto ps = global_.params();
  if (ps.size() != 4) return false;
  return ps[0].value->rank() == 2 && ps[1].value->rank() == 1 &&
         ps[2].value->rank() == 2 && ps[3].value->rank() == 1 &&
         ps[0].value->dim(0) == ps[1].value->dim(0) &&
         ps[2].value->dim(1) == ps[0].value->dim(0) &&
         ps[2].value->dim(0) == ps[3].value->dim(0);
}

void Engine::score_updates(std::vector<ClientUpdate>& updates, bool with_mse,
                           std::vector<double>& local_acc) {
  if (stackable_) {
    stacked_score(updates, with_mse, local_acc);
    return;
  }
  // grain=1: one body is a full-model forward over the test set.
  sched_->parallel_map(
      updates.size(),
      [&](std::size_t i) {
        ModelLease lease(*this);
        nn::Model& scratch = lease.get();
        scratch.load(updates[i].params);
        const metrics::Score s = eval_.score(scratch, with_mse);
        local_acc[i] = s.accuracy;
        updates[i].mse = s.mse;
      },
      /*grain=*/1);
}

void Engine::stacked_score(std::vector<ClientUpdate>& updates, bool with_mse,
                           std::vector<double>& local_acc) {
  const long n = static_cast<long>(updates.size());
  const long h = updates[0].params[0].dim(0);   // hidden width per client
  const long d = updates[0].params[0].dim(1);   // input features
  const long k = updates[0].params[2].dim(0);   // classes
  const long nh = n * h;

  // Concatenate every client's hidden layer: rows [c·h, (c+1)·h) of the
  // stacked weight matrix are client c's W1.
  stacked_w_.resize_uninit({nh, d});
  stacked_b_.resize_uninit({nh});
  for (long c = 0; c < n; ++c) {
    const Tensor& w1 = updates[static_cast<std::size_t>(c)].params[0];
    const Tensor& b1 = updates[static_cast<std::size_t>(c)].params[1];
    std::memcpy(stacked_w_.data() + c * h * d, w1.data(),
                static_cast<std::size_t>(h * d) * sizeof(float));
    std::memcpy(stacked_b_.data() + c * h, b1.data(),
                static_cast<std::size_t>(h) * sizeof(float));
  }

  // Bound the stacked activation block at ~2^24 floats (chunk × K·h).
  const long rows_total = test_.size();
  const long chunk = rows_total * nh > (1L << 24)
                         ? std::max(256L, (1L << 24) / nh)
                         : rows_total;
  std::vector<long> correct(static_cast<std::size_t>(n), 0);
  std::vector<double> sq_err(static_cast<std::size_t>(n), 0.0);
  test_.for_each_chunk(chunk, [&](const Tensor& x, const long* y, long rows) {
    // All clients' hidden activations in one fused GEMM: relu(x·Wᵀ + b),
    // exactly the peepholed Linear→ReLU forward, column block c = client c.
    gemm_fused_into(stacked_y_, x, stacked_w_, false, true,
                    runtime::Epilogue::kBiasColRelu, stacked_b_);
    // Each client's logits head reads its strided slice of the block.
    // grain=1: each body is a whole per-client head GEMM — coarse enough
    // that per-item claims are noise and load balance matters more.
    sched_->parallel_map(
        static_cast<std::size_t>(n),
        [&](std::size_t c) {
          BufferPoolProvision provision(sched_->parallelism());
          const Tensor& w2 = updates[c].params[2];
          const Tensor& b2 = updates[c].params[3];
          Tensor logits = Tensor::uninit({rows, k});
          runtime::sgemm(false, true, rows, k, h,
                         stacked_y_.data() + static_cast<long>(c) * h, nh,
                         w2.data(), h, logits.data(), k, /*beta=*/0.0f,
                         runtime::Epilogue::kBiasCol, b2.data());
          correct[c] += metrics::correct_predictions(logits, y, rows);
          if (with_mse)
            metrics::accumulate_squared_error(softmax_rows(logits), y, rows,
                                              sq_err[c]);
        },
        /*grain=*/1);
  });
  for (std::size_t c = 0; c < updates.size(); ++c) {
    local_acc[c] = 100.0 * double(correct[c]) / double(rows_total);
    updates[c].mse =
        sq_err[c] / (double(rows_total) * double(test_.num_classes));
  }
}

/// Every dataset version each touched client trains on during the run, in
/// epoch order, by run-local slot (Schedule::Task::epoch indexes
/// epochs[task.slot]). Deletion payloads and join payloads are borrowed
/// from the scenario; flipped and poisoned versions are derived here and
/// owned by the table.
struct Engine::EpochTable {
  std::vector<std::vector<const data::Dataset*>> epochs;
  std::vector<std::unique_ptr<data::Dataset>> owned;
  /// Per slot: index into `owned` of its client's final (post-run) dataset
  /// when the last data mutation was a derived one (flip / backdoor), else
  /// -1. Engine::run commits these durably after the deletion/join commits.
  std::vector<int> final_owned;
};

Engine::EpochTable Engine::materialize_epochs(const Scenario& s,
                                              const Schedule& plan) {
  EpochTable t;
  const std::size_t slots = plan.clients.size();
  t.epochs.resize(slots);
  t.final_owned.assign(slots, -1);
  const std::size_t n0 = num_clients();
  // Epoch 0: pre-run data for existing clients, the join payload for joined
  // ones (ids are assigned in join-application order). A cold record is
  // decoded only if the run actually reads its data — a consumed training
  // task, or a flip / backdoor derivation (which transforms the current
  // data); a hot record is served from its slot. A client whose only events
  // are a deletion or a leave stays cold: its epoch-0 entry is a
  // never-dereferenced placeholder, and the commit re-spills the record
  // without reading it (the eviction-without-materialization contract,
  // pinned by ClientStateStore::materializations()).
  std::vector<bool> needs(slots, false);
  for (const Schedule::Task& tp : plan.tasks)
    if (tp.consumed_by >= 0) needs[tp.slot] = true;
  for (const TimelineRef& ev : plan.timeline)
    if (ev.kind == TimelineRef::kFlip || ev.kind == TimelineRef::kBackdoor)
      needs[ev.slot] = true;
  for (std::size_t k = 0; k < slots; ++k) {
    const std::size_t c = plan.clients[k];
    t.epochs[k].push_back(c >= n0 ? &s.joins[plan.join_order[c - n0]].dataset
                          : needs[k] ? &pop_.clients.materialize(c)
                                     : nullptr);
  }

  // Replay the data-mutating events in the exact merged order Phase A
  // applied them, so epoch numbers line up with the schedule's counters —
  // a flip after a deletion flips the post-deletion remainder, a backdoor
  // after a flip poisons the flipped data.
  for (const TimelineRef& ev : plan.timeline) {
    switch (ev.kind) {
      case TimelineRef::kDeletion: {
        t.epochs[ev.slot].push_back(&s.deletions[ev.index].new_data);
        t.final_owned[ev.slot] = -1;
        break;
      }
      case TimelineRef::kFlip: {
        auto ds = std::make_unique<data::Dataset>(*t.epochs[ev.slot].back());
        data::flip_labels(*ds);
        t.epochs[ev.slot].push_back(ds.get());
        t.final_owned[ev.slot] = static_cast<int>(t.owned.size());
        t.owned.push_back(std::move(ds));
        break;
      }
      case TimelineRef::kBackdoor: {
        const BackdoorInjectEvent& b = s.backdoors[ev.index];
        // Row selection draws from a per-event seeded stream — a pure
        // function of (seed, event index), never of thread timing.
        Rng rng(mix_seed(cfg_.seed ^ kBackdoorSalt, ev.index, 0));
        auto ds = std::make_unique<data::Dataset>(
            data::poison_dataset(*t.epochs[ev.slot].back(), b.spec,
                                 b.fraction, rng)
                .poisoned);
        t.epochs[ev.slot].push_back(ds.get());
        t.final_owned[ev.slot] = static_cast<int>(t.owned.size());
        t.owned.push_back(std::move(ds));
        break;
      }
      default:
        break;  // joins/leaves/swaps/audits do not version datasets
    }
  }
  return t;
}

// -- Phase B (plan execution) ----------------------------------------------

void Engine::execute(const Scenario& scenario, const Schedule& plan,
                     const EpochTable& epochs,
                     const std::vector<std::unique_ptr<Aggregator>>& aggregators,
                     const StepSink& sink,
                     std::vector<std::size_t>& wire_bytes) {
  const long aggregations = static_cast<long>(plan.aggs.size());

  // Per-slot dataset epochs, materialized by materialize_epochs in merged
  // timeline order: 0 = the client's starting data, 1.. = post-deletion
  // remainders and flipped/poisoned versions.
  const std::vector<std::vector<const data::Dataset*>>& epoch_data =
      epochs.epochs;

  // Group the *consumed* tasks by the server version they download;
  // everything else (evicted or past the horizon) never executes.
  const std::size_t num_tasks = plan.tasks.size();
  std::vector<std::vector<std::size_t>> by_version(
      static_cast<std::size_t>(aggregations) + 1);
  std::vector<std::atomic<long>> version_refs(
      static_cast<std::size_t>(aggregations) + 1);
  for (std::size_t id = 0; id < num_tasks; ++id) {
    const Schedule::Task& tp = plan.tasks[id];
    if (tp.consumed_by < 0) continue;
    by_version[static_cast<std::size_t>(tp.from_version)].push_back(id);
    version_refs[static_cast<std::size_t>(tp.from_version)].fetch_add(
        1, std::memory_order_relaxed);
  }

  // Version v's parameters live until the last task downloading them has
  // broadcast (the releasing task parks the storage back in the recycler).
  std::vector<std::vector<Tensor>> version_params(
      static_cast<std::size_t>(aggregations) + 1);
  std::vector<std::future<void>> futures(num_tasks);
  std::vector<ClientUpdate> task_updates(num_tasks);
  wire_bytes.assign(num_tasks, 0);
  std::vector<double> task_err(num_tasks, 0.0);
  std::vector<std::optional<ClientReport>> task_reports(num_tasks);
  // Reference-needing wires (delta) read version v's parameters during the
  // encode/decode roundtrip, so the version-release refcount drop moves
  // after the wire path for them.
  const WirePolicy* wirep = scenario.wire.get();
  const bool hold_ref = wirep->needs_reference();
  const bool lossy = !wirep->lossless();
  const long round_base = round_;

  const auto submit_version = [&](std::size_t v) {
    if (version_refs[v].load(std::memory_order_relaxed) == 0) {
      version_params[v].clear();  // nobody downloads this version
      return;
    }
    for (std::size_t id : by_version[v]) {
      futures[id] = sched_->submit([this, id, &plan, &epoch_data,
                                    &version_params, &version_refs,
                                    &task_updates, &wire_bytes, &task_err,
                                    &task_reports, wirep, hold_ref, lossy,
                                    round_base] {
        const Schedule::Task& tp = plan.tasks[id];
        const std::size_t from_v = static_cast<std::size_t>(tp.from_version);
        ModelLease lease(*this);
        nn::Model& local = lease.get();
        // Broadcast: load version v's parameters and zero the gradient
        // accumulators (exactly what copy_from does for a deep clone).
        local.load(version_params[from_v]);
        local.zero_grad();
        if (!hold_ref &&
            version_refs[from_v].fetch_sub(1, std::memory_order_acq_rel) == 1)
          version_params[from_v].clear();
        const data::Dataset& ds =
            *epoch_data[tp.slot][static_cast<std::size_t>(tp.epoch)];
        task_reports[id] =
            update_fn_(tp.client, local, ds, round_base + tp.index);
        // The upload travels as real bytes: the client encodes its trained
        // parameters, the server decodes them — what aggregation sees is the
        // decoded (possibly lossy) reconstruction. One buffer per worker
        // thread; its capacity is retained across tasks.
        static thread_local std::string wire_buf;
        std::vector<Tensor> snap = local.snapshot();
        const std::vector<Tensor>* ref = hold_ref ? &version_params[from_v] : nullptr;
        wirep->encode(snap, ref, wire_buf);
        wire_bytes[id] = wire_buf.size();
        task_updates[id].params =
            wirep->decode(wire_buf.data(), wire_buf.size(), ref);
        if (lossy)
          task_err[id] = wire_reconstruction_error(snap, task_updates[id].params);
        if (hold_ref &&
            version_refs[from_v].fetch_sub(1, std::memory_order_acq_rel) == 1)
          version_params[from_v].clear();
        task_updates[id].dataset_size = ds.size();
        task_updates[id].staleness = tp.staleness;
      });
    }
  };

  version_params[0] = global_.snapshot();
  submit_version(0);

  try {
    for (long a = 0; a < aggregations; ++a) {
      const Schedule::Agg& ap = plan.aggs[static_cast<std::size_t>(a)];
      const Aggregator& agg = *aggregators[ap.aggregator];
      // Consume the buffer in its deterministic arrival order. Draining
      // participates in the scheduler's queue, so this never deadlocks —
      // even at parallelism 1 the waiter executes the tasks itself.
      std::vector<ClientUpdate> updates;
      updates.reserve(ap.tasks.size());
      StepResult r;
      long reported = 0;
      for (std::size_t id : ap.tasks) {
        sched_->drain_until_ready(futures[id]);
        futures[id].get();  // rethrows task failures
        updates.push_back(std::move(task_updates[id]));
        r.bytes_uplinked += wire_bytes[id];
        r.encode_error += task_err[id];
        r.mean_staleness += double(plan.tasks[id].staleness);
        r.max_staleness = std::max(r.max_staleness, plan.tasks[id].staleness);
        if (const std::optional<ClientReport>& rep = task_reports[id]) {
          r.epochs_run += rep->epochs_run;
          r.terminated_early += rep->terminated_early;
          r.mean_temperature += rep->temperature;
          ++reported;
        }
      }
      r.has_distillation = reported > 0;
      if (reported > 0) r.mean_temperature /= double(reported);
      r.upload_bytes = wire_bytes[ap.tasks.front()];
      r.encode_error /= double(ap.tasks.size());
      const bool with_mse = agg.capabilities().needs_mse;
      std::vector<double> local_acc(updates.size(), 0.0);
      if (with_mse || scenario.local_accuracy)
        score_updates(updates, with_mse, local_acc);
      std::vector<Tensor> merged = agg.aggregate(updates);
      global_.load(merged);
      version_params[static_cast<std::size_t>(a) + 1] = std::move(merged);
      submit_version(static_cast<std::size_t>(a) + 1);

      r.step = a;
      r.virtual_time = ap.time;
      r.global_accuracy = eval_.accuracy(global_);
      if (ap.audit > 0) {
        // Audit the freshly aggregated model on the main thread — a pure
        // batched forward pass, so the curve is bit-identical at any thread
        // count.
        const AuditEvent& audit = scenario.audits[ap.audit - 1];
        r.has_audit = true;
        r.attack_success = metrics::attack_success_rate(global_, audit.probe);
        if (!audit.members.empty()) {
          const metrics::MiaResult mia = metrics::membership_inference(
              global_, audit.members, audit.nonmembers);
          r.mia_auc = mia.auc;
          r.mia_accuracy = mia.best_accuracy;
        }
      }
      r.mean_staleness /= double(ap.tasks.size());
      r.updates_consumed = static_cast<long>(ap.tasks.size());
      r.dropped_updates = ap.dropped_so_far;
      r.active_clients = ap.active_clients;
      r.aggregator = agg.name();
      if (scenario.local_accuracy) {
        r.has_local_accuracy = true;
        r.min_local_accuracy =
            *std::min_element(local_acc.begin(), local_acc.end());
        r.max_local_accuracy =
            *std::max_element(local_acc.begin(), local_acc.end());
        double mean = 0.0;
        for (double acc : local_acc) mean += acc;
        r.mean_local_accuracy = mean / double(local_acc.size());
      }
      if (sink) sink(r);
    }
  } catch (...) {
    // A failed client task must not leave siblings running against local
    // state that is about to be destroyed; wait them out, then rethrow.
    for (std::future<void>& f : futures)
      if (f.valid()) {
        sched_->drain_until_ready(f);
        try {
          f.get();
        } catch (...) {
        }
      }
    // The aborted run commits nothing; Engine::run returns the cohort
    // slots on its way out.
    throw;
  }
}

void Engine::run(Scenario scenario, const StepSink& sink) {
  if (running_.exchange(true, std::memory_order_acq_rel))
    throw std::logic_error("fl::Engine: run() is not reentrant");
  struct RunningGuard {
    std::atomic<bool>& flag;
    ~RunningGuard() { flag.store(false, std::memory_order_release); }
  } guard{running_};

  // Expand sybil bursts into ordinary joins before anything looks at the
  // timeline: ids stay dense, joins stay durable, and DeletionEvent /
  // ClientLeaveEvent can target each sybil individually. Expanded joins
  // carry higher declaration indices than every declared join, so at an
  // equal instant the declared joins are assigned ids first.
  for (SybilJoinEvent& sv : scenario.sybil_joins) {
    GOLDFISH_CHECK(sv.count >= 1, "sybil burst needs count >= 1");
    GOLDFISH_CHECK(!sv.dataset.empty(), "sybil clients need data");
    for (std::size_t i = 0; i + 1 < sv.count; ++i)
      scenario.joins.push_back({sv.time, sv.dataset});
    scenario.joins.push_back({sv.time, std::move(sv.dataset)});
  }
  scenario.sybil_joins.clear();

  // The run's aggregators: the configured strategy, then one per swap (an
  // unknown name throws here, before planning), each wrapped in the
  // scenario's staleness discounting.
  const double alpha = scenario.staleness_alpha < 0.0
                           ? cfg_.async.staleness_alpha
                           : scenario.staleness_alpha;
  const auto wrapped =
      [&](const std::string& name) -> std::unique_ptr<Aggregator> {
    std::unique_ptr<Aggregator> base = make_aggregator(name, cfg_.robust);
    if (alpha > 0.0)
      return std::make_unique<StalenessAggregator>(std::move(base), alpha);
    return base;
  };
  std::vector<std::unique_ptr<Aggregator>> aggregators;
  aggregators.push_back(wrapped(cfg_.aggregator));
  for (const AggregatorSwapEvent& ev : scenario.aggregator_swaps)
    aggregators.push_back(wrapped(ev.aggregator));

  // Null policies mean "the legacy behaviour derived from FlConfig".
  if (!scenario.participation)
    scenario.participation = std::make_unique<FullParticipation>();
  if (!scenario.buffer)
    scenario.buffer = std::make_unique<FixedBuffer>(cfg_.async.buffer_size);
  if (!scenario.clock)
    scenario.clock = std::make_unique<VirtualClock>(
        cfg_.seed, cfg_.async.mean_duration, cfg_.async.duration_log_jitter);
  if (!scenario.wire) scenario.wire = std::make_unique<DenseWire>();
  // Announce the encoded upload size before Phase A builds the schedule:
  // every wire's byte count is a pure function of parameter *shapes*, never
  // values, so bandwidth-aware clocks can price uploads without the schedule
  // ever depending on training results.
  scenario.clock->set_upload_bytes(
      scenario.wire->encoded_bytes(replica_template_.snapshot()));

  const Schedule plan =
      plan_schedule(scenario, active_, active_count_, run_state_);
  // However the run ends from here — committed, or aborted by a throwing
  // task or epoch derivation — every materialized cohort slot is returned:
  // a cold store's steady-state resident memory goes back to zero.
  struct ReleaseSlots {
    population::ClientStateStore& store;
    ~ReleaseSlots() { store.release_all(); }
  } release{pop_.clients};
  EpochTable epochs = materialize_epochs(scenario, plan);
  std::vector<std::size_t> wire_bytes;
  execute(scenario, plan, epochs, aggregators, sink, wire_bytes);

  // Commit the run's durable effects. Subsequent runs (and their RNG
  // streams) continue after every stream this run touched — fast clients
  // consume more task indices than there were aggregations, so the
  // aggregation count alone would under-advance.
  round_ += plan.rounds_consumed;
  population::ClientStateStore& store = pop_.clients;
  for (std::size_t ji : plan.join_order) {
    store.add(std::move(scenario.joins[ji].dataset));
    active_.push_back(true);
    ++active_count_;
  }
  // Durable telemetry, from the executed plan. A client's tasks are
  // planned in time order and server versions only grow, so its last task
  // leaves last_version at the newest version it downloaded.
  for (std::size_t id = 0; id < plan.tasks.size(); ++id) {
    const Schedule::Task& tp = plan.tasks[id];
    store.bump_tasks_started(tp.client, 1);
    store.set_last_version(tp.client, tp.from_version);
    if (tp.consumed_by >= 0) {
      store.bump_updates_aggregated(tp.client, 1);
      store.bump_bytes_uplinked(tp.client, wire_bytes[id]);
    }
  }
  // Deletions replace the client's data (a cold record is re-spilled in
  // place, its old payload never decoded). Adversarial data mutations are
  // durable too: a client whose *last* mutation was a flip or backdoor
  // keeps the hostile dataset (a later deletion supersedes both —
  // materialize_epochs clears final_owned when a deletion came last).
  for (DeletionEvent& d : scenario.deletions)
    store.replace(d.client, std::move(d.new_data));
  for (std::size_t k = 0; k < epochs.final_owned.size(); ++k)
    if (epochs.final_owned[k] >= 0)
      store.replace(plan.clients[k],
                    std::move(*epochs.owned[static_cast<std::size_t>(
                        epochs.final_owned[k])]));
  for (const ClientLeaveEvent& l : scenario.leaves)
    if (active_[l.client]) {
      active_[l.client] = false;
      --active_count_;
    }
}

std::vector<StepResult> Engine::collect(Scenario scenario) {
  std::vector<StepResult> out;
  if (scenario.aggregations > 0)
    out.reserve(static_cast<std::size_t>(scenario.aggregations));
  run(std::move(scenario), [&](const StepResult& r) { out.push_back(r); });
  return out;
}

Scenario Engine::sync_scenario(long rounds, bool local_accuracy) const {
  Scenario s;
  s.aggregations = rounds;
  s.participation = std::make_unique<FullParticipation>();
  s.buffer = std::make_unique<FixedBuffer>(0);  // K = all active clients
  s.clock = std::make_unique<VirtualClock>(cfg_.seed, 1.0, 0.0);
  s.staleness_alpha = 0.0;
  s.local_accuracy = local_accuracy;
  return s;
}

Scenario Engine::async_scenario(long aggregations,
                                std::vector<DeletionEvent> deletions) const {
  Scenario s;
  s.aggregations = aggregations;
  s.participation = std::make_unique<FullParticipation>();
  s.buffer = std::make_unique<FixedBuffer>(cfg_.async.buffer_size);
  s.clock = std::make_unique<VirtualClock>(cfg_.seed, cfg_.async.mean_duration,
                                           cfg_.async.duration_log_jitter);
  s.staleness_alpha = cfg_.async.staleness_alpha;
  s.deletions = std::move(deletions);
  return s;
}

}  // namespace goldfish::fl

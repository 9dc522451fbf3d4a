// Unlearning workloads: a closed loop of deletion requests against one
// backdoored, federated-trained model. Each request runs Goldfish round by
// round until the backdoor ASR is at or below its target and accuracy is
// within the target distance of B1's converged accuracy; B1 then retrains
// the same request from scratch to the same accuracy target. See README.md
// for why the shapes, targets and round caps are what they are.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>

#include "core/unlearner.h"
#include "data/backdoor.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/simulation.h"
#include "metrics/evaluation.h"
#include "nn/models.h"
#include "tensor/buffer_pool.h"
#include "tensor/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace goldfish;

struct Shape {
  data::DatasetKind kind;
  const char* arch;
  long train_rows;
  long test_rows;
  long clients;
  float poison_fraction;  // of the victim's (client 0's) rows
  long fl_rounds;         // contaminated-model training in setup
  long b1_ref_rounds;     // B1 to convergence, once in setup
  long local_epochs;
  float lr;               // local training and distillation
  long batch;
  long distill_epochs;    // upper bound; early termination cuts it
  long round_cap;         // Goldfish rounds before a request counts as failed
  long b1_cap;            // B1 rounds before a request counts as failed
  double acc_margin_pp;   // accuracy target = B1 converged − margin
  double asr_target_pct;  // backdoor ASR target
  double asr_landed_pct;  // setup check: contaminated ASR must exceed this
  double requests_per_s;  // requests per second of --seconds
  long gemm_m, gemm_n, gemm_k;  // dominant GEMM, for the sgemm probe
};

// unlearn-mlp: many small GEMMs; per-batch and per-task overheads (teacher
// forward, reference loss, teacher copy, adaptive MSE scoring) dominate.
const Shape kMlp{.kind = data::DatasetKind::Cifar100,
                 .arch = "mlp128",
                 .train_rows = 8000,
                 .test_rows = 1000,
                 .clients = 8,
                 .poison_fraction = 0.5f,
                 .fl_rounds = 4,
                 .b1_ref_rounds = 4,
                 .local_epochs = 2,
                 .lr = 0.05f,
                 .batch = 50,
                 .distill_epochs = 3,
                 .round_cap = 6,
                 .b1_cap = 8,
                 .acc_margin_pp = 3.0,
                 .asr_target_pct = 10.0,
                 .asr_landed_pct = 50.0,
                 .requests_per_s = 0.5,
                 .gemm_m = 50,
                 .gemm_n = 128,
                 .gemm_k = 3072};
// unlearn-conv: conv/im2col GEMMs and per-layer workspace slots dominate.
// lenet5 trains at lr 0.03: at 0.05 an occasional B1 retrain stalled below
// its target. With ten classes a clean model's ASR is near 10%, hence the
// 15% target.
const Shape kConv{.kind = data::DatasetKind::Mnist,
                  .arch = "lenet5",
                  .train_rows = 2400,
                  .test_rows = 600,
                  .clients = 4,
                  .poison_fraction = 0.8f,
                  .fl_rounds = 6,
                  .b1_ref_rounds = 4,
                  .local_epochs = 2,
                  .lr = 0.03f,
                  .batch = 50,
                  .distill_epochs = 3,
                  .round_cap = 6,
                  .b1_cap = 8,
                  .acc_margin_pp = 5.0,
                  .asr_target_pct = 15.0,
                  .asr_landed_pct = 50.0,
                  .requests_per_s = 0.4,
                  .gemm_m = 3200,
                  .gemm_n = 16,
                  .gemm_k = 150};

// The federation's data and the contaminated model are built from this
// fixed seed, as a real dataset would be fixed: --seed draws the request
// stream (which clean rows each request adds, and its unlearning seed).
// A world drawn per seed would vary the teacher, and with it the
// early-termination epoch counts, by more than the benchmark's bounds.
constexpr std::uint64_t kWorldSeed = 1;

// Share of the victim's clean rows deleted on top of its poisoned rows,
// cycled per request: it moves the adaptive temperature (Eq. 11).
constexpr double kExtraClean[] = {0.0, 0.025, 0.05, 0.075, 0.10};
constexpr long kExtraCycle = 5;

struct World {
  data::TrainTest tt;
  std::vector<data::Dataset> parts;
  std::vector<std::size_t> poisoned_rows;
  std::vector<std::size_t> clean_rows;  // victim rows that are not poisoned
  data::Dataset probe;
  nn::Model fresh;
  nn::Model contaminated;
  fl::FlConfig fl_cfg;
  double asr_before = 0.0;
  double acc_before = 0.0;
  double acc_ref = 0.0;     // B1 converged accuracy
  double acc_target = 0.0;
  double fl_train_s = 0.0;
  double peak_rss_mb = 0.0;
};

std::unique_ptr<World> setup(const Shape& sh, std::uint64_t seed) {
  auto w = std::make_unique<World>();
  w->tt = data::make_synthetic(
      data::default_spec(sh.kind, seed, sh.train_rows, sh.test_rows));
  Rng rng(mix_seed(seed, 0xDA7A, 0));
  w->parts = data::partition_iid(w->tt.train, sh.clients, rng);
  data::BackdoorSpec spec;
  spec.target_label = 0;
  spec.patch = 4;
  auto poisoned = data::poison_dataset(w->parts[0], spec, sh.poison_fraction,
                                       rng);
  w->parts[0] = std::move(poisoned.poisoned);
  w->poisoned_rows = poisoned.poisoned_indices;
  std::vector<bool> bad(static_cast<std::size_t>(w->parts[0].size()), false);
  for (std::size_t r : w->poisoned_rows) bad[r] = true;
  for (std::size_t i = 0; i < bad.size(); ++i)
    if (!bad[i]) w->clean_rows.push_back(i);
  w->probe = data::make_trigger_probe(w->tt.test, spec);

  Rng mrng(mix_seed(seed, 0x30DE1, 0));
  w->fresh = nn::make_model(sh.arch, w->tt.train.geom,
                            w->tt.train.num_classes, mrng);
  w->fl_cfg.local.epochs = sh.local_epochs;
  w->fl_cfg.local.batch_size = sh.batch;
  w->fl_cfg.local.lr = sh.lr;
  w->fl_cfg.seed = mix_seed(seed, 0xF1, 0);

  const double t0 = now_s();
  {
    fl::FederatedSim sim(w->fresh, w->parts, w->tt.test, w->fl_cfg);
    sim.engine().run(sim.engine().sync_scenario(sh.fl_rounds, false), {});
    w->contaminated = sim.global_model();
  }
  w->fl_train_s = now_s() - t0;
  w->acc_before = metrics::accuracy(w->contaminated, w->tt.test);
  w->asr_before = metrics::attack_success_rate(w->contaminated, w->probe);

  // B1's converged accuracy on the base request (the poisoned rows): the
  // level every request's accuracy target is anchored to.
  std::vector<data::Dataset> remaining = w->parts;
  remaining[0] = w->parts[0].subset(w->clean_rows);
  {
    fl::FederatedSim b1(w->fresh, std::move(remaining), w->tt.test,
                        w->fl_cfg);
    b1.engine().run(b1.engine().sync_scenario(sh.b1_ref_rounds, false),
                    [&](const fl::StepResult& s) {
                      w->acc_ref = s.global_accuracy;
                    });
  }
  w->acc_target = w->acc_ref - sh.acc_margin_pp;
  w->peak_rss_mb = peak_rss_mb();
  return w;
}

// Distillation counters gathered by the mirrored client update.
struct CoreStats {
  std::mutex mu;
  long tasks = 0;
  long epochs = 0;
  long early = 0;
  double distill_rows = 0.0;  // rows seen by goldfish_distill, Σ epochs
};

struct Outcome {
  double goldfish_s = 0.0;   // request → both targets, probe excluded
  double retrain_s = 0.0;    // B1 request → accuracy target
  double probe_s = 0.0;      // the benchmark's own ASR probes
  long rounds = 0;
  long b1_rounds = 0;
  double acc = 0.0;
  double asr = 0.0;
  bool met = false;
  bool b1_met = false;
  long updates = 0;          // aggregated client updates, Goldfish only
  std::vector<double> round_s;  // Goldfish aggregation steps
  std::string path;             // "acc/ASR" after each Goldfish round
  std::string b1_path;          // accuracy after each B1 round
  std::size_t heap_allocs = 0;  // FloatBuffer heap allocations in runs
  long runs = 0;                // engine.run calls (Goldfish + B1)
  std::size_t pool_size = 0;    // unlearner engine's replica pool
  std::size_t upload_bytes = 0;
  long sinks = 0;               // StepResults, Goldfish + B1
  double encode_error = 0.0;    // Σ over StepResults
  double staleness = 0.0;       // Σ over StepResults
};

Outcome serve(const World& w, const Shape& sh, long index,
              std::uint64_t seed, Tracer& tr, CoreStats& cs,
              std::vector<std::uint64_t>& steps) {
  Outcome o;
  tr.set_request(index);
  // The request: every poisoned row plus a cycled share of clean rows.
  std::vector<std::size_t> clean = w.clean_rows;
  Rng prng(mix_seed(seed, 0x5EED, static_cast<std::uint64_t>(index)));
  for (std::size_t i = clean.size(); i > 1; --i)
    std::swap(clean[i - 1], clean[prng.uniform_index(i)]);
  const auto extra = static_cast<std::size_t>(std::lround(
      kExtraClean[index % kExtraCycle] * double(clean.size())));
  core::UnlearnRequest req{0, w.poisoned_rows};
  req.rows.insert(req.rows.end(), clean.begin(), clean.begin() + extra);
  std::sort(req.rows.begin(), req.rows.end());

  core::UnlearnConfig ucfg;
  ucfg.distill.max_epochs = sh.distill_epochs;
  ucfg.distill.batch_size = sh.batch;
  ucfg.distill.lr = sh.lr;
  ucfg.distill.use_adaptive_temperature = true;
  ucfg.distill.use_early_termination = true;
  ucfg.aggregator = "adaptive";
  ucfg.seed = mix_seed(seed, 0xD15C, static_cast<std::uint64_t>(index));

  long consumed = 0;  // updates aggregated by the latest step
  const auto sink_into = [&](double& acc) {
    return [&](const fl::StepResult& s) {
      Scope sink(tr, "fl.sink");
      acc = s.global_accuracy;
      consumed = s.updates_consumed;
      o.upload_bytes = s.upload_bytes;
      ++o.sinks;
      o.encode_error += s.encode_error;
      o.staleness += s.mean_staleness;
      steps.push_back(step_hash(s));
    };
  };
  const auto run_one = [&](fl::Engine& eng, double& acc) {
    const std::size_t a0 = alloc_stats::heap_allocations();
    eng.run(eng.sync_scenario(1, /*local_accuracy=*/false), sink_into(acc));
    o.heap_allocs += alloc_stats::heap_allocations() - a0;
    ++o.runs;
  };

  const double t0 = now_s();
  {
    Scope request(tr, "core.request");
    std::unique_ptr<core::GoldfishUnlearner> ul;
    {
      Scope build(tr, "core.unlearner_build");
      ul = std::make_unique<core::GoldfishUnlearner>(
          w.contaminated, w.fresh, w.parts, w.tt.test, ucfg);
      ul->request_deletion({req});
    }
    if (tr.enabled()) {
      // The unlearner's own client update, call for call, with a span
      // around each part. The traced StepResult stream must equal the
      // untraced one bit for bit, which proves the mirror is faithful.
      core::GoldfishUnlearner* u = ul.get();
      ul->engine().set_client_update([&tr, &cs, u, ucfg](
                                         std::size_t c, nn::Model& student,
                                         const data::Dataset& d_r,
                                         long round) {
        Scope task(tr, "core.client_task", /*task=*/true);
        nn::Model teacher;
        {
          Scope s(tr, "core.teacher_copy");
          teacher = u->teacher_model();
        }
        core::DistillOptions opts = ucfg.distill;
        opts.seed = mix_seed(ucfg.seed ^ 0xC0FFEEull, c,
                             static_cast<std::uint64_t>(round));
        const data::Dataset& d_f = u->removed_data(c);
        float ref = 0.0f;
        {
          Scope s(tr, "core.reference_loss");
          ref = core::reference_loss_of(teacher, d_r, opts);
        }
        core::DistillResult res;
        {
          Scope s(tr, "core.distill");
          res = core::goldfish_distill(student, teacher, d_r, d_f, ref, opts);
        }
        std::lock_guard<std::mutex> lock(cs.mu);
        ++cs.tasks;
        cs.epochs += res.epochs_run;
        if (res.terminated_early) ++cs.early;
        cs.distill_rows +=
            double(d_r.size() + d_f.size()) * double(res.epochs_run);
      });
    }
    for (long r = 0; r < sh.round_cap && !o.met; ++r) {
      const double rs0 = now_s();
      {
        Scope round(tr, "fl.round");
        tr.set_task_parent(round.id());
        run_one(ul->engine(), o.acc);
      }
      o.round_s.push_back(now_s() - rs0);
      o.updates += consumed;
      ++o.rounds;
      const double p0 = now_s();
      {
        Scope probe(tr, "metrics.asr_probe");
        o.asr = metrics::attack_success_rate(ul->global_model(), w.probe);
      }
      o.probe_s += now_s() - p0;
      char step[48];
      std::snprintf(step, sizeof step, " %.2f/%.2f", o.acc, o.asr);
      o.path += step;
      o.met = o.acc >= w.acc_target && o.asr <= sh.asr_target_pct;
    }
    o.pool_size = ul->engine().pool_size();
  }
  o.goldfish_s = now_s() - t0 - o.probe_s;

  const double b0 = now_s();
  {
    Scope retrain(tr, "baselines.retrain");
    std::vector<data::Dataset> remaining = w.parts;
    remaining[0] = core::split_deletion(w.parts[0], req).remaining;
    fl::FlConfig cfg = w.fl_cfg;
    cfg.seed = ucfg.seed;
    fl::FederatedSim b1(w.fresh, std::move(remaining), w.tt.test, cfg);
    if (tr.enabled()) b1.set_client_update(traced_local_training(tr, cfg));
    double acc = 0.0;
    for (long r = 0; r < sh.b1_cap && !o.b1_met; ++r) {
      Scope round(tr, "baselines.retrain_round");
      tr.set_task_parent(round.id());
      run_one(b1.engine(), acc);
      ++o.b1_rounds;
      o.b1_met = acc >= w.acc_target;
      char step[24];
      std::snprintf(step, sizeof step, " %.2f", acc);
      o.b1_path += step;
    }
  }
  o.retrain_s = now_s() - b0;
  return o;
}


constexpr int kSetups = 3;  // setup_s is the median of this many setups

// Requests per run: requests_per_s per second of --seconds, at least one
// cycle of deletion fractions. The count, not a deadline, ends the loop, so
// every run of a seed does the same work and prints the same digest.
long requests_for(const Shape& sh, double seconds) {
  return std::max(kExtraCycle, std::lround(seconds * sh.requests_per_s));
}

// Serve requests 0 .. count-1 in a closed loop.
std::vector<Outcome> serve_loop(const World& w, const Shape& sh,
                                std::uint64_t seed, long count, Tracer& tr,
                                CoreStats& cs,
                                std::vector<std::uint64_t>& steps) {
  std::vector<Outcome> out;
  for (long i = 0; i < count; ++i)
    out.push_back(serve(w, sh, i, seed, tr, cs, steps));
  return out;
}

template <typename F>
std::vector<double> collect(const std::vector<Outcome>& os, F f) {
  std::vector<double> v;
  for (const Outcome& o : os) v.push_back(f(o));
  return v;
}

std::uint64_t digest_of(const std::vector<Outcome>& os,
                        const std::vector<std::uint64_t>& steps) {
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t s : steps) h = fold(h, s);
  for (const Outcome& o : os) {
    h = fold(h, static_cast<std::uint64_t>(o.rounds));
    h = fold(h, static_cast<std::uint64_t>(o.b1_rounds));
  }
  return h;
}

}  // namespace

RunResult run_unlearn(const Options& opt) {
  const Shape& sh = opt.workload == "unlearn-mlp" ? kMlp : kConv;
  RunResult out;

  std::vector<double> setup_times;
  std::unique_ptr<World> w;
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    w.reset();
    const double t0 = now_s();
    w = setup(sh, kWorldSeed);
    setup_times.push_back(now_s() - t0);
  }
  print_times("setup times (s):", setup_times);
  std::cout << "setup: contaminated accuracy " << w->acc_before << "%, ASR "
            << w->asr_before << "%; B1 converged accuracy " << w->acc_ref
            << "% -> target accuracy >= " << w->acc_target << "%, ASR <= "
            << sh.asr_target_pct << "%\n";
  // The backdoor must have landed, or a request could meet the ASR target
  // in zero rounds and the benchmark would time nothing.
  if (!(w->asr_before > sh.asr_landed_pct &&
        w->asr_before > 2.0 * sh.asr_target_pct)) {
    std::cout << "CHECK FAILED: backdoor did not land (ASR " << w->asr_before
              << "%)\n";
    out.correct = false;
  }

  if (!reset_peak_rss()) std::cout << "note: VmHWM reset refused\n";
  Tracer tr(opt.trace);
  CoreStats cs;
  const std::vector<Outcome> os =
      serve_loop(*w, sh, opt.seed, requests_for(sh, opt.seconds), tr, cs,
                 out.steps);
  const double rss = peak_rss_mb();

  for (const Outcome& o : os) {
    ++out.attempted;
    if (!(o.met && o.b1_met)) ++out.failed;
  }
  out.digest = digest_of(os, out.steps);

  const auto gold = collect(os, [](const Outcome& o) { return o.goldfish_s; });
  const auto b1 = collect(os, [](const Outcome& o) { return o.retrain_s; });
  std::vector<double> steps_s;
  for (const Outcome& o : os)
    steps_s.insert(steps_s.end(), o.round_s.begin(), o.round_s.end());
  const double unlearn_p50 = median(gold);
  const double retrain_p50 = median(b1);

  std::cout << "requests: " << os.size() << " (closed loop, one at a time)\n";
  for (std::size_t i = 0; i < os.size(); ++i) {
    const Outcome& o = os[i];
    std::cout << "  request " << i << ": goldfish " << o.goldfish_s << " s / "
              << o.rounds << " rounds (acc " << o.acc << "%, ASR " << o.asr
              << "%)" << (o.met ? "" : " MISSED") << "; B1 " << o.retrain_s
              << " s / " << o.b1_rounds << " rounds"
              << (o.b1_met ? "" : " MISSED") << "\n    Goldfish acc/ASR by round:"
              << o.path << "; B1 acc by round:" << o.b1_path << "\n";
  }

  if (!opt.trace) {
    out.set("setup_s", median(setup_times), "s");
    out.set("request_p50_s", unlearn_p50, "s");
    out.set("unlearn_p50_s", unlearn_p50, "s");
    out.set("unlearn_rounds_p50",
            median(collect(os, [](const Outcome& o) {
              return double(o.rounds);
            })),
            "count");
    out.set("unlearn_acc_pct",
            median(collect(os, [](const Outcome& o) { return o.acc; })), "%");
    out.set("unlearn_asr_pct",
            median(collect(os, [](const Outcome& o) { return o.asr; })), "%");
    out.set("retrain_p50_s", retrain_p50, "s");
    out.set("goldfish_over_b1", unlearn_p50 / retrain_p50, "ratio");
    out.set("updates_per_s", median(collect(os, [](const Outcome& o) {
              return double(o.updates) / o.goldfish_s;
            })),
            "1/s");
    out.set("step_p50_ms", 1e3 * median(steps_s), "ms");
    out.set("step_p99_ms", 1e3 * quantile(steps_s, 0.99), "ms");
    out.set("step_samples", double(steps_s.size()), "count");
    out.set("peak_rss_mb", rss, "MB");
    out.set("fail_ratio", double(out.failed) / double(out.attempted),
            "ratio");
    return out;
  }

  // Traced run: replay the same requests untraced and require a bitwise
  // equal StepResult stream; the difference in time is tracing overhead.
  Tracer off(false);
  CoreStats replay_stats;
  std::vector<std::uint64_t> plain_steps;
  const std::vector<Outcome> plain =
      serve_loop(*w, sh, opt.seed, static_cast<long>(os.size()), off, replay_stats,
                 plain_steps);
  const bool equal = plain_steps == out.steps;
  std::cout << "traced vs untraced StepResult streams: "
            << (equal ? "bitwise equal" : "DIFFER") << " ("
            << out.steps.size() << " steps)\n";
  if (!equal) out.correct = false;

  const double n_req = double(os.size());
  const auto mean = [&](const char* name) {
    const long n = tr.count(name);
    return n > 0 ? tr.total(name) / double(n) : 0.0;
  };
  out.set("core.unlearner_build_s", mean("core.unlearner_build"), "s");
  out.set("core.teacher_copy_s", mean("core.teacher_copy"), "s");
  out.set("core.reference_loss_s", mean("core.reference_loss"), "s");
  out.set("core.distill_s", mean("core.distill"), "s");
  out.set("core.client_task_max_s", tr.longest("core.client_task"), "s");
  out.set("core.distill_rows_per_s",
          cs.distill_rows / tr.total("core.distill"), "1/s");
  out.set("core.epochs_per_request", double(cs.epochs) / n_req, "count");
  out.set("core.early_stop_ratio", double(cs.early) / double(cs.tasks),
          "ratio");
  out.set("fl.round_s", mean("fl.round"), "s");
  out.set("fl.server_s",
          tr.uncovered("fl.round", "core.client_task") /
              double(tr.count("fl.round")),
          "s");
  out.set("baselines.retrain_round_s", mean("baselines.retrain_round"), "s");
  out.set("fl.client_task_ms", 1e3 * mean("fl.client_task"), "ms");
  out.set("fl.upload_bytes", double(os.back().upload_bytes), "B");
  out.set("fl.pool_size", double(os.back().pool_size), "count");
  double allocs = 0.0, runs = 0.0, sinks = 0.0, err = 0.0, stale = 0.0;
  for (const Outcome& o : os) {
    allocs += double(o.heap_allocs);
    runs += double(o.runs);
    sinks += double(o.sinks);
    err += o.encode_error;
    stale += o.staleness;
  }
  out.set("fl.encode_error", err / sinks, "ratio");
  out.set("fl.mean_staleness", stale / sinks, "count");
  out.set("tensor.heap_allocs_per_step", allocs / runs, "count");
  out.set("metrics.asr_probe_s", mean("metrics.asr_probe"), "s");
  out.set("setup.fl_train_s", w->fl_train_s, "s");
  out.set("setup.peak_rss_mb", w->peak_rss_mb, "MB");
  out.set("trace.overhead_s",
          unlearn_p50 - median(collect(plain, [](const Outcome& o) {
            return o.goldfish_s;
          })),
          "s");
  out.set("trace.bitwise_equal", equal ? 1.0 : 0.0, "count");

  ProbeShape ps;
  ps.model = w->fresh;
  ps.batch_source = w->parts[1];
  ps.eval_set = &w->tt.test;
  ps.batch = sh.batch;
  ps.updates = sh.clients;
  ps.gemm_m = sh.gemm_m;
  ps.gemm_n = sh.gemm_n;
  ps.gemm_k = sh.gemm_k;
  probe_layers(ps, tr, out);

  finish_trace(tr, opt, out);
  return out;
}

}  // namespace perfbench

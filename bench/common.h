// Shared experiment harness for the bench binaries.
//
// Every bench regenerates one table or figure of the paper. Two scales:
//   * quick (default): small synthetic datasets and lighter architectures so
//     the full bench suite finishes in minutes on a laptop;
//   * full (GOLDFISH_SCALE=full): the paper's architectures (LeNet-5,
//     modified LeNet-5, ResNet-32/56) and 4× data/rounds.
// The *shape* of every result (who wins, where curves cross) is stable
// across scales.
#pragma once

#include <cstdio>
#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <sys/stat.h>

#include "baselines/incompetent_teacher.h"
#include "baselines/rapid_retrain.h"
#include "baselines/retrain_scratch.h"
#include "core/unlearner.h"
#include "data/backdoor.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "metrics/divergence.h"
#include "metrics/evaluation.h"
#include "metrics/report.h"
#include "nn/models.h"

namespace goldfish::bench {

/// Process peak resident set size (VmHWM) in bytes, read from
/// /proc/self/status — the OS-level counterpart of the population store's
/// own resident_bytes accounting. 0 where procfs is unavailable, so gates
/// built on it must pair with the store counters rather than replace them.
inline std::size_t process_peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10));
      break;
    }
  std::fclose(f);
  return kb * 1024;
}

/// Where CSV outputs land (next to the binary's working directory).
inline std::string csv_dir() {
  static const std::string dir = [] {
    ::mkdir("bench_results", 0755);
    return std::string("bench_results");
  }();
  return dir;
}

/// Per-dataset experiment profile.
struct DatasetProfile {
  data::DatasetKind kind;
  std::string arch;        // architecture at this scale
  long train_size;         // total federated training set
  long test_size;
  long clients = 3;
  long fl_rounds;          // original federated training rounds
  long local_epochs = 3;
  float lr = 0.05f;
  long batch = 50;
};

/// Profiles per dataset. Quick scale trades the paper's exact conv
/// architectures for small ones; full scale uses the paper's models.
inline DatasetProfile profile(data::DatasetKind kind) {
  const bool full = metrics::full_scale();
  DatasetProfile p;
  p.kind = kind;
  switch (kind) {
    case data::DatasetKind::Mnist:
    case data::DatasetKind::FashionMnist:
      p.arch = full ? "lenet5" : "mlp64";
      p.train_size = full ? 2400 : 600;
      p.test_size = full ? 600 : 200;
      p.fl_rounds = full ? 10 : 6;
      break;
    case data::DatasetKind::Cifar10:
      p.arch = full ? "modified_lenet5" : "mlp96";
      p.train_size = full ? 1800 : 600;
      p.test_size = full ? 500 : 200;
      p.fl_rounds = full ? 10 : 6;
      break;
    case data::DatasetKind::Cifar100:
      p.arch = full ? "resnet56" : "mlp128";
      p.train_size = full ? 1500 : 800;
      p.test_size = full ? 500 : 250;
      p.fl_rounds = full ? 10 : 8;
      p.lr = 0.05f;
      break;
  }
  return p;
}

/// A fully prepared backdoor-unlearning scenario: federated training data
/// (client 0 poisoned), the contaminated global model, the clean test set
/// and the trigger probe.
struct Scenario {
  DatasetProfile prof;
  data::TrainTest tt;
  std::vector<data::Dataset> parts;
  std::vector<std::size_t> poisoned_rows;  // rows of client 0
  data::BackdoorSpec spec;
  data::Dataset probe;
  nn::Model fresh;    // ω0
  nn::Model trained;  // contaminated global model ("origin")

  /// Remaining/removed split of the victim client.
  std::vector<data::Dataset> remaining() const {
    std::vector<data::Dataset> r = parts;
    r[0] = parts[0].subset(kept_rows());
    return r;
  }
  std::vector<data::Dataset> removed() const {
    std::vector<data::Dataset> r(parts.size());
    r[0] = parts[0].subset(poisoned_rows);
    return r;
  }
  std::vector<std::size_t> kept_rows() const {
    std::vector<std::size_t> keep;
    std::set<std::size_t> bad(poisoned_rows.begin(), poisoned_rows.end());
    for (long i = 0; i < parts[0].size(); ++i)
      if (bad.count(static_cast<std::size_t>(i)) == 0)
        keep.push_back(static_cast<std::size_t>(i));
    return keep;
  }
};

/// Build a scenario: synthesize the dataset, partition IID, poison
/// `deletion_rate` of client 0, and federatedly train the original model.
inline Scenario make_scenario(data::DatasetKind kind, float deletion_rate,
                              std::uint64_t seed) {
  Scenario s;
  s.prof = profile(kind);
  s.tt = data::make_synthetic(
      data::default_spec(kind, seed, s.prof.train_size, s.prof.test_size));
  Rng rng(seed ^ 0xABCD);
  s.parts = data::partition_iid(s.tt.train, s.prof.clients, rng);

  s.spec.target_label = 0;
  s.spec.patch = 4;
  auto poisoned = data::poison_dataset(s.parts[0], s.spec, deletion_rate, rng);
  s.parts[0] = poisoned.poisoned;
  s.poisoned_rows = poisoned.poisoned_indices;
  s.probe = data::make_trigger_probe(s.tt.test, s.spec);

  Rng mrng(seed ^ 0xBEEF);
  s.fresh = nn::make_model(s.prof.arch, s.tt.train.geom,
                           s.tt.train.num_classes, mrng);
  s.trained = s.fresh;
  fl::FlConfig cfg;
  cfg.local.epochs = s.prof.local_epochs;
  cfg.local.batch_size = s.prof.batch;
  cfg.local.lr = s.prof.lr;
  cfg.seed = seed;
  fl::Engine eng(s.trained, s.parts, s.tt.test, cfg);
  eng.run(eng.sync_scenario(s.prof.fl_rounds), {});
  s.trained = eng.global_model();
  return s;
}

/// Unlearning-method outcomes used by several tables.
struct MethodResult {
  nn::Model model;
  double accuracy = 0.0;
  double asr = 0.0;
};

inline MethodResult eval_model(nn::Model model, const Scenario& s) {
  MethodResult r;
  r.accuracy = metrics::accuracy(model, s.tt.test);
  r.asr = metrics::attack_success_rate(model, s.probe);
  r.model = std::move(model);
  return r;
}

/// Goldfish unlearning (ours): distillation-based retraining.
inline MethodResult run_ours(const Scenario& s, long rounds,
                             std::uint64_t seed = 1001) {
  core::UnlearnConfig cfg;
  cfg.distill.max_epochs = s.prof.local_epochs + 1;
  cfg.distill.batch_size = s.prof.batch;
  cfg.distill.lr = s.prof.lr;
  cfg.distill.use_early_termination = false;
  cfg.seed = seed;
  core::GoldfishUnlearner ul(s.trained, s.fresh, s.parts, s.tt.test, cfg);
  ul.request_deletion({{0, s.poisoned_rows}});
  ul.run(rounds);
  return eval_model(ul.global_model(), s);
}

/// B1: retrain from scratch on remaining data.
inline MethodResult run_b1(const Scenario& s, long rounds,
                           std::uint64_t seed = 2002) {
  fl::FlConfig cfg;
  cfg.local.epochs = s.prof.local_epochs;
  cfg.local.batch_size = s.prof.batch;
  cfg.local.lr = s.prof.lr;
  cfg.seed = seed;
  nn::Model out;
  baselines::retrain_from_scratch(s.fresh, s.remaining(), s.tt.test, cfg,
                                  rounds, &out);
  return eval_model(std::move(out), s);
}

/// B2: rapid retraining (diag-FIM preconditioned).
inline MethodResult run_b2(const Scenario& s, long rounds,
                           std::uint64_t seed = 3003) {
  baselines::RapidRetrainConfig cfg;
  cfg.fl.local.epochs = s.prof.local_epochs;
  cfg.fl.local.batch_size = s.prof.batch;
  cfg.fl.local.lr = s.prof.lr;
  cfg.fl.seed = seed;
  nn::Model trained = s.trained;
  nn::Model out;
  baselines::rapid_retrain(s.fresh, trained, s.remaining(), s.tt.test, cfg,
                           rounds, &out);
  return eval_model(std::move(out), s);
}

/// B3: incompetent-teacher unlearning.
inline MethodResult run_b3(const Scenario& s, long rounds,
                           std::uint64_t seed = 4004) {
  baselines::IncompetentTeacherConfig cfg;
  cfg.fl.local.epochs = s.prof.local_epochs + 1;
  cfg.fl.local.batch_size = s.prof.batch;
  cfg.fl.local.lr = s.prof.lr;
  cfg.fl.seed = seed;
  cfg.forget_weight = 2.0f;
  Rng rng(seed ^ 0xF00D);
  nn::Model incompetent = nn::make_model(
      s.prof.arch, s.tt.train.geom, s.tt.train.num_classes, rng);
  nn::Model out;
  baselines::incompetent_teacher_unlearn(s.trained, incompetent,
                                         s.remaining(), s.removed(),
                                         s.tt.test, cfg, rounds, &out);
  return eval_model(std::move(out), s);
}

/// Deletion-rate sweep used by Fig. 5 and Tables III–VI (percent values).
inline std::vector<float> deletion_rates() {
  return {0.02f, 0.04f, 0.06f, 0.08f, 0.10f, 0.12f};
}

inline void print_header(const std::string& what) {
  std::cout << "goldfish bench — " << what
            << (metrics::full_scale() ? " [scale=full]" : " [scale=quick]")
            << "\n";
}

}  // namespace goldfish::bench

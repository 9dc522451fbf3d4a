// Scenario example: the data-partition optimization (Fig. 2–3, Eq. 8–10).
//
// One client's local data is split into shards, each with its own model;
// the client's model is the size-weighted shard average. A deletion request
// touches only some shards, so only those retrain — from their checkpoints,
// not from scratch. This example measures the retraining saving directly
// (rows on stdout, wall time on stderr).
//
// Sharding is the *intra-client* deletion optimization; the *server-side*
// half of a deletion (evicting the client's stale uploads mid-buffer) is a
// fl::DeletionEvent on the engine's scenario timeline — see
// examples/scenario_stream.cpp for the two composed in one run.
//
// Run: ./build/examples/sharded_deletion
#include <chrono>
#include <iostream>

#include "core/sharding.h"
#include "data/synthetic.h"
#include "metrics/evaluation.h"
#include "metrics/report.h"
#include "nn/models.h"

int main() {
  using namespace goldfish;
  using Clock = std::chrono::steady_clock;
  std::cout << "== Sharded deletion demo ==\n";

  // Large-ish local dataset with moderated noise so every shard has enough
  // rows to train (the paper shards a 60k-sample MNIST).
  auto spec = data::default_spec(data::DatasetKind::Mnist, 70, 1800, 200);
  spec.noise_scale = 0.6f;
  auto tt = data::make_synthetic(spec);
  Rng mrng(71);
  nn::Model init = nn::make_mlp(tt.train.geom, 64, 10, mrng);
  fl::TrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 50;
  opts.lr = 0.05f;

  for (long shards : {1L, 6L}) {
    Rng rng(72);
    core::ShardManager mgr(init, tt.train, shards, rng);
    for (int r = 0; r < 3; ++r) mgr.train_all(opts);

    // The deletion request: 24 rows that all live in the last shard (one
    // user's data is typically colocated, which is what makes sharding pay
    // off — only that shard retrains).
    const auto& victim_rows = mgr.shard_row_ids(shards - 1);
    std::vector<std::size_t> doomed(victim_rows.begin(),
                                    victim_rows.begin() + 24);
    nn::Model m = init;
    m.load(mgr.aggregate());
    std::cout << "\nτ = " << shards << " shard(s): accuracy before deletion "
              << metrics::fmt(metrics::accuracy(m, tt.test)) << "%\n";

    const auto t0 = Clock::now();
    const auto report = mgr.delete_rows(doomed, opts);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        Clock::now() - t0)
                        .count();
    m.load(mgr.aggregate());
    // Wall time goes to stderr: stdout stays identical at any thread count.
    std::cerr << "  τ = " << shards << ": retrain took " << ms << " ms\n";
    std::cout << "  deletion touched " << report.affected_shards.size()
              << "/" << shards << " shards, retrained "
              << report.rows_retrained << "/" << mgr.total_rows() << " rows\n"
              << "  accuracy after deletion "
              << metrics::fmt(metrics::accuracy(m, tt.test)) << "%\n";
  }
  std::cout << "\nexpected shape: with τ = 6 only a fraction of rows "
               "retrain, so deletion is markedly cheaper than τ = 1 at "
               "similar accuracy.\n";
  return 0;
}

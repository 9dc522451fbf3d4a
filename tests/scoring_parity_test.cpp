// The server's one scoring step has two implementations: the stacked pass
// for the `mlp<h>` family and one leased-replica forward per update for
// every other architecture. Both must score the same decoded update the
// same way, so an `mlp16` federation and a structural twin the engine does
// not recognize as stackable produce bitwise-equal telemetry and models —
// under a lossless wire and under a lossy one, where scoring the trained
// model instead of the decoded upload would show.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/models.h"
#include "nn/sequential.h"

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

/// Sequential[Linear, ReLU, Linear] like make_mlp, under a name outside the
/// `mlp` family, holding `like`'s parameters.
nn::Model twin_of(const nn::Model& like, const nn::InputGeom& geom) {
  Rng rng(0);
  auto net = std::make_unique<nn::Sequential>();
  net->add(std::make_unique<nn::Linear>(geom.flat(), 16, rng));
  net->add(std::make_unique<nn::ReLU>());
  net->add(std::make_unique<nn::Linear>(16, 10, rng));
  nn::Model twin("twin16", std::move(net), 10);
  twin.load(like.snapshot());
  return twin;
}

std::vector<fl::StepResult> run(const nn::Model& global,
                                const std::vector<data::Dataset>& parts,
                                const data::Dataset& test, bool topk,
                                std::vector<Tensor>& final_params) {
  fl::FlConfig cfg;
  cfg.aggregator = "adaptive";
  cfg.local.epochs = 1;
  cfg.local.batch_size = 40;
  cfg.local.lr = 0.05f;
  fl::Engine eng(global, parts, test, cfg);
  fl::Scenario s = eng.sync_scenario(2);
  if (topk)
    s.wire = std::make_unique<fl::TopKWire>(0.05);
  else
    s.wire = std::make_unique<fl::DenseWire>();
  std::vector<fl::StepResult> out = eng.collect(std::move(s));
  final_params = eng.global_model().snapshot();
  return out;
}

TEST(ScoringPaths, StackedAndPerModelScoringAgreeBitwise) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 131, 240, 90));
  Rng rng(132);
  const std::vector<data::Dataset> parts =
      data::partition_iid(tt.train, 3, rng);
  const nn::Model mlp = nn::make_mlp(tt.train.geom, 16, 10, rng);
  const nn::Model twin = twin_of(mlp, tt.train.geom);

  for (bool topk : {false, true}) {
    SCOPED_TRACE(topk ? "TopKWire(0.05)" : "DenseWire");
    std::vector<Tensor> mlp_final, twin_final;
    const auto a = run(mlp, parts, tt.test, topk, mlp_final);
    const auto b = run(twin, parts, tt.test, topk, twin_final);
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), 2u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a[i].has_local_accuracy && b[i].has_local_accuracy);
      EXPECT_TRUE(bits_equal(a[i].global_accuracy, b[i].global_accuracy))
          << "step " << i;
      EXPECT_TRUE(
          bits_equal(a[i].min_local_accuracy, b[i].min_local_accuracy))
          << "step " << i;
      EXPECT_TRUE(
          bits_equal(a[i].max_local_accuracy, b[i].max_local_accuracy))
          << "step " << i;
      EXPECT_TRUE(
          bits_equal(a[i].mean_local_accuracy, b[i].mean_local_accuracy))
          << "step " << i << ": " << a[i].mean_local_accuracy << " vs "
          << b[i].mean_local_accuracy;
    }
    EXPECT_TRUE(snapshots_bitwise_equal(mlp_final, twin_final));
  }
}

}  // namespace
}  // namespace goldfish

// Model-level semantics: snapshot/load, cloning, parameter-space arithmetic,
// SGD behaviour, and that training actually learns.
#include <gtest/gtest.h>

#include <cstring>

#include "nn/models.h"
#include "nn/sgd.h"
#include "losses/hard_loss.h"
#include "pool_probe.h"
#include "tensor/buffer_pool.h"

namespace goldfish {
namespace {

nn::Model tiny_mlp(std::uint64_t seed = 1) {
  Rng rng(seed);
  return nn::make_mlp({1, 2, 2}, 8, 3, rng);
}

TEST(Model, SnapshotLoadRoundTrip) {
  nn::Model m = tiny_mlp();
  auto snap = m.snapshot();
  // Perturb, then restore.
  auto ps = m.params();
  (*ps[0].value)[0] += 5.0f;
  m.load(snap);
  EXPECT_FLOAT_EQ((*m.params()[0].value)[0], snap[0][0]);
}

TEST(Model, LoadRejectsWrongLayout) {
  nn::Model m = tiny_mlp();
  auto snap = m.snapshot();
  snap.pop_back();
  EXPECT_THROW(m.load(snap), CheckError);
}

TEST(Model, CopyIsDeep) {
  nn::Model a = tiny_mlp();
  nn::Model b = a;
  (*a.params()[0].value)[0] += 3.0f;
  EXPECT_NE((*a.params()[0].value)[0], (*b.params()[0].value)[0]);
}

// Model::backward accumulates parameter gradients only: they must be
// bitwise those of the root's full backward, and the first parameterized
// layer (plus the parameter-free Unflatten in front of it) must never write
// an input gradient.
TEST(ModelBackward, ParameterGradientsMatchFullBackward) {
  struct Case {
    const char* arch;
    nn::InputGeom geom;
    // Input gradients of the model's input shape that a full backward
    // writes: the first Linear's, or the first Conv2d's and Unflatten's.
    std::size_t input_grads;
  };
  // Geometries chosen so that no other buffer has the input's size (the
  // probe below tells buffers apart by their size only).
  const Case cases[] = {{"mlp16", {1, 5, 5}, 1},
                        {"lenet5", {1, 20, 20}, 2},
                        {"resnet8", {3, 8, 8}, 2}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.arch);
    Rng rng(71);
    nn::Model params_only = nn::make_model(c.arch, c.geom, 10, rng);
    nn::Model full = params_only;
    losses::CrossEntropyLoss ce;
    // Two accumulating passes, the second with a different batch height.
    const long rows[] = {13, 7};
    std::vector<Tensor> xs;
    std::vector<std::vector<long>> ys;
    for (long n : rows) {
      xs.push_back(Tensor::randn({n, c.geom.flat()}, rng));
      ys.emplace_back();
      for (long i = 0; i < n; ++i) ys.back().push_back(i % 10);
    }
    const auto params_only_passes = [&] {
      for (std::size_t p = 0; p < xs.size(); ++p)
        params_only.backward(
            ce.eval(params_only.forward(xs[p], true), ys[p]).grad_logits);
    };
    const auto full_passes = [&] {
      for (std::size_t p = 0; p < xs.size(); ++p)
        (void)full.root().backward(
            ce.eval(full.forward(xs[p], true), ys[p]).grad_logits);
    };
    if (alloc_stats::enabled()) {
      // Both models keep the same forward buffers of the first batch's
      // input size; the full backward adds its input gradients to them.
      const std::size_t input_floats =
          static_cast<std::size_t>(rows[0] * c.geom.flat());
      const std::size_t kept_params_only =
          pooled_blocks_kept(input_floats, params_only_passes);
      const std::size_t kept_full =
          pooled_blocks_kept(input_floats, full_passes);
      EXPECT_EQ(kept_full, kept_params_only + c.input_grads);
    } else {
      params_only_passes();
      full_passes();
    }
    const auto pa = params_only.params();
    const auto pb = full.params();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      if (pa[i].grad == nullptr) continue;
      ASSERT_TRUE(pa[i].grad->same_shape(*pb[i].grad));
      EXPECT_EQ(std::memcmp(pa[i].grad->data(), pb[i].grad->data(),
                            pa[i].grad->numel() * sizeof(float)),
                0)
          << pa[i].name;
    }
  }
}

// Every way of copying a trained model — the copy constructor, operator=
// and Layer::clone — allocates its parameters and zeroed gradients and no
// pass buffer: a copy carries nothing its source's passes left behind, so
// its backward before its own forward has nothing to read.
TEST(Model, CopiesOfTrainedModelAllocateParametersOnly) {
  if (!alloc_stats::enabled())
    GTEST_SKIP() << "needs GOLDFISH_ALLOC_STATS";
  for (const char* arch : {"mlp16", "lenet5", "resnet8"}) {
    SCOPED_TRACE(arch);
    const nn::InputGeom geom{3, 12, 12};
    Rng rng(29);
    nn::Model m = nn::make_model(arch, geom, 10, rng);
    nn::Model assigned = nn::make_model(arch, geom, 10, rng);
    const Tensor x = Tensor::randn({9, geom.flat()}, rng);
    const std::vector<long> y{0, 1, 2, 3, 4, 5, 6, 7, 8};
    losses::CrossEntropyLoss ce;
    for (nn::Model* model : {&m, &assigned}) {
      nn::Sgd sgd;
      model->backward(ce.eval(model->forward(x, true), y).grad_logits);
      sgd.step(*model);
      (void)model->forward(x, false);
    }
    std::size_t tensors = 0;
    for (const nn::ParamRef& p : m.params()) tensors += p.grad ? 2 : 1;

    std::size_t before = alloc_stats::heap_allocations();
    nn::Model copy = m;
    EXPECT_EQ(alloc_stats::heap_allocations() - before, tensors);

    before = alloc_stats::heap_allocations();
    assigned = m;
    EXPECT_EQ(alloc_stats::heap_allocations() - before, tensors);

    before = alloc_stats::heap_allocations();
    std::unique_ptr<nn::Layer> root = m.root().clone();
    EXPECT_EQ(alloc_stats::heap_allocations() - before, tensors);

    const Tensor g = Tensor::ones({9, 10});
    EXPECT_THROW(copy.backward(g), CheckError);
    EXPECT_THROW(assigned.backward(g), CheckError);
    EXPECT_THROW((void)root->backward(g), CheckError);
  }
}

// A copy of a model that has run a forward copies parameters only: one
// FloatBuffer per parameter value and one per zeroed gradient, none for the
// im2col columns, cached inputs or outputs of the last pass. It computes
// bitwise the same logits.
TEST(Model, CloneOfForwardedLenetCopiesParametersOnly) {
  Rng rng(23);
  nn::Model m = nn::make_model("lenet5", {1, 28, 28}, 10, rng);
  const Tensor x = Tensor::randn({16, 784}, rng);
  const Tensor logits = m.forward(x, true);

  std::size_t tensors = 0;
  for (const nn::ParamRef& p : m.params()) tensors += p.grad ? 2 : 1;
  const std::size_t before = alloc_stats::heap_allocations();
  nn::Model copy = m;
  if (alloc_stats::enabled()) {
    EXPECT_EQ(alloc_stats::heap_allocations() - before, tensors);
  }

  // No cached columns or inputs: a backward before the copy's own forward
  // has nothing to read.
  EXPECT_THROW(copy.backward(Tensor::zeros(logits.shape())), CheckError);
  const Tensor& again = copy.forward(x, true);
  ASSERT_TRUE(again.same_shape(logits));
  EXPECT_EQ(std::memcmp(again.data(), logits.data(),
                        logits.numel() * sizeof(float)),
            0);
}

TEST(Model, ZeroGradClearsAccumulators) {
  nn::Model m = tiny_mlp();
  Rng rng(2);
  Tensor x = Tensor::randn({4, 4}, rng);
  losses::CrossEntropyLoss ce;
  const std::vector<long> y{0, 1, 2, 0};
  auto r = ce.eval(m.forward(x, true), y);
  m.backward(r.grad_logits);
  bool any_nonzero = false;
  for (auto p : m.params())
    if (p.grad != nullptr && p.grad->squared_norm() > 0) any_nonzero = true;
  EXPECT_TRUE(any_nonzero);
  m.zero_grad();
  for (auto p : m.params()) {
    if (p.grad != nullptr) {
      EXPECT_FLOAT_EQ(p.grad->squared_norm(), 0.0f);
    }
  }
}

TEST(SnapshotArithmetic, AxpyAndDistance) {
  nn::Model a = tiny_mlp(1);
  nn::Model b = tiny_mlp(2);
  auto sa = a.snapshot();
  auto sb = b.snapshot();
  const float d0 = nn::snapshot_distance_sq(sa, sb);
  EXPECT_GT(d0, 0.0f);
  // sa + 1.0·(sb − sa) = sb
  std::vector<Tensor> diff = sb;
  nn::axpy(diff, sa, -1.0f);
  nn::axpy(sa, diff, 1.0f);
  EXPECT_NEAR(nn::snapshot_distance_sq(sa, sb), 0.0f, 1e-8f);
}

TEST(SnapshotArithmetic, WeightedAverageInterpolates) {
  nn::Model a = tiny_mlp(3);
  nn::Model b = tiny_mlp(4);
  auto avg = nn::weighted_average({a.snapshot(), b.snapshot()}, {1.0f, 1.0f});
  for (std::size_t t = 0; t < avg.size(); ++t)
    for (std::size_t i = 0; i < avg[t].numel(); ++i)
      EXPECT_NEAR(avg[t][i],
                  0.5f * (a.snapshot()[t][i] + b.snapshot()[t][i]), 1e-6f);
}

TEST(SnapshotArithmetic, WeightedAverageUnnormalizedWeights) {
  nn::Model a = tiny_mlp(5);
  auto avg =
      nn::weighted_average({a.snapshot(), a.snapshot()}, {2.0f, 6.0f});
  // Averaging a model with itself is identity regardless of weights.
  EXPECT_NEAR(nn::snapshot_distance_sq(avg, a.snapshot()), 0.0f, 1e-10f);
}

TEST(SnapshotArithmetic, ZeroWeightsThrow) {
  nn::Model a = tiny_mlp(6);
  EXPECT_THROW(nn::weighted_average({a.snapshot()}, {0.0f}), CheckError);
  EXPECT_THROW(nn::weighted_average({a.snapshot()}, {-1.0f}), CheckError);
}

TEST(Sgd, StepMovesAgainstGradient) {
  nn::Model m = tiny_mlp(7);
  nn::Sgd::Options o;
  o.lr = 0.1f;
  o.momentum = 0.0f;
  o.clip_norm = 0.0f;
  nn::Sgd sgd(o);
  auto ps = m.params();
  const float w0 = (*ps[0].value)[0];
  (*ps[0].grad)[0] = 2.0f;
  sgd.step(m);
  EXPECT_FLOAT_EQ((*m.params()[0].value)[0], w0 - 0.2f);
  // Gradients cleared after the step.
  EXPECT_FLOAT_EQ((*m.params()[0].grad)[0], 0.0f);
}

TEST(Sgd, MomentumAccumulates) {
  nn::Model m = tiny_mlp(8);
  nn::Sgd::Options o;
  o.lr = 1.0f;
  o.momentum = 0.5f;
  o.clip_norm = 0.0f;
  nn::Sgd sgd(o);
  const float w0 = (*m.params()[0].value)[0];
  (*m.params()[0].grad)[0] = 1.0f;
  sgd.step(m);  // v=1, w -= 1
  (*m.params()[0].grad)[0] = 1.0f;
  sgd.step(m);  // v=1.5, w -= 1.5
  EXPECT_NEAR((*m.params()[0].value)[0], w0 - 2.5f, 1e-6f);
}

TEST(Sgd, ClipNormLimitsStep) {
  nn::Model m = tiny_mlp(9);
  nn::Sgd::Options o;
  o.lr = 1.0f;
  o.momentum = 0.0f;
  o.clip_norm = 1.0f;
  nn::Sgd sgd(o);
  const float w0 = (*m.params()[0].value)[0];
  (*m.params()[0].grad)[0] = 100.0f;  // norm 100 → scaled to 1
  sgd.step(m);
  EXPECT_NEAR((*m.params()[0].value)[0], w0 - 1.0f, 1e-4f);
}

TEST(Training, MlpLearnsSeparableBlobs) {
  // Two Gaussian blobs in 2-D; an MLP should reach near-perfect train
  // accuracy in a few epochs — the "does anything learn at all" smoke test.
  Rng rng(10);
  const long n = 200;
  Tensor x({n, 4});
  std::vector<long> y(n);
  for (long i = 0; i < n; ++i) {
    const long label = i % 2;
    for (long j = 0; j < 4; ++j)
      x.at(i, j) = rng.normal(label == 0 ? -1.0f : 1.0f, 0.4f);
    y[static_cast<std::size_t>(i)] = label;
  }
  nn::Model m = nn::make_mlp({1, 2, 2}, 16, 2, rng);
  losses::CrossEntropyLoss ce;
  nn::Sgd::Options o;
  o.lr = 0.1f;
  nn::Sgd sgd(o);
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int epoch = 0; epoch < 30; ++epoch) {
    auto r = ce.eval(m.forward(x, true), y);
    m.backward(r.grad_logits);
    sgd.step(m);
    if (epoch == 0) first_loss = r.value;
    last_loss = r.value;
  }
  EXPECT_LT(last_loss, 0.25f * first_loss);
}

}  // namespace
}  // namespace goldfish

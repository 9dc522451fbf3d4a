// Semantics of the loss family (values, invariants, ablation switches).
#include <gtest/gtest.h>

#include <cmath>

#include "losses/goldfish_loss.h"
#include "tensor/ops.h"

namespace goldfish {
namespace {

using losses::LossResult;

TEST(CrossEntropy, UniformLogitsGiveLogC) {
  losses::CrossEntropyLoss ce;
  Tensor z({2, 4});  // all-zero logits → uniform softmax
  LossResult r = ce.eval(z, {0, 3});
  EXPECT_NEAR(r.value, std::log(4.0f), 1e-5f);
}

TEST(CrossEntropy, PerfectPredictionNearZero) {
  losses::CrossEntropyLoss ce;
  Tensor z({1, 3});
  z.at(0, 1) = 30.0f;
  LossResult r = ce.eval(z, {1});
  EXPECT_NEAR(r.value, 0.0f, 1e-4f);
}

TEST(CrossEntropy, LabelOutOfRangeThrows) {
  losses::CrossEntropyLoss ce;
  Tensor z({1, 3});
  EXPECT_THROW(ce.eval(z, {3}), CheckError);
  EXPECT_THROW(ce.eval(z, {-1}), CheckError);
}

TEST(CrossEntropy, BatchSizeMismatchThrows) {
  losses::CrossEntropyLoss ce;
  Tensor z({2, 3});
  EXPECT_THROW(ce.eval(z, {0}), CheckError);
}

TEST(Focal, EqualsCEAtGammaZero) {
  Rng rng(1);
  Tensor z = Tensor::randn({4, 5}, rng, 0.0f, 2.0f);
  const std::vector<long> y{0, 1, 2, 3};
  losses::FocalLoss focal(0.0f);
  losses::CrossEntropyLoss ce;
  EXPECT_NEAR(focal.eval(z, y).value, ce.eval(z, y).value, 1e-4f);
}

TEST(Focal, DownweightsEasyExamples) {
  // A confidently-correct sample contributes much less under focal loss.
  Tensor easy({1, 2});
  easy.at(0, 0) = 6.0f;  // p_y ≈ 0.998
  losses::FocalLoss focal(2.0f);
  losses::CrossEntropyLoss ce;
  const float f = focal.eval(easy, {0}).value;
  const float c = ce.eval(easy, {0}).value;
  EXPECT_LT(f, 0.01f * c + 1e-8f);
}

TEST(Nll, MatchesCrossEntropyOnLogits) {
  Rng rng(2);
  Tensor z = Tensor::randn({5, 7}, rng, 0.0f, 3.0f);
  const std::vector<long> y{0, 1, 2, 3, 4};
  losses::NllLoss nll;
  losses::CrossEntropyLoss ce;
  EXPECT_NEAR(nll.eval(z, y).value, ce.eval(z, y).value, 1e-5f);
  // Gradients agree too.
  auto gn = nll.eval(z, y).grad_logits;
  auto gc = ce.eval(z, y).grad_logits;
  for (std::size_t i = 0; i < gn.numel(); ++i)
    EXPECT_NEAR(gn[i], gc[i], 1e-5f);
}

TEST(HardLossFactory, KnownAndUnknown) {
  EXPECT_EQ(losses::make_hard_loss("focal")->name(), "focal");
  EXPECT_THROW(losses::make_hard_loss("hinge"), CheckError);
}

TEST(Distillation, ZeroWhenStudentMatchesTeacherDistribution) {
  Rng rng(3);
  Tensor t = Tensor::randn({3, 4}, rng, 0.0f, 2.0f);
  // Identical logits → KL-style excess is exactly the teacher's entropy;
  // the *gradient* must vanish.
  auto r = losses::distillation_loss(t, t, 2.0f);
  for (std::size_t i = 0; i < r.grad_logits.numel(); ++i)
    EXPECT_NEAR(r.grad_logits[i], 0.0f, 1e-6f);
}

TEST(Distillation, LossIsTeacherEntropyAtMatch) {
  Tensor t({1, 2});
  t.at(0, 0) = 0.0f;
  t.at(0, 1) = 0.0f;  // uniform teacher
  auto r = losses::distillation_loss(t, t, 1.0f);
  EXPECT_NEAR(r.value, std::log(2.0f), 1e-5f);
}

TEST(Distillation, MismatchedShapesThrow) {
  Tensor a({2, 3}), b({2, 4});
  EXPECT_THROW(losses::distillation_loss(a, b, 1.0f), CheckError);
}

TEST(Distillation, HigherTemperatureShrinksGradient) {
  Rng rng(4);
  Tensor t = Tensor::randn({2, 5}, rng, 0.0f, 3.0f);
  Tensor s = Tensor::randn({2, 5}, rng, 0.0f, 3.0f);
  const auto g1 = losses::distillation_loss(t, s, 1.0f).grad_logits;
  const auto g5 = losses::distillation_loss(t, s, 5.0f).grad_logits;
  EXPECT_LT(g5.squared_norm(), g1.squared_norm());
}

TEST(Confusion, UniformPredictionIsMinimum) {
  Tensor uniform({2, 5});  // zero logits → uniform softmax → zero variance
  auto r = losses::confusion_loss(uniform);
  EXPECT_NEAR(r.value, 0.0f, 1e-6f);
  for (std::size_t i = 0; i < r.grad_logits.numel(); ++i)
    EXPECT_NEAR(r.grad_logits[i], 0.0f, 1e-6f);
}

TEST(Confusion, ConfidentPredictionIsPenalized) {
  Tensor confident({1, 5});
  confident.at(0, 2) = 10.0f;
  auto r = losses::confusion_loss(confident);
  EXPECT_GT(r.value, 0.1f);
}

TEST(Confusion, GradientDescentFlattensPrediction) {
  // Following the negative gradient should reduce the loss.
  Tensor z({1, 4});
  z.at(0, 0) = 3.0f;
  auto r0 = losses::confusion_loss(z);
  Tensor z2 = z;
  z2.add_scaled(r0.grad_logits, -1.0f);
  auto r1 = losses::confusion_loss(z2);
  EXPECT_LT(r1.value, r0.value);
}

// -- composite Goldfish loss ------------------------------------------------

losses::GoldfishLossConfig base_cfg() {
  losses::GoldfishLossConfig cfg;
  cfg.mu_c = 0.25f;
  cfg.mu_d = 1.0f;
  cfg.temperature = 3.0f;
  return cfg;
}

TEST(GoldfishLoss, CombinesAllTerms) {
  Rng rng(5);
  Tensor sr = Tensor::randn({4, 5}, rng);
  Tensor tr = Tensor::randn({4, 5}, rng);
  Tensor sf = Tensor::randn({2, 5}, rng);
  const std::vector<long> yr{0, 1, 2, 3}, yf{4, 0};
  losses::GoldfishLoss loss(base_cfg());
  auto full = loss.eval(sr, yr, tr, sf, yf);
  EXPECT_FALSE(full.grad_r.empty());
  EXPECT_FALSE(full.grad_f.empty());
  // total = hard_r − hard_f + µ_c·conf + µ_d·distill
  EXPECT_NEAR(full.total,
              full.hard_r - full.hard_f + 0.25f * full.confusion +
                  1.0f * full.distillation,
              1e-4f);
}

TEST(GoldfishLoss, SplitEvalMatchesCombined) {
  Rng rng(6);
  Tensor sr = Tensor::randn({4, 5}, rng);
  Tensor tr = Tensor::randn({4, 5}, rng);
  Tensor sf = Tensor::randn({2, 5}, rng);
  const std::vector<long> yr{0, 1, 2, 3}, yf{4, 0};
  losses::GoldfishLoss loss(base_cfg());
  auto full = loss.eval(sr, yr, tr, sf, yf);
  auto r_part = loss.eval_remaining(sr, yr, tr);
  auto f_part = loss.eval_forget(sf, yf);
  // The combined eval is the two parts by construction: exact equality.
  EXPECT_EQ(full.total, r_part.total + f_part.total);
  ASSERT_EQ(full.grad_r.numel(), r_part.grad_r.numel());
  for (std::size_t i = 0; i < full.grad_r.numel(); ++i)
    EXPECT_EQ(full.grad_r[i], r_part.grad_r[i]);
  ASSERT_EQ(full.grad_f.numel(), f_part.grad_f.numel());
  for (std::size_t i = 0; i < full.grad_f.numel(); ++i)
    EXPECT_EQ(full.grad_f[i], f_part.grad_f[i]);
}

TEST(GoldfishLoss, AblationWithoutDistillation) {
  auto cfg = base_cfg();
  cfg.use_distillation = false;
  losses::GoldfishLoss loss(cfg);
  Rng rng(7);
  Tensor sr = Tensor::randn({3, 4}, rng);
  auto r = loss.eval_remaining(sr, {0, 1, 2}, Tensor());
  EXPECT_FLOAT_EQ(r.distillation, 0.0f);
  EXPECT_NEAR(r.total, r.hard_r, 1e-6f);
}

TEST(GoldfishLoss, AblationWithoutConfusion) {
  auto cfg = base_cfg();
  cfg.use_confusion = false;
  losses::GoldfishLoss loss(cfg);
  Rng rng(8);
  Tensor sf = Tensor::randn({2, 4}, rng);
  auto r = loss.eval_forget(sf, {0, 1});
  EXPECT_FLOAT_EQ(r.confusion, 0.0f);
}

TEST(GoldfishLoss, ForgetCapSaturatesGradient) {
  auto cfg = base_cfg();
  cfg.use_confusion = false;
  cfg.forget_cap = 0.01f;  // absurdly low → always saturated
  losses::GoldfishLoss loss(cfg);
  Tensor sf({2, 4});
  sf.at(0, 1) = 5.0f;  // wrong-confident → hard_f large
  auto r = loss.eval_forget(sf, {0, 1});
  EXPECT_FLOAT_EQ(r.grad_f.squared_norm(), 0.0f);
}

TEST(GoldfishLoss, ForgetTermPushesAwayFromLabel) {
  auto cfg = base_cfg();
  cfg.use_confusion = false;
  cfg.forget_cap = 100.0f;
  losses::GoldfishLoss loss(cfg);
  Tensor sf({1, 3});
  sf.at(0, 0) = 2.0f;  // currently predicting the true (forgotten) label
  auto r = loss.eval_forget(sf, {0});
  // Gradient ascends the forget loss: positive gradient on the true logit
  // means SGD (which subtracts) will *reduce* confidence on it.
  EXPECT_GT(r.grad_f.at(0, 0), 0.0f);
}

TEST(GoldfishLoss, CopyPreservesBehaviour) {
  losses::GoldfishLoss a(base_cfg());
  losses::GoldfishLoss b = a;
  Rng rng(9);
  Tensor sr = Tensor::randn({2, 3}, rng);
  Tensor tr = Tensor::randn({2, 3}, rng);
  auto ra = a.eval_remaining(sr, {0, 1}, tr);
  auto rb = b.eval_remaining(sr, {0, 1}, tr);
  EXPECT_FLOAT_EQ(ra.total, rb.total);
}

TEST(GoldfishLoss, TemperatureOverrideTakesEffect) {
  auto cfg = base_cfg();
  losses::GoldfishLoss loss(cfg);
  Rng rng(10);
  Tensor sr = Tensor::randn({2, 4}, rng, 0.0f, 4.0f);
  Tensor tr = Tensor::randn({2, 4}, rng, 0.0f, 4.0f);
  auto r1 = loss.eval_remaining(sr, {0, 1}, tr);
  losses::GoldfishLoss hot(cfg);
  hot.set_temperature(9.0f);
  auto r2 = hot.eval_remaining(sr, {0, 1}, tr);
  EXPECT_NE(r1.distillation, r2.distillation);
}

}  // namespace
}  // namespace goldfish

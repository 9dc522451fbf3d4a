// Behavioural tests for layers and model factories (shapes, semantics,
// cloning, train/eval modes).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/models.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace goldfish {
namespace {

TEST(Linear, OutputShapeAndBias) {
  Rng rng(1);
  nn::Linear fc(3, 2, rng);
  // Zero input → output equals bias (zero-initialized).
  Tensor x({4, 3});
  Tensor y = fc.forward(x, true);
  EXPECT_EQ(y.dim(0), 4);
  EXPECT_EQ(y.dim(1), 2);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], 0.0f);
}

TEST(Linear, WrongInputWidthThrows) {
  Rng rng(2);
  nn::Linear fc(3, 2, rng);
  Tensor x({4, 5});
  EXPECT_THROW(fc.forward(x, true), CheckError);
}

TEST(Linear, BackwardBeforeForwardThrows) {
  Rng rng(3);
  nn::Linear fc(3, 2, rng);
  Tensor g({4, 2});
  EXPECT_THROW(fc.backward(g), CheckError);
}

TEST(ReLU, ZeroesNegatives) {
  nn::ReLU relu;
  Tensor x = Tensor::from({-2, -0.5f, 0, 1, 3});
  Tensor y = relu.forward(x.reshaped({1, 5}), true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 0.0f);
  EXPECT_FLOAT_EQ(y[3], 1.0f);
  EXPECT_FLOAT_EQ(y[4], 3.0f);
}

TEST(Flatten, RoundTripShapes) {
  nn::Flatten fl;
  Rng rng(4);
  Tensor x = Tensor::randn({2, 3, 4, 5}, rng);
  Tensor y = fl.forward(x, true);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 60);
  Tensor back = fl.backward(y);
  EXPECT_TRUE(back.same_shape(x));
}

TEST(Unflatten, FlatToImage) {
  nn::Unflatten uf(3, 4, 5);
  Rng rng(5);
  Tensor x = Tensor::randn({2, 60}, rng);
  Tensor y = uf.forward(x, true);
  EXPECT_EQ(y.rank(), 4u);
  EXPECT_EQ(y.dim(1), 3);
  // Already image-shaped input passes through.
  Tensor img({2, 3, 4, 5});
  EXPECT_TRUE(uf.forward(img, true).same_shape(img));
  // Wrong width rejected.
  Tensor bad({2, 61});
  EXPECT_THROW(uf.forward(bad, true), CheckError);
}

TEST(MaxPool, PicksWindowMax) {
  nn::MaxPool2d pool(2, 2);
  Tensor x({1, 1, 2, 2});
  x.at4(0, 0, 0, 0) = 1;
  x.at4(0, 0, 0, 1) = 5;
  x.at4(0, 0, 1, 0) = 3;
  x.at4(0, 0, 1, 1) = 2;
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  // Gradient routes only to the argmax element.
  Tensor g({1, 1, 1, 1});
  g[0] = 1.0f;
  Tensor gin = pool.backward(g);
  EXPECT_FLOAT_EQ(gin.at4(0, 0, 0, 1), 1.0f);
  EXPECT_FLOAT_EQ(gin.at4(0, 0, 0, 0), 0.0f);
}

// A window whose values all sit at or below any sentinel (−inf) still
// outputs its own maximum and routes its gradient into its own window, not
// to element 0 of the batch.
TEST(MaxPool, AllNegativeInfinityWindowKeepsItsOwnArgmax) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  nn::MaxPool2d pool(2, 2);
  Tensor x({1, 1, 2, 4});
  for (long xo = 0; xo < 4; ++xo) {
    x.at4(0, 0, 0, xo) = xo < 2 ? 1.0f + float(xo) : -kInf;
    x.at4(0, 0, 1, xo) = xo < 2 ? 0.5f : -kInf;
  }
  Tensor y = pool.forward(x, true);
  ASSERT_EQ(y.numel(), 2u);
  EXPECT_EQ(y[0], 2.0f);
  EXPECT_EQ(y[1], -kInf);
  Tensor g = Tensor::from({10.0f, 1.0f}).reshaped({1, 1, 1, 2});
  Tensor gin = pool.backward(g);
  EXPECT_EQ(gin.at4(0, 0, 0, 0), 0.0f);
  EXPECT_EQ(gin.at4(0, 0, 0, 1), 10.0f);
  EXPECT_EQ(gin.at4(0, 0, 0, 2), 1.0f);  // first element of window 2
  float window2 = 0.0f;
  for (long yy = 0; yy < 2; ++yy)
    for (long xo = 2; xo < 4; ++xo) window2 += gin.at4(0, 0, yy, xo);
  EXPECT_EQ(window2, 1.0f);
}

namespace per_element {

/// MaxPool2d's forward as it was written per element, kept verbatim as the
/// reference for the layer's plane loops: output and argmax (flat input
/// index) per output element.
void max_pool(const Tensor& x, long kernel, long stride, Tensor& out,
              std::vector<std::size_t>& argmax) {
  const long N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const long oh = (H - kernel) / stride + 1;
  const long ow = (W - kernel) / stride + 1;
  out = Tensor({N, C, oh, ow});
  argmax.resize(out.numel());
  std::size_t oi = 0;
  for (long n = 0; n < N; ++n) {
    for (long c = 0; c < C; ++c) {
      for (long y = 0; y < oh; ++y) {
        for (long xo = 0; xo < ow; ++xo, ++oi) {
          std::size_t best_idx = static_cast<std::size_t>(
              ((n * C + c) * H + y * stride) * W + xo * stride);
          float best = x[best_idx];
          for (long ky = 0; ky < kernel; ++ky) {
            for (long kx = 0; kx < kernel; ++kx) {
              const long iy = y * stride + ky;
              const long ix = xo * stride + kx;
              const std::size_t idx =
                  static_cast<std::size_t>(((n * C + c) * H + iy) * W + ix);
              if (x[idx] > best) {
                best = x[idx];
                best_idx = idx;
              }
            }
          }
          out[oi] = best;
          argmax[oi] = best_idx;
        }
      }
    }
  }
}

}  // namespace per_element

// The plane-parallel forward against the per-element loop, bitwise, over
// overlapping, tiling and gapped windows on odd sizes, with ties, all −inf
// windows and NaNs. The argmax is compared through backward: a random
// gradient scattered by each argmax. The (8, 6, 28, 30) input spans several
// parallel chunks of planes.
TEST(MaxPool, MatchesPerElementLoop) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Rng rng(41);
  const std::pair<long, long> windows[] = {{2, 2}, {3, 2}, {2, 1}, {3, 3}};
  const Shape shapes[] = {{2, 3, 7, 9}, {2, 3, 9, 11}, {2, 3, 13, 15},
                          {8, 6, 28, 30}};
  for (const auto& [kernel, stride] : windows) {
    for (const Shape& shape : shapes) {
      const long size = shape[2];
      SCOPED_TRACE("k" + std::to_string(kernel) + " s" +
                   std::to_string(stride) + " size " + std::to_string(size));
      Tensor x = Tensor::randn(shape, rng);
      for (std::size_t i = 0; i < x.numel(); ++i) {
        const std::size_t r = i % 11;
        if (r == 0) x[i] = std::nanf("");
        if (r == 3 || r == 4) x[i] = 0.5f;  // ties
      }
      for (long y = 0; y < size; ++y)  // channel 1 of sample 1: all −inf
        for (long xo = 0; xo < size + 2; ++xo) x.at4(1, 1, y, xo) = -kInf;

      Tensor expect;
      std::vector<std::size_t> argmax;
      per_element::max_pool(x, kernel, stride, expect, argmax);
      nn::MaxPool2d pool(kernel, stride);
      const Tensor& got = pool.forward(x, true);
      ASSERT_TRUE(got.same_shape(expect));
      EXPECT_EQ(std::memcmp(got.data(), expect.data(),
                            got.numel() * sizeof(float)),
                0);

      const Tensor g = Tensor::randn(expect.shape(), rng);
      Tensor scattered = Tensor::zeros(x.shape());
      for (std::size_t i = 0; i < argmax.size(); ++i)
        scattered[argmax[i]] += g[i];
      const Tensor& gin = pool.backward(g);
      EXPECT_EQ(std::memcmp(gin.data(), scattered.data(),
                            gin.numel() * sizeof(float)),
                0);
    }
  }
}

TEST(GlobalAvgPool, Averages) {
  nn::GlobalAvgPool gap;
  Tensor x = Tensor::full({1, 2, 3, 3}, 2.0f);
  Tensor y = gap.forward(x, true);
  EXPECT_EQ(y.dim(1), 2);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f);
}

TEST(BatchNorm, NormalizesTrainingBatch) {
  Rng rng(6);
  nn::BatchNorm2d bn(2);
  Tensor x = Tensor::randn({8, 2, 4, 4}, rng, 3.0f, 2.0f);
  Tensor y = bn.forward(x, true);
  // Per-channel output should be ~N(0,1) (gamma=1, beta=0).
  for (long c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    const long per = 8 * 4 * 4;
    for (long n = 0; n < 8; ++n)
      for (long h = 0; h < 4; ++h)
        for (long w = 0; w < 4; ++w) mean += y.at4(n, c, h, w);
    mean /= per;
    for (long n = 0; n < 8; ++n)
      for (long h = 0; h < 4; ++h)
        for (long w = 0; w < 4; ++w) {
          const double d = y.at4(n, c, h, w) - mean;
          var += d * d;
        }
    var /= per;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  Rng rng(7);
  nn::BatchNorm2d bn(1);
  // Run enough training batches that the EMA (momentum 0.1) converges:
  // bias factor 0.9^100 ≈ 3e-5.
  for (int i = 0; i < 100; ++i) {
    Tensor x = Tensor::randn({16, 1, 2, 2}, rng, 5.0f, 1.0f);
    bn.forward(x, true);
  }
  // Eval on a wildly different batch: output should still be normalized
  // w.r.t. the *training* distribution (mean 5), not the eval batch.
  Tensor probe = Tensor::full({2, 1, 2, 2}, 5.0f);
  Tensor y = bn.forward(probe, false);
  EXPECT_NEAR(y[0], 0.0f, 0.3f);
}

TEST(BatchNorm, BackwardRequiresTrainForward) {
  nn::BatchNorm2d bn(1);
  Tensor x({2, 1, 2, 2});
  bn.forward(x, false);
  EXPECT_THROW(bn.backward(x), CheckError);
}

TEST(Sequential, CloneIsDeep) {
  Rng rng(8);
  nn::Sequential seq;
  seq.add(std::make_unique<nn::Linear>(4, 4, rng));
  auto copy = seq.clone();
  // Mutate the original's weights; the clone must not change.
  auto orig_params = seq.params();
  auto copy_params = copy->params();
  const float before = (*copy_params[0].value)[0];
  (*orig_params[0].value)[0] += 10.0f;
  EXPECT_FLOAT_EQ((*copy_params[0].value)[0], before);
}

TEST(Sequential, ParamNamesAreIndexed) {
  Rng rng(9);
  nn::Sequential seq;
  seq.add(std::make_unique<nn::Linear>(4, 4, rng));
  seq.add(std::make_unique<nn::ReLU>());
  seq.add(std::make_unique<nn::Linear>(4, 2, rng));
  auto ps = seq.params();
  ASSERT_EQ(ps.size(), 4u);
  EXPECT_EQ(ps[0].name, "0.weight");
  EXPECT_EQ(ps[2].name, "2.weight");
}

TEST(Models, LeNet5ShapesMnist) {
  Rng rng(10);
  nn::Model m = nn::make_lenet5({1, 28, 28}, 10, rng);
  Tensor x({2, 784});
  Tensor logits = m.forward(x, false);
  EXPECT_EQ(logits.dim(0), 2);
  EXPECT_EQ(logits.dim(1), 10);
}

TEST(Models, ModifiedLeNet5ShapesCifar) {
  Rng rng(11);
  nn::Model m = nn::make_modified_lenet5({3, 32, 32}, 10, rng);
  Tensor x({2, 3072});
  Tensor logits = m.forward(x, false);
  EXPECT_EQ(logits.dim(1), 10);
}

TEST(Models, ResNetDepthValidation) {
  Rng rng(12);
  EXPECT_THROW(nn::make_resnet({3, 32, 32}, 10, 33, 8, rng), CheckError);
  nn::Model m = nn::make_resnet({3, 16, 16}, 10, 8, 4, rng);
  Tensor x({2, 3 * 16 * 16});
  Tensor logits = m.forward(x, true);
  EXPECT_EQ(logits.dim(1), 10);
}

TEST(Models, FactoryByName) {
  Rng rng(13);
  nn::Model mlp = nn::make_model("mlp32", {1, 28, 28}, 10, rng);
  EXPECT_EQ(mlp.arch_name(), "mlp32");
  EXPECT_THROW(nn::make_model("vgg", {1, 28, 28}, 10, rng), CheckError);
}

TEST(Models, ParamCountsArePlausible) {
  Rng rng(14);
  nn::Model lenet = nn::make_lenet5({1, 28, 28}, 10, rng);
  // conv1: 6·25+6, conv2: 16·150+16, fc1: 400·120+120, fc2: 120·10+10
  EXPECT_EQ(lenet.num_scalars(),
            std::size_t(6 * 25 + 6 + 16 * 150 + 16 + 400 * 120 + 120 +
                        120 * 10 + 10));
}

}  // namespace
}  // namespace goldfish

// Unit tests for the Tensor value type: construction, shape handling,
// arithmetic, reductions, and contract violations.
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace goldfish {
namespace {

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.numel(), 0u);
  EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ShapeAccessors) {
  Tensor t({4, 3, 2});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.dim(0), 4);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.dim(2), 2);
  EXPECT_EQ(t.shape_str(), "[4, 3, 2]");
  EXPECT_THROW(t.dim(3), CheckError);
}

TEST(Tensor, FromInitializerList) {
  Tensor t = Tensor::from({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.rank(), 1u);
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_FLOAT_EQ(t[1], 2.0f);
}

TEST(Tensor, From2d) {
  Tensor t = Tensor::from2d({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_FLOAT_EQ(t.at(1, 2), 6.0f);
}

TEST(Tensor, From2dRaggedThrows) {
  EXPECT_THROW(Tensor::from2d({{1, 2}, {3}}), CheckError);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), CheckError);
}

TEST(Tensor, FullAndOnes) {
  Tensor f = Tensor::full({3}, 2.5f);
  EXPECT_FLOAT_EQ(f[0], 2.5f);
  Tensor o = Tensor::ones({2, 2});
  EXPECT_FLOAT_EQ(o.sum(), 4.0f);
}

TEST(Tensor, Reshape) {
  Tensor t = Tensor::from({1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped({2, 3});
  EXPECT_FLOAT_EQ(r.at(1, 0), 4.0f);
  EXPECT_THROW(t.reshaped({4, 2}), CheckError);
}

TEST(Tensor, ElementwiseArithmetic) {
  Tensor a = Tensor::from({1, 2, 3});
  Tensor b = Tensor::from({4, 5, 6});
  Tensor c = a + b;
  EXPECT_FLOAT_EQ(c[0], 5.0f);
  EXPECT_FLOAT_EQ(c[2], 9.0f);
  Tensor d = b - a;
  EXPECT_FLOAT_EQ(d[1], 3.0f);
  Tensor e = a * 2.0f;
  EXPECT_FLOAT_EQ(e[2], 6.0f);
  Tensor f = 3.0f * a;
  EXPECT_FLOAT_EQ(f[0], 3.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2, 2});
  Tensor b({4});
  EXPECT_THROW(a += b, CheckError);
  EXPECT_THROW(a -= b, CheckError);
  EXPECT_THROW(a.add_scaled(b, 1.0f), CheckError);
}

TEST(Tensor, AddScaled) {
  Tensor a = Tensor::from({1, 1});
  Tensor b = Tensor::from({2, 4});
  a.add_scaled(b, 0.5f);
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  EXPECT_FLOAT_EQ(a[1], 3.0f);
}

TEST(Tensor, Reductions) {
  Tensor t = Tensor::from({-1, 0, 3, 2});
  EXPECT_FLOAT_EQ(t.sum(), 4.0f);
  EXPECT_FLOAT_EQ(t.mean(), 1.0f);
  EXPECT_FLOAT_EQ(t.min(), -1.0f);
  EXPECT_FLOAT_EQ(t.max(), 3.0f);
  EXPECT_FLOAT_EQ(t.squared_norm(), 1 + 0 + 9 + 4);
}

// The clip norm sums in eight double lanes; its float result must equal a
// plain serial double sum's, across tail lengths and large non-multiples of 8.
TEST(Tensor, SquaredNormMatchesSerialDoubleSum) {
  const auto serial = [](const Tensor& t) {
    double acc = 0.0;
    for (std::size_t i = 0; i < t.numel(); ++i)
      acc += static_cast<double>(t[i]) * t[i];
    return static_cast<float>(acc);
  };
  Rng rng(91);
  const auto draw = [&rng](long n) {
    Tensor t = Tensor::zeros({n});
    // Spread magnitudes over 2^±8 so the lanes see very unequal terms.
    for (long i = 0; i < n; ++i)
      t[std::size_t(i)] = rng.normal() * std::exp2(rng.uniform(-8.0f, 8.0f));
    return t;
  };
  for (long n = 0; n <= 40; ++n) {
    for (int rep = 0; rep < 8; ++rep) {
      const Tensor t = draw(n);
      EXPECT_EQ(t.squared_norm(), serial(t)) << "n=" << n;
    }
  }
  for (long n : {100003L, 131071L, 250001L}) {
    const Tensor t = draw(n);
    EXPECT_EQ(t.squared_norm(), serial(t)) << "n=" << n;
  }
}

TEST(Tensor, EmptyReductionsThrow) {
  Tensor t;
  EXPECT_THROW(t.mean(), CheckError);
  EXPECT_THROW(t.min(), CheckError);
  EXPECT_THROW(t.max(), CheckError);
}

TEST(Tensor, FillAndZero) {
  Tensor t({3});
  t.fill(7.0f);
  EXPECT_FLOAT_EQ(t.sum(), 21.0f);
  t.zero();
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
}

TEST(Tensor, At4Indexing) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 42.0f;
  // Row-major: ((n*C + c)*H + h)*W + w
  EXPECT_FLOAT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 42.0f);
}

TEST(Tensor, RandnStatistics) {
  Rng rng(123);
  Tensor t = Tensor::randn({10000}, rng, 1.0f, 2.0f);
  EXPECT_NEAR(t.mean(), 1.0f, 0.1f);
  double var = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const double d = t[i] - t.mean();
    var += d * d;
  }
  var /= double(t.numel());
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Tensor, RandUniformBounds) {
  Rng rng(9);
  Tensor t = Tensor::rand_uniform({1000}, rng, -2.0f, 3.0f);
  EXPECT_GE(t.min(), -2.0f);
  EXPECT_LT(t.max(), 3.0f);
}

TEST(Tensor, NegativeDimensionThrows) {
  EXPECT_THROW(Tensor({2, -1}), CheckError);
}

}  // namespace
}  // namespace goldfish

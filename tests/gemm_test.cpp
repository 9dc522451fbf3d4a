// The blocked GEMM backbone: product-set parameterized correctness against
// a naive reference over shapes spanning {1, odd, prime, > block-size} in
// every dimension and all four transpose combinations, plus thread-count
// determinism and the thin matmul wrappers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>

#include "runtime/gemm.h"
#include "runtime/scheduler.h"
#include "tensor/ops.h"

namespace goldfish {
namespace {

/// Naive triple loop over the same logical product, double-accumulated.
Tensor reference_gemm(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const long m = ta ? a.dim(1) : a.dim(0);
  const long k = ta ? a.dim(0) : a.dim(1);
  const long n = tb ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  for (long i = 0; i < m; ++i) {
    for (long j = 0; j < n; ++j) {
      double acc = 0.0;
      for (long p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        acc += double(av) * bv;
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

/// (m, k, n, trans_a, trans_b).
using GemmCase = std::tuple<long, long, long, bool, bool>;

class GemmProductSet : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmProductSet, MatchesNaiveReference) {
  const auto [m, k, n, ta, tb] = GetParam();
  Rng rng(0x9e3779b9ull ^ (m * 131 + k * 17 + n));
  Tensor a = ta ? Tensor::randn({k, m}, rng) : Tensor::randn({m, k}, rng);
  Tensor b = tb ? Tensor::randn({n, k}, rng) : Tensor::randn({k, n}, rng);

  const Tensor expect = reference_gemm(a, b, ta, tb);
  const Tensor got = gemm(a, b, ta, tb);
  ASSERT_TRUE(got.same_shape(expect));
  for (std::size_t i = 0; i < got.numel(); ++i)
    EXPECT_NEAR(got[i], expect[i], 1e-3f * (1.0f + std::abs(expect[i])))
        << "element " << i << " of " << m << "x" << k << "x" << n
        << " ta=" << ta << " tb=" << tb;
}

// Dimensions cross the microkernel tile (6/16), the panel blocks, and a
// prime that divides none of them; 1 exercises degenerate vectors.
INSTANTIATE_TEST_SUITE_P(
    ShapeByTranspose, GemmProductSet,
    ::testing::Combine(::testing::Values(1L, 3L, 7L, 32L, 97L),
                       ::testing::Values(1L, 5L, 17L, 64L),
                       ::testing::Values(1L, 2L, 19L, 33L, 97L),
                       ::testing::Bool(), ::testing::Bool()));

// Tails of every block in every transpose combination: m and n one past
// or short of a multiple of MR / NR (AVX2 6×16 and AVX-512 8×32 tiles), m
// past MC (the tall branch), and k one short of, one past and two past KC,
// so every packer handles a partial micro-panel and a short last slice.
INSTANTIATE_TEST_SUITE_P(
    BlockTails, GemmProductSet,
    ::testing::Combine(::testing::Values(5L, 13L, 133L),
                       ::testing::Values(255L, 257L, 515L),
                       ::testing::Values(15L, 17L, 33L, 47L),
                       ::testing::Bool(), ::testing::Bool()));

TEST(Gemm, LargeShapeCrossesAllPanelBoundaries) {
  // Bigger than MC, NC·… in no dimension a multiple of a block size.
  Rng rng(42);
  Tensor a = Tensor::randn({131, 300}, rng);
  Tensor b = Tensor::randn({300, 131}, rng);
  const Tensor expect = reference_gemm(a, b, false, false);
  const Tensor got = gemm(a, b, false, false);
  for (std::size_t i = 0; i < got.numel(); ++i)
    EXPECT_NEAR(got[i], expect[i], 1e-2f * (1.0f + std::abs(expect[i])));
}

TEST(Gemm, DeterministicAcrossThreadCounts) {
  Rng rng(7);
  runtime::Scheduler one(1);
  runtime::Scheduler eight(8);
  // (m, k, n): tall, with several row panels; and short-fat (m ≤ MC) with
  // many column tiles, each packing its own B panel in the parallel body,
  // over two KC slices. Both are large enough for the parallel path.
  const long shapes[][3] = {{256, 256, 256}, {16, 300, 1000}};
  for (const auto& [m, k, n] : shapes) {
    SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                 std::to_string(n));
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor c1({m, n});
    Tensor c8({m, n});
    runtime::sgemm(false, false, m, n, k, a.data(), k, b.data(), n, c1.data(),
                   n, &one);
    runtime::sgemm(false, false, m, n, k, a.data(), k, b.data(), n, c8.data(),
                   n, &eight);
    // Bit-identical, not merely close: parallelism only splits output
    // tiles, never the k reduction.
    EXPECT_EQ(0, std::memcmp(c1.data(), c8.data(),
                             c1.numel() * sizeof(float)));
  }
}

TEST(Gemm, AccumulatesInPlace) {
  Rng rng(11);
  Tensor a = Tensor::randn({9, 13}, rng);
  Tensor b = Tensor::randn({13, 5}, rng);
  Tensor c = Tensor::full({9, 5}, 2.0f);
  const Tensor prod = gemm(a, b, false, false);
  gemm_acc(c, a, b, false, false);
  for (std::size_t i = 0; i < c.numel(); ++i)
    EXPECT_NEAR(c[i], prod[i] + 2.0f, 1e-4f);
}

TEST(Gemm, WrappersRouteThroughSingleEntryPoint) {
  Rng rng(13);
  Tensor a = Tensor::randn({8, 6}, rng);
  Tensor b = Tensor::randn({6, 7}, rng);
  Tensor at = transpose(a);
  Tensor bt = transpose(b);
  const Tensor base = matmul(a, b);
  const Tensor tn = gemm(at, b, /*trans_a=*/true, /*trans_b=*/false);
  const Tensor nt = gemm(a, bt, /*trans_a=*/false, /*trans_b=*/true);
  for (std::size_t i = 0; i < base.numel(); ++i) {
    EXPECT_FLOAT_EQ(tn[i], base[i]);
    EXPECT_FLOAT_EQ(nt[i], base[i]);
  }
}

TEST(Gemm, ShapeMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_THROW(gemm(a, b, false, false), CheckError);
  Tensor ok({3, 2});
  Tensor c({2, 2});
  EXPECT_NO_THROW(gemm_acc(c, a, ok, false, false));
  Tensor bad({3, 3});
  EXPECT_THROW(gemm_acc(bad, a, ok, false, false), CheckError);
}

}  // namespace
}  // namespace goldfish

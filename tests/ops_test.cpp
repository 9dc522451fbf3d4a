// Unit tests for tensor kernels: matmul family, softmax, reductions,
// im2col/col2im, and the conv layer's data movement around them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "losses/hard_loss.h"
#include "nn/activations.h"
#include "nn/conv.h"
#include "nn/models.h"
#include "nn/sequential.h"
#include "tensor/ops.h"

namespace goldfish {
namespace {

TEST(Matmul, KnownProduct) {
  Tensor a = Tensor::from2d({{1, 2}, {3, 4}});
  Tensor b = Tensor::from2d({{5, 6}, {7, 8}});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Matmul, RectangularShapes) {
  Rng rng(1);
  Tensor a = Tensor::randn({3, 5}, rng);
  Tensor b = Tensor::randn({5, 7}, rng);
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.dim(0), 3);
  EXPECT_EQ(c.dim(1), 7);
}

TEST(Matmul, InnerDimMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_THROW(matmul(a, b), CheckError);
}

TEST(Matmul, TnMatchesExplicitTranspose) {
  Rng rng(2);
  Tensor a = Tensor::randn({4, 3}, rng);  // will be used as aᵀ (3x4)
  Tensor b = Tensor::randn({4, 5}, rng);
  Tensor expect = matmul(transpose(a), b);
  Tensor got = matmul_tn(a, b);
  ASSERT_TRUE(got.same_shape(expect));
  for (std::size_t i = 0; i < got.numel(); ++i)
    EXPECT_NEAR(got[i], expect[i], 1e-4f);
}

TEST(Matmul, NtMatchesExplicitTranspose) {
  Rng rng(3);
  Tensor a = Tensor::randn({4, 3}, rng);
  Tensor b = Tensor::randn({5, 3}, rng);  // used as bᵀ (3x5)
  Tensor expect = matmul(a, transpose(b));
  Tensor got = matmul_nt(a, b);
  ASSERT_TRUE(got.same_shape(expect));
  for (std::size_t i = 0; i < got.numel(); ++i)
    EXPECT_NEAR(got[i], expect[i], 1e-4f);
}

TEST(Matmul, LargeParallelPathMatchesSmall) {
  // Whole-matrix product vs the same rows computed one at a time (which
  // take the minimal-tile path). Multi-panel and parallel GEMM coverage
  // lives in gemm_test.cpp (LargeShapeCrossesAllPanelBoundaries,
  // DeterministicAcrossThreadCounts).
  Rng rng(4);
  Tensor a = Tensor::randn({64, 33}, rng);
  Tensor b = Tensor::randn({33, 47}, rng);
  Tensor whole = matmul(a, b);
  for (long i : {0L, 17L, 63L}) {
    Tensor row({1, 33});
    for (long k = 0; k < 33; ++k) row.at(0, k) = a.at(i, k);
    Tensor expect = matmul(row, b);
    for (long j = 0; j < 47; ++j)
      EXPECT_NEAR(whole.at(i, j), expect.at(0, j), 1e-4f);
  }
}

TEST(Transpose, RoundTrip) {
  Rng rng(5);
  Tensor a = Tensor::randn({3, 6}, rng);
  Tensor tt = transpose(transpose(a));
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(tt[i], a[i]);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(6);
  Tensor logits = Tensor::randn({5, 9}, rng, 0.0f, 4.0f);
  Tensor p = softmax_rows(logits);
  for (long i = 0; i < 5; ++i) {
    double s = 0.0;
    for (long j = 0; j < 9; ++j) {
      EXPECT_GT(p.at(i, j), 0.0f);
      s += p.at(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Softmax, TemperatureSmooths) {
  Tensor logits = Tensor::from2d({{4.0f, 0.0f, 0.0f}});
  Tensor sharp = softmax_rows(logits, 1.0f);
  Tensor smooth = softmax_rows(logits, 5.0f);
  EXPECT_GT(sharp.at(0, 0), smooth.at(0, 0));
  EXPECT_LT(sharp.at(0, 1), smooth.at(0, 1));
}

TEST(Softmax, NumericalStabilityWithHugeLogits) {
  Tensor logits = Tensor::from2d({{1000.0f, 999.0f}});
  Tensor p = softmax_rows(logits);
  EXPECT_TRUE(std::isfinite(p.at(0, 0)));
  EXPECT_NEAR(p.at(0, 0) + p.at(0, 1), 1.0f, 1e-5f);
  EXPECT_GT(p.at(0, 0), p.at(0, 1));
}

TEST(Softmax, NonPositiveTemperatureThrows) {
  Tensor logits({1, 3});
  EXPECT_THROW(softmax_rows(logits, 0.0f), CheckError);
  EXPECT_THROW(log_softmax_rows(logits, -1.0f), CheckError);
}

TEST(LogSoftmax, MatchesLogOfSoftmax) {
  Rng rng(7);
  Tensor logits = Tensor::randn({4, 6}, rng, 0.0f, 3.0f);
  Tensor p = softmax_rows(logits, 2.0f);
  Tensor lp = log_softmax_rows(logits, 2.0f);
  for (std::size_t i = 0; i < p.numel(); ++i)
    EXPECT_NEAR(lp[i], std::log(p[i]), 1e-5f);
}

TEST(ArgmaxRows, PicksLargest) {
  Tensor t = Tensor::from2d({{1, 5, 2}, {9, 0, 3}});
  const auto idx = argmax_rows(t);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(RowVariance, UniformRowIsZero) {
  Tensor t = Tensor::from2d({{0.25f, 0.25f, 0.25f, 0.25f}});
  EXPECT_NEAR(row_variance(t)[0], 0.0f, 1e-9f);
}

TEST(RowVariance, KnownValue) {
  Tensor t = Tensor::from2d({{1.0f, 0.0f}});
  // mean 0.5, var = ((0.5)²+(0.5)²)/2 = 0.25
  EXPECT_NEAR(row_variance(t)[0], 0.25f, 1e-6f);
}

TEST(ClampMin, Relu) {
  Tensor t = Tensor::from({-1, 0, 2});
  Tensor r = clamp_min(t, 0.0f);
  EXPECT_FLOAT_EQ(r[0], 0.0f);
  EXPECT_FLOAT_EQ(r[2], 2.0f);
}

TEST(Hadamard, Elementwise) {
  Tensor a = Tensor::from({1, 2, 3});
  Tensor b = Tensor::from({4, 5, 6});
  Tensor c = hadamard(a, b);
  EXPECT_FLOAT_EQ(c[1], 10.0f);
}

TEST(Im2col, IdentityKernelGeometry) {
  // 1x1 kernel, stride 1: im2col should reproduce the image as rows.
  Conv2dGeom g{2, 3, 3, 1, 1, 0};
  Rng rng(8);
  Tensor img = Tensor::randn({2, 2, 3, 3}, rng);
  Tensor cols = im2col(img, g);
  EXPECT_EQ(cols.dim(0), 2);       // C·K·K = 2
  EXPECT_EQ(cols.dim(1), 2 * 9);   // N·oh·ow
  // Channel 0 of sample 0, pixel (1,2):
  EXPECT_FLOAT_EQ(cols.at(0, 1 * 3 + 2), img.at4(0, 0, 1, 2));
}

TEST(Im2col, PaddingProducesZeros) {
  Conv2dGeom g{1, 2, 2, 3, 1, 1};
  Tensor img = Tensor::ones({1, 1, 2, 2});
  Tensor cols = im2col(img, g);
  // Top-left output position, kernel cell (0,0) reads padded zero.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);
  // Center kernel cell (1,1) reads the actual pixel.
  EXPECT_FLOAT_EQ(cols.at(4, 0), 1.0f);
}

TEST(Im2colCol2im, AdjointDotProductProperty) {
  // <im2col(x), y> == <x, col2im(y)> — the defining property of an adjoint
  // pair; guarantees conv backward is the true gradient of conv forward.
  Conv2dGeom g{3, 6, 5, 3, 2, 1};
  Rng rng(9);
  Tensor x = Tensor::randn({2, 3, 6, 5}, rng);
  Tensor cx = im2col(x, g);
  Tensor y = Tensor::randn(cx.shape(), rng);
  Tensor ay = col2im(y, 2, g);

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cx.numel(); ++i)
    lhs += double(cx[i]) * y[i];
  for (std::size_t i = 0; i < x.numel(); ++i)
    rhs += double(x[i]) * ay[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2col, GeometryMismatchThrows) {
  Conv2dGeom g{1, 4, 4, 3, 1, 0};
  Tensor img({1, 2, 4, 4});  // wrong channel count
  EXPECT_THROW(im2col(img, g), CheckError);
}

TEST(Conv2dGeom, OutputDims) {
  Conv2dGeom g{3, 32, 32, 3, 2, 1};
  EXPECT_EQ(g.out_h(), 16);
  EXPECT_EQ(g.out_w(), 16);
  EXPECT_EQ(g.patch_size(), 27);
}

// -- ConvKernels: the row-wise conv data movement is bitwise the
// per-element loops it replaced ---------------------------------------------

// Verbatim copies of the per-element loops (im2col_into, col2im_into,
// Conv2d::pack_output, Conv2d::unpack_grad) that the row-wise kernels
// replaced, run serially: they are the reference every float is compared
// against.
namespace per_element {

void im2col(const Tensor& input, const Conv2dGeom& g, Tensor& cols) {
  const long N = input.dim(0);
  const long oh = g.out_h(), ow = g.out_w();
  const long patch = g.patch_size();
  cols.resize_uninit({patch, N * oh * ow});
  float* dst = cols.data();
  const long col_stride = N * oh * ow;
  for (long n = 0; n < N; ++n) {
    for (long c = 0; c < g.in_channels; ++c) {
      for (long kh = 0; kh < g.kernel; ++kh) {
        for (long kw = 0; kw < g.kernel; ++kw) {
          const long row = ((c * g.kernel) + kh) * g.kernel + kw;
          for (long y = 0; y < oh; ++y) {
            const long iy = y * g.stride + kh - g.pad;
            for (long x = 0; x < ow; ++x) {
              const long ix = x * g.stride + kw - g.pad;
              const long col = (n * oh + y) * ow + x;
              float v = 0.0f;
              if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w)
                v = input.at4(n, c, iy, ix);
              dst[row * col_stride + col] = v;
            }
          }
        }
      }
    }
  }
}

void col2im(const Tensor& cols, long batch, const Conv2dGeom& g,
            Tensor& img) {
  const long oh = g.out_h(), ow = g.out_w();
  img.resize_uninit({batch, g.in_channels, g.in_h, g.in_w});
  img.zero();
  const float* src = cols.data();
  const long col_stride = batch * oh * ow;
  for (long n = 0; n < batch; ++n) {
    for (long c = 0; c < g.in_channels; ++c) {
      for (long kh = 0; kh < g.kernel; ++kh) {
        for (long kw = 0; kw < g.kernel; ++kw) {
          const long row = ((c * g.kernel) + kh) * g.kernel + kw;
          for (long y = 0; y < oh; ++y) {
            const long iy = y * g.stride + kh - g.pad;
            if (iy < 0 || iy >= g.in_h) continue;
            for (long x = 0; x < ow; ++x) {
              const long ix = x * g.stride + kw - g.pad;
              if (ix < 0 || ix >= g.in_w) continue;
              const long col = (n * oh + y) * ow + x;
              img.at4(n, c, iy, ix) += src[row * col_stride + col];
            }
          }
        }
      }
    }
  }
}

Tensor pack_output(const Tensor& flat, long batch, long out_channels,
                   long oh, long ow) {
  Tensor img({batch, out_channels, oh, ow});
  for (long c = 0; c < out_channels; ++c) {
    const float* row = flat.data() + c * batch * oh * ow;
    for (long n = 0; n < batch; ++n)
      for (long y = 0; y < oh; ++y)
        for (long x = 0; x < ow; ++x)
          img.at4(n, c, y, x) = row[(n * oh + y) * ow + x];
  }
  return img;
}

Tensor unpack_grad(const Tensor& grad_img, long out_channels, long oh,
                   long ow) {
  const long batch = grad_img.dim(0);
  Tensor flat({out_channels, batch * oh * ow});
  for (long c = 0; c < out_channels; ++c) {
    float* row = flat.data() + c * batch * oh * ow;
    for (long n = 0; n < batch; ++n)
      for (long y = 0; y < oh; ++y)
        for (long x = 0; x < ow; ++x)
          row[(n * oh + y) * ow + x] = grad_img.at4(n, c, y, x);
  }
  return flat;
}

}  // namespace per_element

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Every non-collapsed geometry of the product set channels × size ×
/// kernel × stride × pad (square images).
std::vector<Conv2dGeom> conv_geometries() {
  std::vector<Conv2dGeom> out;
  for (long c : {1L, 3L, 6L})
    for (long size : {5L, 8L, 14L, 28L})
      for (long k : {1L, 3L, 5L})
        for (long stride : {1L, 2L, 3L})
          for (long pad : {0L, 1L, 2L}) {
            const Conv2dGeom g{c, size, size, k, stride, pad};
            if (g.out_h() > 0 && g.out_w() > 0) out.push_back(g);
          }
  return out;
}

std::string geom_str(const Conv2dGeom& g, long batch) {
  return "c" + std::to_string(g.in_channels) + " s" + std::to_string(g.in_h) +
         " k" + std::to_string(g.kernel) + " st" + std::to_string(g.stride) +
         " p" + std::to_string(g.pad) + " n" + std::to_string(batch);
}

TEST(ConvKernels, Im2colMatchesPerElementLoop) {
  Rng rng(31);
  for (const Conv2dGeom& g : conv_geometries()) {
    for (long batch : {1L, 3L}) {
      SCOPED_TRACE(geom_str(g, batch));
      const Tensor x =
          Tensor::randn({batch, g.in_channels, g.in_h, g.in_w}, rng);
      Tensor expect;
      per_element::im2col(x, g, expect);
      // A dirty destination of the right shape: every element, padding
      // included, must be written.
      Tensor got = Tensor::full(expect.shape(), std::nanf(""));
      im2col_into(x, g, got);
      EXPECT_TRUE(bitwise_equal(got, expect));
    }
  }
}

TEST(ConvKernels, Col2imMatchesPerElementLoop) {
  Rng rng(32);
  for (const Conv2dGeom& g : conv_geometries()) {
    for (long batch : {1L, 3L}) {
      SCOPED_TRACE(geom_str(g, batch));
      const Tensor cols =
          Tensor::randn({g.patch_size(), batch * g.out_h() * g.out_w()}, rng);
      Tensor expect;
      per_element::col2im(cols, batch, g, expect);
      Tensor got = Tensor::full(expect.shape(), std::nanf(""));
      col2im_into(cols, batch, g, got);
      EXPECT_TRUE(bitwise_equal(got, expect));
    }
  }
}

// The layer's packed output, its unpacked gradient (through dW, db and the
// input gradient) against the same GEMMs over the per-element reference.
// The layer's GEMMs gather their B panels from the input; the reference's
// pack the materialized columns, so this pins the two bitwise.
void check_conv_against_per_element(const Conv2dGeom& g, long batch,
                                     Rng& rng) {
  constexpr long kOut = 4;
  SCOPED_TRACE(geom_str(g, batch));
  nn::Conv2d conv(g.in_channels, kOut, g.kernel, g.stride, g.pad, g.in_h,
                  g.in_w, rng);
  const auto params = conv.params();
  // A nonzero bias, so the row epilogue is exercised too.
  *params[1].value = Tensor::randn({kOut}, rng);
  const Tensor& w = *params[0].value;
  const Tensor& b = *params[1].value;
  const long oh = g.out_h(), ow = g.out_w();
  const Tensor x = Tensor::randn({batch, g.in_channels, g.in_h, g.in_w}, rng);
  const Tensor gy = Tensor::randn({batch, kOut, oh, ow}, rng);

  Tensor cols;
  per_element::im2col(x, g, cols);
  const Tensor flat =
      gemm_fused(w, cols, false, false, runtime::Epilogue::kBiasRow, b);
  EXPECT_TRUE(
      bitwise_equal(conv.forward(x, true),
                    per_element::pack_output(flat, batch, kOut, oh, ow)));

  const Tensor gflat = per_element::unpack_grad(gy, kOut, oh, ow);
  Tensor dw = Tensor::zeros(w.shape());
  gemm_acc(dw, gflat, cols, false, true);
  Tensor db = Tensor::zeros({kOut});
  for (long c = 0; c < kOut; ++c) {
    double acc = 0.0;
    for (long j = 0; j < gflat.dim(1); ++j) acc += gflat.at(c, j);
    db[std::size_t(c)] = static_cast<float>(acc);
  }
  Tensor dx;
  per_element::col2im(gemm(w, gflat, true, false), batch, g, dx);
  EXPECT_TRUE(bitwise_equal(conv.backward(gy), dx));
  EXPECT_TRUE(bitwise_equal(*params[0].grad, dw));
  EXPECT_TRUE(bitwise_equal(*params[1].grad, db));
}

TEST(ConvKernels, Conv2dPackingMatchesPerElementLoop) {
  Rng rng(33);
  for (const Conv2dGeom& g : conv_geometries())
    for (long batch : {1L, 3L}) check_conv_against_per_element(g, batch, rng);
  // lenet5's 5×5 geometries (28×28 pad 2, and 14×14) at a training batch:
  // dW's KC slices and the forward's column panels then start mid-row and
  // mid-sample.
  for (const Conv2dGeom& g : conv_geometries())
    if (g.kernel == 5 && ((g.in_h == 28 && g.pad == 2) || g.in_h == 14))
      check_conv_against_per_element(g, 50, rng);
  // A per-sample input-gradient product (400 × 256 × 4) above the GEMM's
  // 2^18-flop parallel threshold: the per-sample GEMMs open regions nested
  // in the layer's own parallel loop over the batch.
  check_conv_against_per_element({16, 16, 16, 5, 1, 2}, 3, rng);
}

// Conv2d gathers its GEMM operands from the input through its own geometry,
// so an input of another channel count or size must be rejected before the
// gather would read past it.
TEST(ConvKernels, ForwardRejectsMismatchedGeometry) {
  Rng rng(37);
  nn::Conv2d conv(3, 4, 3, 1, 1, 8, 8, rng);
  EXPECT_NO_THROW(conv.forward(Tensor::randn({2, 3, 8, 8}, rng), true));
  for (const Shape& bad : {Shape{2, 4, 8, 8}, Shape{2, 3, 9, 8},
                           Shape{2, 3, 8, 9}, Shape{2, 3, 8, 7},
                           Shape{2, 192}})
    EXPECT_THROW(conv.forward(Tensor::zeros(bad), true), CheckError)
        << Tensor::zeros(bad).shape_str();
}

// A lenet5 step over the 600-row evaluation set keeps no column matrix: a
// parked block of either conv's (C·K·K, N·oh·ow) size is still parked after
// the forward and after the backward (conv2's input gradient is formed and
// scattered one sample's tile at a time).
TEST(ConvKernels, LenetStepHoldsNoColumnMatrix) {
  if (!alloc_stats::enabled())
    GTEST_SKIP() << "needs GOLDFISH_ALLOC_STATS";
  constexpr long kRows = 600;
  const std::size_t conv1_cols = std::size_t{1 * 5 * 5} * kRows * 28 * 28;
  const std::size_t conv2_cols = std::size_t{6 * 5 * 5} * kRows * 10 * 10;
  Rng rng(38);
  nn::Model model = nn::make_model("lenet5", {1, 28, 28}, 10, rng);
  const Tensor x = Tensor::randn({kRows, 784}, rng);
  BufferPoolScope scope;
  // One parked block per size; a taker that keeps it empties the list.
  const auto still_parked = [](std::size_t floats) {
    const std::size_t before = alloc_stats::heap_allocations();
    Tensor probe = Tensor::uninit({static_cast<long>(floats)});
    return alloc_stats::heap_allocations() == before;
  };
  { Tensor park1 = Tensor::uninit({static_cast<long>(conv1_cols)}); }
  { Tensor park2 = Tensor::uninit({static_cast<long>(conv2_cols)}); }
  const Tensor& logits = model.forward(x, true);
  EXPECT_TRUE(still_parked(conv1_cols));
  EXPECT_TRUE(still_parked(conv2_cols));
  model.backward(Tensor::ones(logits.shape()));
  EXPECT_TRUE(still_parked(conv1_cols));
  EXPECT_TRUE(still_parked(conv2_cols));
}

// Sequential's Conv2d→ReLU peephole (ReLU in the GEMM epilogue, its mask
// applied while unpacking the gradient) against the same two layers run
// unfused.
TEST(ConvKernels, FusedReluMatchesUnfusedPair) {
  Rng rng(34);
  for (const Conv2dGeom& g : conv_geometries()) {
    const long batch = 3;
    SCOPED_TRACE(geom_str(g, batch));
    auto conv = std::make_unique<nn::Conv2d>(g.in_channels, 4, g.kernel,
                                             g.stride, g.pad, g.in_h, g.in_w,
                                             rng);
    nn::Conv2d unfused(*conv);
    nn::ReLU relu;
    nn::Sequential fused;
    fused.add(std::move(conv));
    fused.add(std::make_unique<nn::ReLU>());
    const Tensor x =
        Tensor::randn({batch, g.in_channels, g.in_h, g.in_w}, rng);
    const Tensor& y = fused.forward(x, true);
    EXPECT_TRUE(bitwise_equal(y, relu.forward(unfused.forward(x, true), true)));
    const Tensor gy = Tensor::randn(y.shape(), rng);
    EXPECT_TRUE(bitwise_equal(fused.backward(gy),
                              unfused.backward(relu.backward(gy))));
    const auto pf = fused.params();
    const auto pu = unfused.params();
    for (std::size_t i = 0; i < pf.size(); ++i)
      EXPECT_TRUE(bitwise_equal(*pf[i].grad, *pu[i].grad)) << pf[i].name;
  }
}

// In lenet5 both Conv2d→ReLU pairs fuse: the ReLUs keep their slot keys
// but never fill their y and mask slots.
TEST(ConvKernels, LenetFusedReluLeavesItsSlotsEmpty) {
  Rng rng(36);
  nn::Model model = nn::make_model("lenet5", {1, 28, 28}, 10, rng);
  const Tensor x = Tensor::randn({8, 784}, rng);
  const Tensor& logits = model.forward(x, true);
  (void)model.root().backward(Tensor::ones(logits.shape()));
  // Keys: Unflatten 0–1, conv1 2–5, ReLU 6–8, pool 9–10, conv2 11–14,
  // ReLU 15–17.
  for (std::size_t key : {6u, 7u, 8u, 15u, 16u, 17u})
    EXPECT_TRUE(model.workspace().peek(key).empty()) << "slot " << key;
  for (std::size_t key : {3u, 12u})  // the convs' packed outputs
    EXPECT_FALSE(model.workspace().peek(key).empty()) << "slot " << key;
}

std::uint64_t fnv1a(std::uint64_t h, const Tensor& t) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < t.numel() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// Logits, parameter gradients (Model::backward) and the full-backward input
// gradient of whole conv models at batch 50, pinned to hashes recorded
// before the row-wise kernels and the Conv2d→ReLU fusion: every float of
// the conv path is unchanged. The hashes hold for the AVX2 and AVX-512
// microkernels alike; optimized and -O0 builds differ, because only an
// optimizing build contracts the scalar loops (loss, batch norm) to FMAs.
TEST(ConvKernels, ModelsMatchPinnedHashes) {
#if !defined(__AVX__) && !defined(__AVX512F__)
  GTEST_SKIP() << "hashes recorded for the AVX/AVX-512 microkernels only";
#endif
  struct Case {
    const char* arch;
    nn::InputGeom geom;
    std::uint64_t logits, param_grads, input_grad;
  };
#if defined(__OPTIMIZE__)
  const Case cases[] = {
      {"lenet5", {1, 28, 28}, 0x1ede64e1b7df8a1fULL, 0x11d36e4a69dcb340ULL,
       0x8e111e7543ad9fb3ULL},
      {"resnet8", {3, 32, 32}, 0x0c524fdfd0d7e61eULL, 0x5e0cdc064cf8a0e3ULL,
       0x12631675953fbd61ULL}};
#else
  const Case cases[] = {
      {"lenet5", {1, 28, 28}, 0x9af55e3d66dc297cULL, 0xa7221a335ca0d6d6ULL,
       0xef0e4d60dae3815dULL},
      {"resnet8", {3, 32, 32}, 0x06b84e61f13731a3ULL, 0x208c6609a834802bULL,
       0xb6b6ef5d08f9f47aULL}};
#endif
  for (const Case& c : cases) {
    SCOPED_TRACE(c.arch);
    Rng rng(35);
    nn::Model model = nn::make_model(c.arch, c.geom, 10, rng);
    nn::Model full = model;
    const Tensor x = Tensor::randn({50, c.geom.flat()}, rng);
    std::vector<long> labels;
    for (long i = 0; i < 50; ++i) labels.push_back((i * 7) % 10);
    losses::CrossEntropyLoss ce;

    const Tensor logits = model.forward(x, true);
    model.backward(ce.eval(logits, labels).grad_logits);
    std::uint64_t grads = kFnvBasis;
    for (const nn::ParamRef& p : model.params())
      if (p.grad != nullptr) grads = fnv1a(grads, *p.grad);
    const Tensor& dx =
        full.root().backward(ce.eval(full.forward(x, true), labels).grad_logits);

    EXPECT_EQ(fnv1a(kFnvBasis, logits), c.logits)
        << std::hex << fnv1a(kFnvBasis, logits);
    EXPECT_EQ(grads, c.param_grads) << std::hex << grads;
    EXPECT_EQ(fnv1a(kFnvBasis, dx), c.input_grad)
        << std::hex << fnv1a(kFnvBasis, dx);
  }
}

}  // namespace
}  // namespace goldfish

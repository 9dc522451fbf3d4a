// Micro-benchmarks of the hot kernels (google-benchmark): matmul, im2col
// convolution lowering, softmax family, and the Goldfish loss terms. These
// are the cost drivers of every experiment above.
#include <benchmark/benchmark.h>

#include "losses/distillation.h"
#include "losses/goldfish_loss.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "tensor/ops.h"

namespace goldfish {
namespace {

/// The seed's matmul kernel (pre-runtime ikj triple loop, no cache
/// blocking), kept verbatim as the old-vs-new baseline: items_per_second of
/// BM_GemmSeedNaive vs BM_Gemm at equal sizes is the backbone speedup.
Tensor seed_naive_matmul(const Tensor& a, const Tensor& b) {
  const long m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const float* A = a.data();
  const float* B = b.data();
  float* C = c.data();
  for (long i = 0; i < m; ++i) {
    for (long kk = 0; kk < k; ++kk) {
      const float aik = A[i * k + kk];
      if (aik == 0.0f) continue;
      const float* Brow = B + kk * n;
      float* Crow = C + i * n;
      for (long j = 0; j < n; ++j) Crow[j] += aik * Brow[j];
    }
  }
  return c;
}

void BM_GemmSeedNaive(benchmark::State& state) {
  const long n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = seed_naive_matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmSeedNaive)->Arg(64)->Arg(128)->Arg(256)->Arg(384)->Arg(512);

void BM_Gemm(benchmark::State& state) {
  const long n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(384)->Arg(512);

// Repro-relevant rectangular shapes. Conv forward lowers to
// (outC × patch)·(patch × N·oh·ow) — short-fat; linear layers are
// (batch × in)·(in × out) with the nt flag.
void BM_GemmIm2colShape(benchmark::State& state) {
  Rng rng(2);
  Tensor w = Tensor::randn({16, 27}, rng);        // 16 filters over 3·3·3
  Tensor cols = Tensor::randn({27, 16384}, rng);  // batch 16 of 32×32
  for (auto _ : state) {
    Tensor c = gemm(w, cols, false, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 16 * 27 * 16384);
}
BENCHMARK(BM_GemmIm2colShape);

void BM_GemmLinearShape(benchmark::State& state) {
  Rng rng(3);
  Tensor x = Tensor::randn({100, 784}, rng);
  Tensor w = Tensor::randn({128, 784}, rng);
  for (auto _ : state) {
    Tensor y = gemm(x, w, false, true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 100 * 784 * 128);
}
BENCHMARK(BM_GemmLinearShape);

void BM_GemmTn(benchmark::State& state) {
  const long n = state.range(0);
  Rng rng(4);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = gemm(a, b, true, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmTn)->Arg(128)->Arg(256);

void BM_Im2col(benchmark::State& state) {
  Conv2dGeom g{3, 32, 32, 3, 1, 1};
  Rng rng(3);
  Tensor img = Tensor::randn({16, 3, 32, 32}, rng);
  for (auto _ : state) {
    Tensor cols = im2col(img, g);
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col);

void BM_ConvForward(benchmark::State& state) {
  Rng rng(4);
  nn::Conv2d conv(3, 16, 3, 1, 1, 32, 32, rng);
  Tensor x = Tensor::randn({16, 3, 32, 32}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvForward);

void BM_ConvBackward(benchmark::State& state) {
  Rng rng(5);
  nn::Conv2d conv(3, 16, 3, 1, 1, 32, 32, rng);
  Tensor x = Tensor::randn({16, 3, 32, 32}, rng);
  Tensor y = conv.forward(x, true);
  Tensor g = Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    Tensor gin = conv.backward(g);
    benchmark::DoNotOptimize(gin.data());
  }
}
BENCHMARK(BM_ConvBackward);

// lenet5's conv2 (6×14×14 → 16×10×10, k5) at batch 50: one forward plus the
// full backward, so the three GEMMs (forward and dW gathering their column
// panels straight from the input, no im2col), output packing, gradient
// unpacking and the per-sample input-gradient GEMMs with their scatter all
// run. Items are the GEMM FLOPs (forward, dW and the input gradient:
// 3 · 2·outC·patch·N·oh·ow); the CI ratchet floors it.
void BM_Conv2dLenetStep(benchmark::State& state) {
  constexpr long kBatch = 50, kOut = 16;
  Rng rng(12);
  nn::Conv2d conv(6, kOut, 5, 1, 0, 14, 14, rng);
  const Tensor x = Tensor::randn({kBatch, 6, 14, 14}, rng);
  const Tensor g = Tensor::randn({kBatch, kOut, 10, 10}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, true).data());
    benchmark::DoNotOptimize(conv.backward(g).data());
  }
  state.SetItemsProcessed(state.iterations() * 3 * 2 * kOut * (6 * 5 * 5) *
                          kBatch * 10 * 10);
}
BENCHMARK(BM_Conv2dLenetStep);

void BM_LinearForward(benchmark::State& state) {
  Rng rng(6);
  nn::Linear fc(784, 128, rng);
  Tensor x = Tensor::randn({100, 784}, rng);
  for (auto _ : state) {
    Tensor y = fc.forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_LinearForward);

// -- fused-epilogue linear forward at n³ --------------------------------
// Three implementations of the same relu(x·Wᵀ + b): the seed's (naive ikj
// matmul, then separate bias and ReLU passes), the PR-1 blocked GEMM with
// the same two extra passes, and the fused writeback (bias + ReLU inside
// the microkernel, beta=0 into an uninitialized output). The CI ratchet
// (bench/check_bench_ratchet.py) requires Fused ≥ 1.2× SeedTwoPass at 256.

void apply_bias_relu_two_pass(Tensor& y, const Tensor& bias) {
  const long rows = y.dim(0), cols = y.dim(1);
  for (long i = 0; i < rows; ++i)
    for (long j = 0; j < cols; ++j) y.at(i, j) += bias[std::size_t(j)];
  for (float& v : y.vec()) v = v > 0.0f ? v : 0.0f;
}

void BM_LinearSeedTwoPass(benchmark::State& state) {
  const long n = state.range(0);
  Rng rng(11);
  Tensor x = Tensor::randn({n, n}, rng);
  Tensor wt = Tensor::randn({n, n}, rng);  // pre-transposed for the naive path
  Tensor bias = Tensor::randn({n}, rng);
  for (auto _ : state) {
    Tensor y = seed_naive_matmul(x, wt);
    apply_bias_relu_two_pass(y, bias);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_LinearSeedTwoPass)->Arg(256);

void BM_LinearTwoPass(benchmark::State& state) {
  const long n = state.range(0);
  Rng rng(11);
  Tensor x = Tensor::randn({n, n}, rng);
  Tensor w = Tensor::randn({n, n}, rng);
  Tensor bias = Tensor::randn({n}, rng);
  for (auto _ : state) {
    Tensor y = gemm(x, w, false, true);
    apply_bias_relu_two_pass(y, bias);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_LinearTwoPass)->Arg(256);

void BM_LinearFusedEpilogue(benchmark::State& state) {
  const long n = state.range(0);
  Rng rng(11);
  Tensor x = Tensor::randn({n, n}, rng);
  Tensor w = Tensor::randn({n, n}, rng);
  Tensor bias = Tensor::randn({n}, rng);
  for (auto _ : state) {
    Tensor y = gemm_fused(x, w, false, true,
                          runtime::Epilogue::kBiasColRelu, bias);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_LinearFusedEpilogue)->Arg(256);

void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(7);
  Tensor z = Tensor::randn({256, 100}, rng);
  for (auto _ : state) {
    Tensor p = softmax_rows(z, 3.0f);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_SoftmaxRows);

void BM_DistillationLoss(benchmark::State& state) {
  Rng rng(8);
  Tensor t = Tensor::randn({100, 10}, rng);
  Tensor s = Tensor::randn({100, 10}, rng);
  for (auto _ : state) {
    auto r = losses::distillation_loss(t, s, 3.0f);
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_DistillationLoss);

void BM_ConfusionLoss(benchmark::State& state) {
  Rng rng(9);
  Tensor s = Tensor::randn({100, 10}, rng);
  for (auto _ : state) {
    auto r = losses::confusion_loss(s);
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_ConfusionLoss);

void BM_GoldfishCompositeLoss(benchmark::State& state) {
  Rng rng(10);
  Tensor sr = Tensor::randn({100, 10}, rng);
  Tensor tr = Tensor::randn({100, 10}, rng);
  Tensor sf = Tensor::randn({20, 10}, rng);
  std::vector<long> yr(100), yf(20);
  for (std::size_t i = 0; i < 100; ++i) yr[i] = long(i % 10);
  for (std::size_t i = 0; i < 20; ++i) yf[i] = long(i % 10);
  losses::GoldfishLoss loss;
  for (auto _ : state) {
    auto r = loss.eval(sr, yr, tr, sf, yf);
    benchmark::DoNotOptimize(r.total);
  }
}
BENCHMARK(BM_GoldfishCompositeLoss);

}  // namespace
}  // namespace goldfish

BENCHMARK_MAIN();

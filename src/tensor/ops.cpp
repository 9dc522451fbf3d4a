#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "runtime/gemm.h"
#include "runtime/scheduler.h"

namespace goldfish {

namespace {

void check_2d(const Tensor& t, const char* who) {
  GOLDFISH_CHECK(t.rank() == 2, std::string(who) + " expects a 2-D tensor");
}

/// Logical (rows, cols) of op(t) given its storage and transpose flag.
std::pair<long, long> op_dims(const Tensor& t, bool trans) {
  return trans ? std::make_pair(t.dim(1), t.dim(0))
               : std::make_pair(t.dim(0), t.dim(1));
}

// Per-tap valid output ranges, shared with the GEMM's image packer.
using runtime::tap_range;
using runtime::TapRange;

}  // namespace

void gemm_acc(Tensor& c, const Tensor& a, const Tensor& b, bool trans_a,
              bool trans_b) {
  check_2d(a, "gemm");
  check_2d(b, "gemm");
  check_2d(c, "gemm");
  const auto [m, k] = op_dims(a, trans_a);
  const auto [kb, n] = op_dims(b, trans_b);
  GOLDFISH_CHECK(kb == k, "gemm inner dims: " + a.shape_str() + " · " +
                              b.shape_str());
  GOLDFISH_CHECK(c.dim(0) == m && c.dim(1) == n,
                 "gemm output shape: " + c.shape_str());
  runtime::sgemm(trans_a, trans_b, m, n, k, a.data(), a.dim(1), b.data(),
                 b.dim(1), c.data(), n);
}

void gemm_into(Tensor& c, const Tensor& a, const Tensor& b, bool trans_a,
               bool trans_b) {
  check_2d(a, "gemm");
  check_2d(b, "gemm");
  const auto [m, k] = op_dims(a, trans_a);
  const auto [kb, n] = op_dims(b, trans_b);
  GOLDFISH_CHECK(kb == k, "gemm inner dims: " + a.shape_str() + " · " +
                              b.shape_str());
  c.resize_uninit({m, n});  // beta=0 overwrites every element
  runtime::sgemm(trans_a, trans_b, m, n, k, a.data(), a.dim(1), b.data(),
                 b.dim(1), c.data(), n, /*beta=*/0.0f, runtime::Epilogue::kNone,
                 nullptr);
}

Tensor gemm(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  Tensor c;
  gemm_into(c, a, b, trans_a, trans_b);
  return c;
}

void gemm_fused_into(Tensor& c, const Tensor& a, const Tensor& b, bool trans_a,
                     bool trans_b, runtime::Epilogue epilogue,
                     const Tensor& bias) {
  check_2d(a, "gemm_fused");
  check_2d(b, "gemm_fused");
  GOLDFISH_CHECK(epilogue != runtime::Epilogue::kNone,
                 "gemm_fused needs an epilogue; use gemm() for the plain "
                 "product");
  const auto [m, k] = op_dims(a, trans_a);
  const auto [kb, n] = op_dims(b, trans_b);
  GOLDFISH_CHECK(kb == k, "gemm inner dims: " + a.shape_str() + " · " +
                              b.shape_str());
  const bool per_col = epilogue == runtime::Epilogue::kBiasCol ||
                       epilogue == runtime::Epilogue::kBiasColRelu;
  const long want = per_col ? n : m;
  GOLDFISH_CHECK(bias.rank() == 1 && bias.dim(0) == want,
                 "gemm_fused bias shape " + bias.shape_str());
  c.resize_uninit({m, n});
  runtime::sgemm(trans_a, trans_b, m, n, k, a.data(), a.dim(1), b.data(),
                 b.dim(1), c.data(), n, /*beta=*/0.0f, epilogue, bias.data());
}

Tensor gemm_fused(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b,
                  runtime::Epilogue epilogue, const Tensor& bias) {
  Tensor c;
  gemm_fused_into(c, a, b, trans_a, trans_b, epilogue, bias);
  return c;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  return gemm(a, b, false, false);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  return gemm(a, b, true, false);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  return gemm(a, b, false, true);
}

Tensor transpose(const Tensor& a) {
  check_2d(a, "transpose");
  const long m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  for (long i = 0; i < m; ++i)
    for (long j = 0; j < n; ++j) t.at(j, i) = a.at(i, j);
  return t;
}

Tensor softmax_rows(const Tensor& logits, float temperature) {
  check_2d(logits, "softmax_rows");
  GOLDFISH_CHECK(temperature > 0.0f, "temperature must be positive");
  const long rows = logits.dim(0), cols = logits.dim(1);
  Tensor out({rows, cols});
  parallel_for(
      rows,
      [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) {
          float mx = -1e30f;
          for (long j = 0; j < cols; ++j) mx = std::max(mx, logits.at(i, j));
          double denom = 0.0;
          for (long j = 0; j < cols; ++j) {
            const float e = std::exp((logits.at(i, j) - mx) / temperature);
            out.at(i, j) = e;
            denom += e;
          }
          const float inv = static_cast<float>(1.0 / denom);
          for (long j = 0; j < cols; ++j) out.at(i, j) *= inv;
        }
      },
      std::max(1L, 4096 / std::max(1L, cols)));
  return out;
}

Tensor log_softmax_rows(const Tensor& logits, float temperature) {
  check_2d(logits, "log_softmax_rows");
  GOLDFISH_CHECK(temperature > 0.0f, "temperature must be positive");
  const long rows = logits.dim(0), cols = logits.dim(1);
  Tensor out({rows, cols});
  parallel_for(
      rows,
      [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) {
          float mx = -1e30f;
          for (long j = 0; j < cols; ++j) mx = std::max(mx, logits.at(i, j));
          double denom = 0.0;
          for (long j = 0; j < cols; ++j)
            denom += std::exp((logits.at(i, j) - mx) / temperature);
          const float log_denom = static_cast<float>(std::log(denom));
          for (long j = 0; j < cols; ++j)
            out.at(i, j) = (logits.at(i, j) - mx) / temperature - log_denom;
        }
      },
      std::max(1L, 4096 / std::max(1L, cols)));
  return out;
}

std::vector<long> argmax_rows(const Tensor& t) {
  check_2d(t, "argmax_rows");
  const long rows = t.dim(0), cols = t.dim(1);
  std::vector<long> out(static_cast<std::size_t>(rows));
  for (long i = 0; i < rows; ++i) {
    long best = 0;
    float bv = t.at(i, 0);
    for (long j = 1; j < cols; ++j) {
      if (t.at(i, j) > bv) {
        bv = t.at(i, j);
        best = j;
      }
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

std::vector<float> row_variance(const Tensor& t) {
  check_2d(t, "row_variance");
  const long rows = t.dim(0), cols = t.dim(1);
  std::vector<float> out(static_cast<std::size_t>(rows));
  for (long i = 0; i < rows; ++i) {
    double mean = 0.0;
    for (long j = 0; j < cols; ++j) mean += t.at(i, j);
    mean /= cols;
    double var = 0.0;
    for (long j = 0; j < cols; ++j) {
      const double d = t.at(i, j) - mean;
      var += d * d;
    }
    out[static_cast<std::size_t>(i)] = static_cast<float>(var / cols);
  }
  return out;
}

Tensor clamp_min(Tensor t, float lo) {
  for (float& x : t.vec()) x = std::max(x, lo);
  return t;
}

Tensor hadamard(Tensor lhs, const Tensor& rhs) {
  GOLDFISH_CHECK(lhs.same_shape(rhs), "hadamard shape mismatch");
  float* a = lhs.data();
  const float* b = rhs.data();
  for (std::size_t i = 0; i < lhs.numel(); ++i) a[i] *= b[i];
  return lhs;
}

void im2col_into(const Tensor& input, const Conv2dGeom& g, Tensor& cols) {
  GOLDFISH_CHECK(input.rank() == 4, "im2col expects (N,C,H,W)");
  GOLDFISH_CHECK(input.dim(1) == g.in_channels && input.dim(2) == g.in_h &&
                     input.dim(3) == g.in_w,
                 "im2col geometry mismatch: " + input.shape_str());
  const long N = input.dim(0);
  const long oh = g.out_h(), ow = g.out_w();
  const long patch = g.patch_size();
  cols.resize_uninit({patch, N * oh * ow});  // every element written below
  const float* src = input.data();
  float* dst = cols.data();
  const long col_stride = N * oh * ow;
  const long plane = g.in_h * g.in_w;
  // Samples write disjoint column ranges → parallel over the batch. A tap
  // that reads any padding zeroes its oh·ow block first; the valid part of
  // each output row is then one run: a copy (a strided gather when
  // stride > 1) from one input row.
  parallel_for(N, [&](long n_lo, long n_hi) {
  for (long n = n_lo; n < n_hi; ++n) {
    for (long c = 0; c < g.in_channels; ++c) {
      const float* img = src + (n * g.in_channels + c) * plane;
      for (long kh = 0; kh < g.kernel; ++kh) {
        const TapRange ys = tap_range(kh, g.stride, g.pad, g.in_h, oh);
        for (long kw = 0; kw < g.kernel; ++kw) {
          const TapRange xs = tap_range(kw, g.stride, g.pad, g.in_w, ow);
          const long row = ((c * g.kernel) + kh) * g.kernel + kw;
          float* block = dst + row * col_stride + n * oh * ow;
          if (xs.lo > 0 || xs.hi < ow || ys.lo > 0 || ys.hi < oh)
            std::fill_n(block, oh * ow, 0.0f);
          if (xs.empty()) continue;
          const long ix0 = xs.lo * g.stride + kw - g.pad;
          const long run = xs.hi - xs.lo;
          for (long y = ys.lo; y < ys.hi; ++y) {
            float* r = block + y * ow + xs.lo;
            const float* in = img + (y * g.stride + kh - g.pad) * g.in_w + ix0;
            if (g.stride == 1) {
              for (long x = 0; x < run; ++x) r[x] = in[x];
            } else {
              for (long x = 0; x < run; ++x) r[x] = in[x * g.stride];
            }
          }
        }
      }
    }
  }
  }, /*grain=*/1);
}

Tensor im2col(const Tensor& input, const Conv2dGeom& g) {
  Tensor cols;
  im2col_into(input, g, cols);
  return cols;
}

void col2im_sample(const float* __restrict cols, long ld, const Conv2dGeom& g,
                   float* __restrict img) {
  const long ow = g.out_w();
  const long plane = g.in_h * g.in_w;
  std::fill_n(img, g.in_channels * plane, 0.0f);  // padding gets no writes
  // The (c, kh, kw, y, x) loop order is fixed, so every input pixel sums its
  // contributions in the same (kh, kw) order whatever the run lengths.
  for (long c = 0; c < g.in_channels; ++c) {
    float* im = img + c * plane;
    for (long kh = 0; kh < g.kernel; ++kh) {
      const TapRange ys = tap_range(kh, g.stride, g.pad, g.in_h, g.out_h());
      for (long kw = 0; kw < g.kernel; ++kw) {
        const TapRange xs = tap_range(kw, g.stride, g.pad, g.in_w, ow);
        if (xs.empty()) continue;
        const long row = ((c * g.kernel) + kh) * g.kernel + kw;
        const float* in = cols + row * ld + xs.lo;
        const long ix0 = xs.lo * g.stride + kw - g.pad;
        const long run = xs.hi - xs.lo;
        for (long y = ys.lo; y < ys.hi; ++y) {
          const float* r = in + y * ow;
          float* o = im + (y * g.stride + kh - g.pad) * g.in_w + ix0;
          if (g.stride == 1) {
            for (long x = 0; x < run; ++x) o[x] += r[x];
          } else {
            for (long x = 0; x < run; ++x) o[x * g.stride] += r[x];
          }
        }
      }
    }
  }
}

void col2im_into(const Tensor& cols, long batch, const Conv2dGeom& g,
                 Tensor& img) {
  GOLDFISH_CHECK(cols.rank() == 2, "col2im expects a 2-D tensor");
  const long block = g.out_h() * g.out_w();
  GOLDFISH_CHECK(cols.dim(0) == g.patch_size() && cols.dim(1) == batch * block,
                 "col2im geometry mismatch");
  img.resize_uninit({batch, g.in_channels, g.in_h, g.in_w});
  const long sample = g.in_channels * g.in_h * g.in_w;
  // Samples scatter into disjoint image slices → parallel over the batch.
  parallel_for(batch, [&](long n_lo, long n_hi) {
    for (long n = n_lo; n < n_hi; ++n)
      col2im_sample(cols.data() + n * block, cols.dim(1), g,
                    img.data() + n * sample);
  }, /*grain=*/1);
}

Tensor col2im(const Tensor& cols, long batch, const Conv2dGeom& g) {
  Tensor img;
  col2im_into(cols, batch, g, img);
  return img;
}

}  // namespace goldfish

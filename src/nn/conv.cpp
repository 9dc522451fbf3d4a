#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "runtime/scheduler.h"

namespace goldfish::nn {

Conv2d::Conv2d(long in_channels, long out_channels, long kernel, long stride,
               long pad, long in_h, long in_w, Rng& rng)
    : geom_{in_channels, in_h, in_w, kernel, stride, pad},
      out_channels_(out_channels) {
  GOLDFISH_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
                 "bad conv dims");
  GOLDFISH_CHECK(geom_.out_h() > 0 && geom_.out_w() > 0,
                 "conv output collapses to zero");
  const long fan_in = geom_.patch_size();
  weight_ = Tensor::randn({out_channels, fan_in}, rng, 0.0f,
                          std::sqrt(2.0f / static_cast<float>(fan_in)));
  bias_ = Tensor::zeros({out_channels});
  grad_weight_ = Tensor::zeros({out_channels, fan_in});
  grad_bias_ = Tensor::zeros({out_channels});
}

Conv2d::Conv2d(const Conv2d& other)
    : ReluFusableLayer(),
      geom_(other.geom_),
      out_channels_(other.out_channels_),
      weight_(other.weight_),
      bias_(other.bias_),
      grad_weight_(Tensor::zeros(other.weight_.shape())),
      grad_bias_(Tensor::zeros(other.bias_.shape())) {}

Tensor& Conv2d::pack_output(const Tensor& flat, long batch) {
  const long oh = geom_.out_h(), ow = geom_.out_w();
  const long block = oh * ow;
  Tensor& img = slot(1, {batch, out_channels_, oh, ow});
  // flat is (outC, N·oh·ow) with columns ordered (n, y, x): the (c, n)
  // block of oh·ow floats is contiguous on both sides.
  for (long c = 0; c < out_channels_; ++c) {
    const float* row = flat.data() + c * batch * block;
    for (long n = 0; n < batch; ++n)
      std::copy_n(row + n * block, block,
                  img.data() + (n * out_channels_ + c) * block);
  }
  return img;
}

Tensor& Conv2d::unpack_grad(const Tensor& grad_img) {
  const long batch = cached_input_.dim(0);
  const long oh = geom_.out_h(), ow = geom_.out_w();
  const long block = oh * ow;
  const Shape out_shape{batch, out_channels_, oh, ow};
  GOLDFISH_CHECK(grad_img.shape() == out_shape, "conv grad shape");
  // Same shape as forward's packed output: contents intact (the fused
  // ReLU's post-activation values).
  const Tensor* y = fuse_relu() ? &slot(1, out_shape) : nullptr;
  Tensor& flat = slot(2, {out_channels_, batch * block});
  for (long c = 0; c < out_channels_; ++c) {
    float* row = flat.data() + c * batch * block;
    for (long n = 0; n < batch; ++n) {
      const long at = (n * out_channels_ + c) * block;
      if (y != nullptr) {
        mask_relu_grad(grad_img.data() + at, y->data() + at, row + n * block,
                       static_cast<std::size_t>(block));
      } else {
        std::copy_n(grad_img.data() + at, block, row + n * block);
      }
    }
  }
  return flat;
}

runtime::ImageColumns Conv2d::columns() const {
  return {cached_input_.data(), cached_input_.dim(0), geom_.in_channels,
          geom_.in_h, geom_.in_w, geom_.kernel, geom_.stride, geom_.pad};
}

const Tensor& Conv2d::forward(const Tensor& x, bool /*train*/) {
  // The GEMM gathers from the input through this geometry, so a mismatched
  // input would be read out of bounds.
  GOLDFISH_CHECK(x.rank() == 4 && x.dim(1) == geom_.in_channels &&
                     x.dim(2) == geom_.in_h && x.dim(3) == geom_.in_w,
                 "conv input shape " + x.shape_str());
  cached_input_ = x;  // member copy: capacity reused across steps
  const runtime::ImageColumns cols = columns();
  // Per-channel bias = one value per row of the (outC, N·oh·ow) product
  // (and the peepholed ReLU) fused into the GEMM writeback instead of extra
  // passes over the output.
  Tensor& flat = slot(0, {out_channels_, cols.cols()});
  runtime::sgemm(false, false, out_channels_, weight_.data(), weight_.dim(1),
                 cols, flat.data(), flat.dim(1), /*beta=*/0.0f,
                 fuse_relu() ? runtime::Epilogue::kBiasRowRelu
                             : runtime::Epilogue::kBiasRow,
                 bias_.data());
  return pack_output(flat, x.dim(0));
}

const Tensor& Conv2d::accumulate_grads(const Tensor& grad_output) {
  GOLDFISH_CHECK(!cached_input_.empty(), "backward before forward");
  const Tensor& g = unpack_grad(grad_output);  // (outC, N·oh·ow)
  const long cols = g.dim(1);
  // dW += g · colsᵀ, the transposed column matrix gathered from the input.
  runtime::sgemm(false, true, out_channels_, g.data(), cols, columns(),
                 grad_weight_.data(), grad_weight_.dim(1), /*beta=*/1.0f,
                 runtime::Epilogue::kNone, nullptr);
  // db: one double chain per channel, each in column order. The chains of
  // kLanes channels advance together so their add latencies overlap; a
  // short last group repeats its last row in the spare lanes and drops
  // their sums.
  constexpr long kLanes = 8;
  for (long c0 = 0; c0 < out_channels_; c0 += kLanes) {
    const long lanes = std::min(kLanes, out_channels_ - c0);
    const float* rows[kLanes];
    for (long l = 0; l < kLanes; ++l)
      rows[l] = g.data() + (c0 + std::min(l, lanes - 1)) * cols;
    double acc[kLanes] = {};
    for (long j = 0; j < cols; ++j)
      for (long l = 0; l < kLanes; ++l) acc[l] += rows[l][j];
    for (long l = 0; l < lanes; ++l)
      grad_bias_[std::size_t(c0 + l)] += static_cast<float>(acc[l]);
  }
  return g;
}

namespace {

/// The calling thread's scratch for one sample's input-gradient tile. It
/// only grows, so steady-state steps never allocate. A thread waiting on
/// the tile's own GEMM runs only that GEMM's chunks, so no other sample's
/// tile can land in the buffer while it is in use.
float* tile_scratch(std::size_t floats) {
  thread_local std::vector<float> tile;
  if (tile.size() < floats) tile.resize(floats);
  return tile.data();
}

}  // namespace

const Tensor& Conv2d::backward(const Tensor& grad_output) {
  const Tensor& g = accumulate_grads(grad_output);  // (outC, N·oh·ow)
  const long patch = geom_.patch_size();
  const long block = geom_.out_h() * geom_.out_w();
  const long sample = geom_.in_channels * geom_.in_h * geom_.in_w;
  Tensor& gin = slot(3, cached_input_.shape());
  // dX per sample: its (patch, oh·ow) tile of Wᵀ·g, scattered into its
  // image while the tile is in cache. Each tile element is the same sum
  // over outC the whole-batch product forms, and the scatter keeps col2im's
  // order, so dX is bitwise col2im(Wᵀ·g) without the column-sized matrix.
  parallel_for(cached_input_.dim(0), [&](long n_lo, long n_hi) {
    float* tile = tile_scratch(static_cast<std::size_t>(patch * block));
    for (long n = n_lo; n < n_hi; ++n) {
      runtime::sgemm(true, false, patch, block, out_channels_, weight_.data(),
                     patch, g.data() + n * block, g.dim(1), tile, block,
                     /*beta=*/0.0f, runtime::Epilogue::kNone, nullptr);
      col2im_sample(tile, block, geom_, gin.data() + n * sample);
    }
  }, /*grain=*/1);
  return gin;
}

void Conv2d::backward_params(const Tensor& grad_output) {
  (void)accumulate_grads(grad_output);
}

std::vector<ParamRef> Conv2d::params() {
  return {{"weight", &weight_, &grad_weight_},
          {"bias", &bias_, &grad_bias_}};
}

std::unique_ptr<Layer> Conv2d::clone() const {
  return std::make_unique<Conv2d>(*this);
}

std::string Conv2d::name() const {
  std::ostringstream os;
  os << "conv(" << geom_.in_channels << "->" << out_channels_ << ", k"
     << geom_.kernel << ", s" << geom_.stride << ", p" << geom_.pad << ")";
  return os.str();
}

}  // namespace goldfish::nn

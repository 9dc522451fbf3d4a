#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <sstream>

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
  for (long c = 0; c < out_channels_; ++c) {
    const float* row = g.data() + c * cols;
    double acc = 0.0;
    for (long j = 0; j < cols; ++j) acc += row[j];
    grad_bias_[std::size_t(c)] += static_cast<float>(acc);
  }
  return g;
}

const Tensor& Conv2d::backward(const Tensor& grad_output) {
  const Tensor& g = accumulate_grads(grad_output);
  const long cols = g.dim(1);
  Tensor& grad_cols = slot(3, {geom_.patch_size(), cols});
  gemm_into(grad_cols, weight_, g, true, false);  // (patch, N·oh·ow)
  Tensor& gin = slot(4, cached_input_.shape());
  col2im_into(grad_cols, cached_input_.dim(0), geom_, gin);
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

#include "nn/conv.h"

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

Tensor& Conv2d::pack_output(const Tensor& flat, long batch) {
  const long oh = geom_.out_h(), ow = geom_.out_w();
  Tensor& img = slot(1, {batch, out_channels_, oh, ow});
  // flat is (outC, N·oh·ow) with columns ordered (n, y, x).
  for (long c = 0; c < out_channels_; ++c) {
    const float* row = flat.data() + c * batch * oh * ow;
    for (long n = 0; n < batch; ++n)
      for (long y = 0; y < oh; ++y)
        for (long x = 0; x < ow; ++x)
          img.at4(n, c, y, x) = row[(n * oh + y) * ow + x];
  }
  return img;
}

Tensor& Conv2d::unpack_grad(const Tensor& grad_img) {
  const long batch = grad_img.dim(0);
  const long oh = geom_.out_h(), ow = geom_.out_w();
  Tensor& flat = slot(2, {out_channels_, batch * oh * ow});
  for (long c = 0; c < out_channels_; ++c) {
    float* row = flat.data() + c * batch * oh * ow;
    for (long n = 0; n < batch; ++n)
      for (long y = 0; y < oh; ++y)
        for (long x = 0; x < ow; ++x)
          row[(n * oh + y) * ow + x] = grad_img.at4(n, c, y, x);
  }
  return flat;
}

const Tensor& Conv2d::forward(const Tensor& x, bool /*train*/) {
  GOLDFISH_CHECK(x.rank() == 4, "conv expects (N,C,H,W)");
  cached_batch_ = x.dim(0);
  im2col_into(x, geom_, cached_cols_);
  // Per-channel bias = one value per row of the (outC, N·oh·ow) product,
  // fused into the GEMM writeback instead of a second pass over the output.
  Tensor& flat = slot(0, {out_channels_, cached_cols_.dim(1)});
  gemm_fused_into(flat, weight_, cached_cols_, false, false,
                  runtime::Epilogue::kBiasRow, bias_);
  return pack_output(flat, cached_batch_);
}

const Tensor& Conv2d::accumulate_grads(const Tensor& grad_output) {
  GOLDFISH_CHECK(!cached_cols_.empty(), "backward before forward");
  const Tensor& g = unpack_grad(grad_output);  // (outC, N·oh·ow)
  gemm_acc(grad_weight_, g, cached_cols_, false, true);
  const long cols = g.dim(1);
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
  Tensor& gin = slot(4, {cached_batch_, geom_.in_channels, geom_.in_h,
                         geom_.in_w});
  col2im_into(grad_cols, cached_batch_, geom_, gin);
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
  auto copy = std::make_unique<Conv2d>(*this);
  copy->grad_weight_.zero();
  copy->grad_bias_.zero();
  copy->cached_cols_ = Tensor();
  return copy;
}

std::string Conv2d::name() const {
  std::ostringstream os;
  os << "conv(" << geom_.in_channels << "->" << out_channels_ << ", k"
     << geom_.kernel << ", s" << geom_.stride << ", p" << geom_.pad << ")";
  return os.str();
}

}  // namespace goldfish::nn

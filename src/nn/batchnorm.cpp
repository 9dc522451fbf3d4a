#include "nn/batchnorm.h"

#include <cmath>
#include <sstream>

#include "runtime/scheduler.h"

namespace goldfish::nn {

BatchNorm2d::BatchNorm2d(long channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Tensor::ones({channels})),
      beta_(Tensor::zeros({channels})),
      grad_gamma_(Tensor::zeros({channels})),
      grad_beta_(Tensor::zeros({channels})),
      running_mean_(Tensor::zeros({channels})),
      running_var_(Tensor::ones({channels})) {
  GOLDFISH_CHECK(channels > 0, "bad batchnorm channels");
}

const Tensor& BatchNorm2d::forward(const Tensor& x, bool train) {
  GOLDFISH_CHECK(x.rank() == 4 && x.dim(1) == channels_,
                 "batchnorm input shape " + x.shape_str());
  const long N = x.dim(0), C = channels_, H = x.dim(2), W = x.dim(3);
  const long per_channel = N * H * W;
  Tensor& out = out_.acquire(x.shape());

  if (train) {
    Tensor& xhat = xhat_.acquire(x.shape());
    Tensor& inv_std_c = inv_std_.acquire({C});
    // Channels are independent (each writes its own slice of out/x̂ and its
    // own running-stat entries) → parallel over c on the shared runtime.
    parallel_for(C, [&](long c_lo, long c_hi) {
    for (long c = c_lo; c < c_hi; ++c) {
      double mean = 0.0;
      for (long n = 0; n < N; ++n)
        for (long y = 0; y < H; ++y)
          for (long xo = 0; xo < W; ++xo) mean += x.at4(n, c, y, xo);
      mean /= per_channel;
      double var = 0.0;
      for (long n = 0; n < N; ++n)
        for (long y = 0; y < H; ++y)
          for (long xo = 0; xo < W; ++xo) {
            const double d = x.at4(n, c, y, xo) - mean;
            var += d * d;
          }
      var /= per_channel;
      const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
      inv_std_c[std::size_t(c)] = inv_std;
      const float g = gamma_[std::size_t(c)], b = beta_[std::size_t(c)];
      for (long n = 0; n < N; ++n)
        for (long y = 0; y < H; ++y)
          for (long xo = 0; xo < W; ++xo) {
            const float xh =
                (x.at4(n, c, y, xo) - static_cast<float>(mean)) * inv_std;
            xhat.at4(n, c, y, xo) = xh;
            out.at4(n, c, y, xo) = g * xh + b;
          }
      running_mean_[std::size_t(c)] =
          (1.0f - momentum_) * running_mean_[std::size_t(c)] +
          momentum_ * static_cast<float>(mean);
      running_var_[std::size_t(c)] =
          (1.0f - momentum_) * running_var_[std::size_t(c)] +
          momentum_ * static_cast<float>(var);
    }
    }, /*grain=*/1);
  } else {
    parallel_for(C, [&](long c_lo, long c_hi) {
    for (long c = c_lo; c < c_hi; ++c) {
      const float mean = running_mean_[std::size_t(c)];
      const float inv_std =
          1.0f / std::sqrt(running_var_[std::size_t(c)] + eps_);
      const float g = gamma_[std::size_t(c)], b = beta_[std::size_t(c)];
      for (long n = 0; n < N; ++n)
        for (long y = 0; y < H; ++y)
          for (long xo = 0; xo < W; ++xo)
            out.at4(n, c, y, xo) =
                g * (x.at4(n, c, y, xo) - mean) * inv_std + b;
    }
    }, /*grain=*/1);
  }
  return out;
}

const Tensor& BatchNorm2d::backward(const Tensor& grad_output) {
  // Only a training forward fills x̂: backward needs its batch statistics.
  const Tensor& xhat = xhat_.read(grad_output.shape());
  const Tensor& inv_std_c = inv_std_.read({channels_});
  const long N = xhat.dim(0), C = channels_, H = xhat.dim(2),
             W = xhat.dim(3);
  const long m = N * H * W;
  Tensor& gin = dx_.acquire(xhat.shape());
  parallel_for(C, [&](long c_lo, long c_hi) {
  for (long c = c_lo; c < c_hi; ++c) {
    // Standard batch-norm backward:
    // dx = (gamma·inv_std/m) · (m·dy − Σdy − x̂·Σ(dy·x̂))
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (long n = 0; n < N; ++n)
      for (long y = 0; y < H; ++y)
        for (long xo = 0; xo < W; ++xo) {
          const float dy = grad_output.at4(n, c, y, xo);
          sum_dy += dy;
          sum_dy_xhat += double(dy) * xhat.at4(n, c, y, xo);
        }
    grad_beta_[std::size_t(c)] += static_cast<float>(sum_dy);
    grad_gamma_[std::size_t(c)] += static_cast<float>(sum_dy_xhat);
    const float g = gamma_[std::size_t(c)];
    const float inv_std = inv_std_c[std::size_t(c)];
    const float scale = g * inv_std / static_cast<float>(m);
    for (long n = 0; n < N; ++n)
      for (long y = 0; y < H; ++y)
        for (long xo = 0; xo < W; ++xo) {
          const float dy = grad_output.at4(n, c, y, xo);
          const float xh = xhat.at4(n, c, y, xo);
          gin.at4(n, c, y, xo) =
              scale * (static_cast<float>(m) * dy -
                       static_cast<float>(sum_dy) -
                       xh * static_cast<float>(sum_dy_xhat));
        }
  }
  }, /*grain=*/1);
  return gin;
}

std::vector<ParamRef> BatchNorm2d::params() {
  // Running stats are exposed as parameters with null gradients so that
  // model snapshot/aggregation code moves them with the weights (FedAvg
  // averages running stats across clients exactly like PyTorch-based FL
  // implementations that average full state_dicts).
  return {{"gamma", &gamma_, &grad_gamma_},
          {"beta", &beta_, &grad_beta_},
          {"running_mean", &running_mean_, nullptr},
          {"running_var", &running_var_, nullptr}};
}

std::unique_ptr<Layer> BatchNorm2d::clone() const {
  auto copy = std::make_unique<BatchNorm2d>(*this);
  copy->grad_gamma_.zero();
  copy->grad_beta_.zero();
  return copy;
}

std::string BatchNorm2d::name() const {
  std::ostringstream os;
  os << "batchnorm(" << channels_ << ")";
  return os.str();
}

}  // namespace goldfish::nn

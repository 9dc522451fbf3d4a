// 2-D convolution as implicit GEMMs over the NCHW input (no im2col matrix).
#pragma once

#include "nn/layer.h"
#include "tensor/ops.h"

namespace goldfish::nn {

/// Convolution with square kernels, He init. Weight layout is
/// (out_channels, in_channels·K·K) so forward is a single matmul against the
/// input's column matrix, and dW one against its transpose; sgemm gathers
/// both straight from the cached NCHW input (runtime::ImageColumns), so the
/// column matrix is never stored. The input gradient Wᵀ·g is formed one
/// sample at a time into a per-thread tile that col2im_sample scatters at
/// once, so no column-sized gradient is stored either. A fused ReLU
/// (Sequential's Conv2d→ReLU peephole) rides the GEMM writeback, and
/// backward applies its mask while unpacking the incoming gradient, reading
/// the packed output — no extra buffer.
class Conv2d final : public ReluFusableLayer {
 public:
  Conv2d(long in_channels, long out_channels, long kernel, long stride,
         long pad, long in_h, long in_w, Rng& rng);
  /// Copies the parameters only: gradients start at zero and unfused (what
  /// clone() returns).
  Conv2d(const Conv2d& other);
  Conv2d& operator=(const Conv2d&) = delete;

  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;

  long out_channels() const { return out_channels_; }
  long out_h() const { return geom_.out_h(); }
  long out_w() const { return geom_.out_w(); }

 private:
  Conv2dGeom geom_;
  long out_channels_ = 0;
  Tensor weight_;  // (outC, inC·K·K)
  Tensor bias_;    // (outC)
  Tensor grad_weight_, grad_bias_;
  PassBuffer<Tensor> input_;  // (N, C, H, W) from the last forward
  PassBuffer<Tensor> flat_;   // (outC, N·oh·ow) forward product
  PassBuffer<Tensor> out_;    // (N, outC, oh, ow) packed output
  PassBuffer<Tensor> gflat_;  // (outC, N·oh·ow) unpacked incoming gradient
  PassBuffer<Tensor> dx_;     // (N, C, H, W) input gradient

  /// The cached input read as its (C·K·K, N·oh·ow) column matrix.
  runtime::ImageColumns columns() const;
  /// (outC, N·oh·ow) matmul output → (N, outC, oh, ow) image layout, into
  /// the layer's output buffer: one oh·ow block copy per (channel, sample).
  Tensor& pack_output(const Tensor& flat, long batch);
  /// Inverse of pack_output for the incoming gradient; when fused, each
  /// block is masked by the packed output (ReLU backward).
  Tensor& unpack_grad(const Tensor& grad_img);
  /// dW and db from `grad_output`; returns the unpacked (outC, N·oh·ow)
  /// gradient the input-gradient GEMM consumes.
  const Tensor& accumulate_grads(const Tensor& grad_output);
};

}  // namespace goldfish::nn

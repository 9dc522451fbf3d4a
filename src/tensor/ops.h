// Free-function kernels over Tensor: matmul, softmax family, reductions,
// and the im2col/col2im pair that backs convolution.
//
// All functions are pure (value in, value out) unless the name says
// otherwise; shape preconditions throw CheckError.
#pragma once

#include "runtime/gemm.h"
#include "tensor/tensor.h"

namespace goldfish {

// -- linear algebra --------------------------------------------------------

/// C = op(A)·op(B) with op(X) = Xᵀ when the flag is set. The single matrix
/// product of the library: a cache-blocked GEMM (runtime::sgemm) that packs
/// op(A)/op(B) into contiguous micro-panels and drives a register-tiled
/// microkernel, parallelized over independent output tiles of C on the
/// shared runtime Scheduler. Transposes are never materialized; results are
/// bit-identical for any thread count. C is written in overwrite mode
/// (beta=0) into an uninitialized tensor — no zero-fill pass.
Tensor gemm(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b);

/// C = epilogue(op(A)·op(B)): the product with a bias broadcast (and
/// optionally ReLU) fused into the GEMM writeback instead of separate passes
/// over C. `bias` must be 1-D with length n for the per-column variants
/// (linear layers: one bias per output feature) and length m for the per-row
/// variants (conv: one bias per output channel of the im2col product).
/// Bit-identical to gemm() followed by the equivalent bias/ReLU passes.
/// `epilogue` must not be kNone — call gemm() for the plain product.
Tensor gemm_fused(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b,
                  runtime::Epilogue epilogue, const Tensor& bias);

/// C += op(A)·op(B) accumulated in place (the gradient hot path: avoids a
/// temporary and an extra pass). Shape of `c` must already match.
void gemm_acc(Tensor& c, const Tensor& a, const Tensor& b, bool trans_a,
              bool trans_b);

/// gemm() writing into caller-owned storage: `c` is resized in place
/// (resize_uninit — no reallocation once warm) and fully overwritten
/// (beta=0). The zero-allocation twin used by workspace-backed layers.
void gemm_into(Tensor& c, const Tensor& a, const Tensor& b, bool trans_a,
               bool trans_b);

/// gemm_fused() writing into caller-owned storage (see gemm_into).
void gemm_fused_into(Tensor& c, const Tensor& a, const Tensor& b, bool trans_a,
                     bool trans_b, runtime::Epilogue epilogue,
                     const Tensor& bias);

/// C = A(m×k) · B(k×n). Thin wrapper over gemm(a, b, false, false).
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = Aᵀ(k×m)ᵀ · B(k×n) = (m×n). Thin wrapper over gemm(a, b, true, false).
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// C = A(m×k) · Bᵀ(n×k)ᵀ = (m×n). Thin wrapper over gemm(a, b, false, true).
/// Note: the pre-runtime kernel accumulated each dot product in double;
/// like the other two wrappers this now accumulates in float registers
/// (standard GEMM practice — blocked summation keeps error well inside the
/// test tolerances, but bitwise results differ from the seed).
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// Transposed copy of a 2-D tensor.
Tensor transpose(const Tensor& a);

// -- rowwise softmax family --------------------------------------------

/// Rowwise softmax of a 2-D tensor of logits, with temperature T
/// (Eq. 3/4 of the paper): p_ij = exp(z_ij / T) / Σ_k exp(z_ik / T).
/// Numerically stabilized by max subtraction.
Tensor softmax_rows(const Tensor& logits, float temperature = 1.0f);

/// Rowwise log-softmax (stable), temperature-scaled.
Tensor log_softmax_rows(const Tensor& logits, float temperature = 1.0f);

/// Rowwise argmax of a 2-D tensor; returns one index per row.
std::vector<long> argmax_rows(const Tensor& t);

/// Per-row variance of a 2-D tensor (population variance, ÷C).
/// Used by the confusion loss (Eq. 2) on prediction vectors.
std::vector<float> row_variance(const Tensor& t);

// -- elementwise -------------------------------------------------------

/// Elementwise maximum with a scalar (ReLU building block).
Tensor clamp_min(Tensor t, float lo);

/// Elementwise product (Hadamard).
Tensor hadamard(Tensor lhs, const Tensor& rhs);

// -- convolution lowering ----------------------------------------------

/// Parameters of a 2-D convolution / pooling window.
struct Conv2dGeom {
  long in_channels = 0;
  long in_h = 0, in_w = 0;
  long kernel = 0;   // square kernels only — all paper models use them
  long stride = 1;
  long pad = 0;

  long out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  long out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Rows of the im2col matrix: C·K·K.
  long patch_size() const { return in_channels * kernel * kernel; }
};

/// Lower a batch image tensor (N,C,H,W) to a matrix of shape
/// (C·K·K, N·outH·outW) so convolution becomes one matmul.
Tensor im2col(const Tensor& input, const Conv2dGeom& g);

/// im2col writing into caller-owned storage (resized in place, every
/// element written including the zero padding — no upfront fill needed).
/// A pure copy: each element is one input float or a padding zero.
void im2col_into(const Tensor& input, const Conv2dGeom& g, Tensor& cols);

/// Adjoint of im2col: scatter a (C·K·K, N·outH·outW) matrix of patch
/// gradients back to an image-shaped (N,C,H,W) gradient.
Tensor col2im(const Tensor& cols, long batch, const Conv2dGeom& g);

/// col2im writing into caller-owned storage (resized in place; every
/// element is written). One col2im_sample per sample.
void col2im_into(const Tensor& cols, long batch, const Conv2dGeom& g,
                 Tensor& img);

/// One sample of col2im: scatter its (C·K·K, outH·outW) patch gradients,
/// row r at `cols + r·ld`, into its (C, H, W) image gradient `img`, which
/// is zeroed first (padding positions receive no writes). Each pixel sums
/// its contributions in a fixed (kh, kw) order. `img` must not overlap
/// `cols`.
void col2im_sample(const float* cols, long ld, const Conv2dGeom& g,
                   float* img);

}  // namespace goldfish

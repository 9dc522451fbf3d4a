// Single blocked GEMM backbone: every matrix product in the library — all
// four transpose combinations, and convolution's implicit column matrix —
// lowers to this one kernel.
//
// Algorithm (BLIS-style three-level blocking over row-major storage):
//   tall C (m > MC):
//     for each NC-wide column panel of C:
//       for each KC-deep slice of the inner dimension:
//         pack op(B) slice into contiguous NR-wide micro-panels (zero-padded)
//         for each MC-tall row panel of C (parallel across the Scheduler):
//           pack op(A) slice into contiguous MR-tall micro-panels
//           for each MR×NR tile: register-tiled microkernel, accumulating
//           the full KC product into local registers before touching C
//   short-fat C (m ≤ MC — conv forwards and weight gradients, m = outC):
//     for each KC-deep slice: pack op(A) once, then for each NR-wide column
//     tile (parallel): pack that tile's B micro-panel, run its MR×NR tiles
//
// Packing makes the microkernel's loads unit-stride regardless of the
// transpose flags, so transposes are never materialized. B panels come from
// a packer: the strided one reads a stored matrix (one contiguous-run loop
// per transpose case), the image one gathers convolution's column matrix
// straight from an NCHW image through per-tap valid ranges, so the im2col
// matrix is never stored either. Packing buffers are thread_local and grow
// monotonically, so steady-state calls never touch the heap.
//
// Determinism: a packer is a pure copy — every packed float is one element
// of op(B) or a padding zero — so which packer fills a panel, and which
// thread fills it, never changes a product. The k-dimension is reduced in a
// fixed order (KC blocks outer, packed k inner) and parallelism only splits
// independent output tiles of C (row panels when C is tall, NR-wide column
// tiles when C is short-fat), so results are bit-identical for any thread
// count, and an image product is bitwise the product over the materialized
// im2col matrix.
#pragma once

#include <algorithm>

namespace goldfish::runtime {

class Scheduler;

/// Fused transform applied to each element of C in the microkernel's final
/// writeback (the last KC slice of the k reduction), replacing what would
/// otherwise be one or two extra passes over C:
///
///   kNone         C[i,j] = beta·C[i,j] + P[i,j]
///   kBiasCol      C[i,j] = beta·C[i,j] + P[i,j] + bias[j]   (linear layers)
///   kBiasColRelu  C[i,j] = relu(beta·C[i,j] + P[i,j] + bias[j])
///   kBiasRow      C[i,j] = beta·C[i,j] + P[i,j] + bias[i]   (conv channels)
///   kBiasRowRelu  C[i,j] = relu(beta·C[i,j] + P[i,j] + bias[i])
///
/// where P = op(A)·op(B). Bias is broadcast per column (length n) or per row
/// (length m); relu(x) is `x > 0 ? x : 0` (exactly the two-pass ReLU,
/// including -0.0 → +0.0), so a fused product is bit-identical to the
/// unfused product followed by separate bias-add and ReLU passes.
enum class Epilogue { kNone, kBiasCol, kBiasColRelu, kBiasRow, kBiasRowRelu };

/// C(m×n) = beta·C + op(A)·op(B), epilogue-fused, with op(X) = Xᵀ when the
/// flag is set. All matrices row-major; `lda`/`ldb`/`ldc` are the stored row
/// lengths (A is stored k×m when `transa`, likewise B is stored n×k when
/// `transb`). C must not alias A, B, or `bias`.
///
/// `beta` selects the writeback mode of the *first* KC slice and must be
/// exactly 0 or 1: 0 overwrites C (its prior contents are never read — pair
/// with Tensor::uninit to skip the zero-fill entirely), 1 accumulates into C
/// (the gradient hot path). Later slices always accumulate the partial
/// product; the epilogue is applied once, on the final slice.
///
/// `bias` must be non-null (length n for the column variants, m for the row
/// variants) whenever `epilogue != kNone`, and is ignored otherwise.
/// `sched == nullptr` uses the process-wide Scheduler.
void sgemm(bool transa, bool transb, long m, long n, long k, const float* A,
           long lda, const float* B, long ldb, float* C, long ldc, float beta,
           Epilogue epilogue, const float* bias, Scheduler* sched = nullptr);

/// The output positions [lo, hi) of one kernel tap `k` along an axis whose
/// input coordinate o·stride + k − pad lands inside [0, extent). Computed
/// once per tap, so convolution's gather and scatter loops test no bounds
/// per element and never form a pointer outside the image plane.
struct TapRange {
  long lo, hi;
  bool empty() const { return lo == hi; }
};

inline TapRange tap_range(long k, long stride, long pad, long extent,
                          long out) {
  const long first = pad - k;           // o·stride ≥ pad − k
  const long past = extent + pad - k;   // o·stride < extent + pad − k
  const long lo = std::min(out, first > 0 ? (first + stride - 1) / stride : 0);
  const long hi = past > 0 ? std::min(out, (past + stride - 1) / stride) : 0;
  return {lo, std::max(lo, hi)};
}

/// An NCHW image read as its convolution column matrix: the
/// (C·K·K, N·oh·ow) matrix im2col would build, whose row (c, kh, kw) and
/// column (n, y, x) hold image[n, c, y·stride + kh − pad, x·stride + kw −
/// pad], or 0 where that lands in the padding. The image sgemm overload
/// gathers its B panels from here, so the matrix is never stored.
struct ImageColumns {
  const float* data = nullptr;  // (batch, channels, height, width)
  long batch = 0, channels = 0, height = 0, width = 0;
  long kernel = 0, stride = 1, pad = 0;  // square kernels

  long out_h() const { return (height + 2 * pad - kernel) / stride + 1; }
  long out_w() const { return (width + 2 * pad - kernel) / stride + 1; }
  long rows() const { return channels * kernel * kernel; }
  long cols() const { return batch * out_h() * out_w(); }
};

/// C(m×n) = beta·C + op(A)·op(B) with op(B) the image's column matrix
/// (`transb` false: n = cols(), k = rows() — the conv forward W·cols) or
/// its transpose (`transb` true: n = rows(), k = cols() — the conv weight
/// gradient g·colsᵀ). Same driver, blocking, k order and epilogues as the
/// strided overload: the product is bitwise the one over the materialized
/// matrix. `ldc` is C's row length; C must not alias the image.
void sgemm(bool transa, bool transb, long m, const float* A, long lda,
           const ImageColumns& B, float* C, long ldc, float beta,
           Epilogue epilogue, const float* bias, Scheduler* sched = nullptr);

/// C += op(A)·op(B): the historical accumulate-only entry point
/// (beta = 1, no epilogue).
void sgemm(bool transa, bool transb, long m, long n, long k, const float* A,
           long lda, const float* B, long ldb, float* C, long ldc,
           Scheduler* sched = nullptr);

}  // namespace goldfish::runtime

#include "runtime/gemm.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#include "runtime/scheduler.h"

namespace goldfish::runtime {

namespace {

// Microkernel tile, sized so the accumulator block fills most of the
// vector register file of the widest ISA the compiler targets: 8×32 under
// AVX-512 (16 of 32 zmm accumulators), 6×16 under AVX/AVX2 (12 of 16 ymm),
// 4×8 for plain SSE (8 of 16 xmm).
#if defined(__AVX512F__)
constexpr long MR = 8, NR = 32;
#elif defined(__AVX2__) || defined(__AVX__)
constexpr long MR = 6, NR = 16;
#else
constexpr long MR = 4, NR = 8;
#endif
constexpr long KC = 256;       // inner-dimension slice (packed panels in L1/L2)
constexpr long MC = MR * 16;   // row panel height per parallel task
constexpr long NC = NR * 64;   // column panel width (packed B slice in L2/L3)

// The fixed block the image packer copies kernel-row runs in; every B
// panel buffer carries this much slack for a block's spill past its run.
constexpr long kBlock = 8;
inline long round_up(long n) { return (n + kBlock - 1) / kBlock * kBlock; }

// Below this flop count the packing and scheduling overhead dominates;
// run the packed loop serially on the calling thread.
constexpr long kParallelFlops = 1L << 18;

/// Monotonically growing per-thread packing scratch. GEMM used to heap-
/// allocate its pack buffers on every call; steady-state training reuses the
/// same shapes over and over, so after warm-up ensure() never allocates.
///
/// Safety of thread_local here: the thread that opens a parallel region only
/// ever executes chunks of its *own* region while waiting (Scheduler::
/// run_chunks), and GEMM's chunk bodies never open nested regions or call
/// back into sgemm, so a live buffer can never be clobbered by re-entry on
/// the same thread. Worker threads reading the caller's B panel do so
/// through the captured pointer, not their own thread_local slot.
class PackBuffer {
 public:
  float* ensure(std::size_t need) {
    if (cap_ < need) {
      data_.reset(new float[need]);  // default-init: no memset on growth
      cap_ = need;
    }
    return data_.get();
  }

 private:
  std::unique_ptr<float[]> data_;
  std::size_t cap_ = 0;
};

thread_local PackBuffer tl_pack_a;
thread_local PackBuffer tl_pack_b;

/// Per-tile writeback mode: how the microkernel's register block lands in C.
/// `overwrite` is set on the first KC slice of a beta=0 product (C's prior
/// contents are not read); the bias/relu fields are set only on the final KC
/// slice, where the epilogue fires.
struct Writeback {
  bool overwrite = false;
  bool relu = false;
  const float* bias_col = nullptr;  // tile-local: indexed by j in [0, nr)
  const float* bias_row = nullptr;  // tile-local: indexed by i in [0, mr)
};

/// Copy a group of n ≤ W contiguous floats. A full group is a fixed-width
/// copy the compiler keeps inline; only edge groups take a variable length.
template <long W>
inline void copy_group(const float* src, long n, float* dst) {
  if (n == W) {
    std::copy_n(src, W, dst);
  } else {
    std::copy_n(src, n, dst);
  }
}

/// Zero lanes [used, W) of each of the kc W-wide groups of a micro-panel.
/// The fixed-width masked loop compiles to a masked vector store per group,
/// not a memset call for a few floats.
template <long W>
inline void zero_lanes(float* dst, long kc, long used) {
  if (used == W) return;
  for (long p = 0; p < kc; ++p)
    for (long l = 0; l < W; ++l)
      if (l >= used) dst[p * W + l] = 0.0f;
}

/// Pack op(A)[i0:i0+mc, p0:p0+kc] into MR-tall micro-panels: panel ir holds
/// kc groups of MR consecutive row elements, zero-padded past mc. A
/// transposed A is copied in contiguous runs of mr floats; a plain A is
/// gathered one group at a time, which beats walking its rows for the
/// short k slices of small layers.
void pack_a(const float* A, long lda, bool trans, long i0, long mc, long p0,
            long kc, float* dst) {
  for (long ir = 0; ir < mc; ir += MR, dst += kc * MR) {
    const long mr = std::min(MR, mc - ir);
    if (trans) {  // op(A) column p is stored row p: mr contiguous floats
      const float* src = A + p0 * lda + i0 + ir;
      for (long p = 0; p < kc; ++p, src += lda)
        copy_group<MR>(src, mr, dst + p * MR);
    } else {  // op(A) row i is stored row i: one float of each row per k
      const float* src = A + (i0 + ir) * lda + p0;
      if (mr == MR) {  // a constant row count the compiler unrolls
        for (long p = 0; p < kc; ++p)
          for (long i = 0; i < MR; ++i) dst[p * MR + i] = src[i * lda + p];
      } else {
        for (long p = 0; p < kc; ++p)
          for (long i = 0; i < mr; ++i) dst[p * MR + i] = src[i * lda + p];
      }
    }
    zero_lanes<MR>(dst, kc, mr);
  }
}

// B packers: pack(p0, kc, j0, nr, dst) writes op(B)[p0:p0+kc, j0:j0+nr]
// (nr ≤ NR) as one NR-wide micro-panel, kc groups of NR consecutive column
// elements zero-padded past nr. Both are pure copies, so they are
// interchangeable in the driver without changing a single product.

/// op(B) from a stored row-major matrix, walked along its contiguous runs.
struct StridedB {
  const float* B;
  long ldb;
  bool trans;  // B is stored n×k

  void operator()(long p0, long kc, long j0, long nr, float* dst) const {
    if (trans) {  // op(B) column j is stored row j: kc contiguous floats
      for (long j = 0; j < nr; ++j) {
        const float* src = B + (j0 + j) * ldb + p0;
        for (long p = 0; p < kc; ++p) dst[p * NR + j] = src[p];
      }
    } else {  // op(B) row p is stored row p: nr contiguous floats
      const float* src = B + p0 * ldb + j0;
      for (long p = 0; p < kc; ++p, src += ldb)
        copy_group<NR>(src, nr, dst + p * NR);
    }
    zero_lanes<NR>(dst, kc, nr);
  }
};

/// op(B) gathered from an ImageColumns: its column matrix (trans false, the
/// conv forward) or the transpose (trans true, the conv weight gradient).
/// Each cuts a micro-panel into runs that read one image row: a tap over
/// consecutive pixels of one output row for the column matrix, consecutive
/// taps kw of one kernel row for the transpose. Each run is a copy (a
/// strided gather when stride > 1) bounded by the per-tap valid ranges, not
/// by per-element tests.
class ImageB {
 public:
  /// `taps` holds 2·kernel entries the packer fills: the x ranges of taps
  /// kw = 0…K−1, then the y ranges of kh = 0…K−1.
  ImageB(const ImageColumns& img, bool trans, TapRange* taps)
      : img_(img),
        trans_(trans),
        oh_(img.out_h()),
        ow_(img.out_w()),
        xs_(taps),
        ys_(taps + img.kernel) {
    for (long t = 0; t < img.kernel; ++t) {
      xs_[t] = tap_range(t, img.stride, img.pad, img.width, ow_);
      ys_[t] = tap_range(t, img.stride, img.pad, img.height, oh_);
    }
  }

  void operator()(long p0, long kc, long j0, long nr, float* dst) const {
    if (trans_) {
      pack_transposed(p0, kc, j0, nr, dst);
    } else {
      pack_columns(p0, kc, j0, nr, dst);
    }
    zero_lanes<NR>(dst, kc, nr);
  }

 private:
  /// A tap of the column matrix's row index: (channel, kh, kw).
  struct Tap {
    long c, kh, kw;
    void next(long K) {
      if (++kw == K) {
        kw = 0;
        if (++kh == K) kh = 0, ++c;
      }
    }
  };
  /// A position of its column index: output pixel (n, y, x).
  struct Pixel {
    long n, y, x;
  };

  Tap tap_at(long row) const {
    const long K = img_.kernel;
    return {row / (K * K), row / K % K, row % K};
  }
  Pixel pixel_at(long col) const {
    return {col / (oh_ * ow_), col / ow_ % oh_, col % ow_};
  }

  /// Rows p = taps, columns j = pixels: for each tap, one run per output
  /// row the panel's columns cross, along the panel row. A run copies the
  /// part of its image row the tap's valid ranges allow and zero-fills
  /// the rest.
  void pack_columns(long p0, long kc, long j0, long nr, float* dst) const {
    const long H = img_.height, W = img_.width, s = img_.stride;
    struct Run {
      long corner;     // image index of tap (0, 0, 0) at the run's first pixel
      long y, x, len;  // output row, first column, columns
      long at;         // the first column's offset in the panel
    };
    Run runs[NR];
    long num = 0;
    Pixel px = pixel_at(j0);
    for (long at = 0; at < nr; ++num) {
      const long len = std::min(ow_ - px.x, nr - at);
      runs[num] = {(px.n * img_.channels * H + px.y * s - img_.pad) * W +
                       px.x * s - img_.pad,
                   px.y, px.x, len, at};
      at += len;
      px.x = 0;
      if (++px.y == oh_) px.y = 0, ++px.n;
    }
    const auto bytes = [](long floats) {
      return static_cast<std::size_t>(floats) * sizeof(float);
    };
    Tap tap = tap_at(p0);
    for (long p = 0; p < kc; ++p, dst += NR, tap.next(img_.kernel)) {
      const TapRange ys = ys_[tap.kh], xs = xs_[tap.kw];
      const long tap_off = (tap.c * H + tap.kh) * W + tap.kw;
      for (long r = 0; r < num; ++r) {
        const Run& run = runs[r];
        float* d = dst + run.at;
        long lo = 0, hi = 0;  // the run's columns that land inside
        if (run.y >= ys.lo && run.y < ys.hi) {
          lo = std::clamp(xs.lo - run.x, 0L, run.len);
          hi = std::clamp(xs.hi - run.x, lo, run.len);
        }
        if (lo > 0) std::memset(d, 0, bytes(lo));
        if (lo < hi) {
          const float* src = img_.data + run.corner + tap_off + lo * s;
          if (s == 1) {
            std::memcpy(d + lo, src, bytes(hi - lo));
          } else {
            for (long t = lo; t < hi; ++t) d[t] = src[(t - lo) * s];
          }
        }
        if (hi < run.len) std::memset(d + hi, 0, bytes(run.len - hi));
      }
    }
  }

  /// Rows p = pixels, columns j = taps, cut into kernel-row runs: the taps
  /// kw of one (c, kh) read consecutive image floats. A pixel whose whole
  /// window lies inside the image (every pixel when pad = 0) copies each
  /// run in fixed blocks of kBlock floats. A block may spill past its run
  /// into floats that a later run, the next panel row or the buffer's
  /// slack takes, and may read past the run, never past the image. A
  /// border pixel reads only the taps that land inside and zeroes the rest.
  void pack_transposed(long p0, long kc, long j0, long nr, float* dst) const {
    const long H = img_.height, W = img_.width, K = img_.kernel;
    const long sample_size = img_.channels * H * W;
    struct Run {
      long off, kh, kw, len, at;  // corner offset, first tap, taps, column
    };
    Run runs[NR];
    long num = 0;
    // The floats past a window's corner its block copies read; a window
    // whose blocks would reach past the image copies exactly.
    long reach = 0;
    Tap tap = tap_at(j0);
    for (long j = 0; j < nr; ++j, tap.next(K)) {
      if (j > 0 && tap.kw > 0) continue;
      const Run run{(tap.c * H + tap.kh) * W + tap.kw, tap.kh, tap.kw,
                    std::min(K - tap.kw, nr - j), j};
      reach = std::max(reach, run.off + round_up(run.len));
      runs[num++] = run;
    }
    const long image_size = img_.batch * sample_size;
    // Inside pixels lie in every tap's valid range: the first tap's lower
    // bound and the last tap's upper bound are the binding ones.
    const TapRange in_y{ys_[0].lo, ys_[K - 1].hi};
    const TapRange in_x{xs_[0].lo, xs_[K - 1].hi};
    Pixel px = pixel_at(p0);
    for (long p = 0; p < kc; ++p, dst += NR) {
      const long iy = px.y * img_.stride - img_.pad;  // window corner
      const long ix = px.x * img_.stride - img_.pad;
      // An image index: may lie outside the sample for a border pixel.
      const long corner = px.n * sample_size + iy * W + ix;
      const bool inside = px.y >= in_y.lo && px.y < in_y.hi &&
                          px.x >= in_x.lo && px.x < in_x.hi;
      if (inside && corner + reach <= image_size) {
        for (long r = 0; r < num; ++r)
          for (long t = 0; t < runs[r].len; t += kBlock)
            std::memcpy(dst + runs[r].at + t,
                        img_.data + corner + runs[r].off + t,
                        kBlock * sizeof(float));
      } else {
        for (long r = 0; r < num; ++r) {
          const Run& run = runs[r];
          long lo = 0, hi = run.len;  // the run's taps that land inside
          if (!inside) {
            const long ty = iy + run.kh, tx = ix + run.kw;
            lo = std::clamp(-tx, 0L, run.len);
            hi = ty >= 0 && ty < H ? std::clamp(W - tx, lo, run.len) : lo;
          }
          const long first = corner + run.off;  // read only where inside
          float* d = dst + run.at;
          for (long t = 0; t < run.len; ++t)
            d[t] = t >= lo && t < hi ? img_.data[first + t] : 0.0f;
        }
      }
      if (++px.x == ow_) {
        px.x = 0;
        if (++px.y == oh_) px.y = 0, ++px.n;
      }
    }
  }

  ImageColumns img_;
  bool trans_;
  long oh_, ow_;
  TapRange* xs_;
  TapRange* ys_;
};

// Register-tiled microkernel: acc(MR×NR) = Σ_p Ap[p]·Bp[p] over one packed
// panel pair, then land the valid mr×nr region in C per the Writeback mode
// (overwrite vs accumulate, optional fused bias broadcast and ReLU — all
// applied while the tile is still in registers, so the epilogue costs no
// extra pass over C). Written with GCC/Clang vector extensions because the
// auto-vectorizer reliably fails to promote a scalar float acc[MR][NR] into
// full-width registers (it picked 128-bit lanes and spilled); an explicit
// vector accumulator block pins both the width and the register residency.
#if defined(__AVX__) || defined(__AVX512F__)

#include <immintrin.h>

#if defined(__AVX512F__)
typedef float vecf __attribute__((vector_size(64), aligned(4)));
#else
typedef float vecf __attribute__((vector_size(32), aligned(4)));
#endif
constexpr long VL = static_cast<long>(sizeof(vecf) / sizeof(float));
static_assert(NR == 2 * VL, "microkernel assumes two vectors per row");

// Lanes [0, n) of one vector (n clamped to [0, VL]), and loads and stores
// that touch only those lanes: masked-off lanes read as 0 and never fault.
#if defined(__AVX512F__)
using LaneMask = __mmask16;
inline LaneMask lanes_below(long n) {
  return static_cast<LaneMask>((1u << std::clamp(n, 0L, VL)) - 1u);
}
inline vecf load_lanes(const float* p, LaneMask m) {
  return _mm512_maskz_loadu_ps(m, p);
}
inline void store_lanes(float* p, LaneMask m, vecf v) {
  _mm512_mask_storeu_ps(p, m, v);
}
#else
using LaneMask = __m256i;
inline LaneMask lanes_below(long n) {
  const __m256 lane = _mm256_setr_ps(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_castps_si256(
      _mm256_cmp_ps(lane, _mm256_set1_ps(float(n)), _CMP_LT_OQ));
}
inline vecf load_lanes(const float* p, LaneMask m) {
  return _mm256_maskload_ps(p, m);
}
inline void store_lanes(float* p, LaneMask m, vecf v) {
  _mm256_maskstore_ps(p, m, v);
}
#endif

void micro_kernel(long kc, const float* Ap, const float* Bp, float* C,
                  long ldc, long mr, long nr, const Writeback& wb) {
  vecf acc0[MR] = {};
  vecf acc1[MR] = {};
  for (long p = 0; p < kc; ++p) {
    const vecf b0 = *reinterpret_cast<const vecf*>(Bp + p * NR);
    const vecf b1 = *reinterpret_cast<const vecf*>(Bp + p * NR + VL);
    const float* a = Ap + p * MR;
    for (long i = 0; i < MR; ++i) {  // constant bound → fully unrolled
      acc0[i] += a[i] * b0;          // scalar a[i] splats across the lanes
      acc1[i] += a[i] * b1;
    }
  }
  // One vector writeback for every tile, instantiated twice: full-width
  // rows (the mr < MR rows of a last row panel included: conv layers with
  // fewer output channels than MR land here on every tile) load and store
  // whole vectors; a partial-width tile (nr < NR) loads and stores only its
  // nr valid lanes of C and of the column bias (masked lanes load as 0 and
  // are never stored). Every landed value takes the same adds and ReLU, so
  // it is bitwise the one a scalar loop gives. The constant row bound keeps
  // the unrolled accumulators in registers.
  const auto land = [&](auto load, auto store) {
    const vecf vzero = {};
    vecf bc0 = {}, bc1 = {};
    if (wb.bias_col) {
      bc0 = load(wb.bias_col, 0);
      bc1 = load(wb.bias_col + VL, 1);
    }
    for (long i = 0; i < MR; ++i) {
      if (i == mr) break;
      float* c = C + i * ldc;
      vecf r0 = acc0[i];
      vecf r1 = acc1[i];
      if (!wb.overwrite) {
        r0 += load(c, 0);
        r1 += load(c + VL, 1);
      }
      if (wb.bias_col) {
        r0 += bc0;
        r1 += bc1;
      }
      if (wb.bias_row) {
        r0 += wb.bias_row[i];
        r1 += wb.bias_row[i];
      }
      if (wb.relu) {
        r0 = r0 > vzero ? r0 : vzero;
        r1 = r1 > vzero ? r1 : vzero;
      }
      store(c, 0, r0);
      store(c + VL, 1, r1);
    }
  };
  if (nr == NR) {
    land([](const float* p, int) { return *reinterpret_cast<const vecf*>(p); },
         [](float* p, int, vecf v) { *reinterpret_cast<vecf*>(p) = v; });
  } else {
    const LaneMask mask[2] = {lanes_below(nr), lanes_below(nr - VL)};
    land([&](const float* p, int h) { return load_lanes(p, mask[h]); },
         [&](float* p, int h, vecf v) { store_lanes(p, mask[h], v); });
  }
}

#else  // scalar fallback (no AVX): small tile, plain float accumulators

void micro_kernel(long kc, const float* Ap, const float* Bp, float* C,
                  long ldc, long mr, long nr, const Writeback& wb) {
  float acc[MR][NR] = {};
  for (long p = 0; p < kc; ++p) {
    const float* b = Bp + p * NR;
    const float* a = Ap + p * MR;
    for (long i = 0; i < MR; ++i) {
      const float ai = a[i];
      for (long j = 0; j < NR; ++j) acc[i][j] += ai * b[j];
    }
  }
  for (long i = 0; i < mr; ++i) {
    for (long j = 0; j < nr; ++j) {
      float v = acc[i][j];
      if (!wb.overwrite) v += C[i * ldc + j];
      if (wb.bias_col) v += wb.bias_col[j];
      if (wb.bias_row) v += wb.bias_row[i];
      if (wb.relu) v = v > 0.0f ? v : 0.0f;
      C[i * ldc + j] = v;
    }
  }
}

#endif

/// Degenerate k ≤ 0: the product term is empty, but beta and the epilogue
/// still define C. Kept off the hot path; loops are fine.
void epilogue_only(long m, long n, float* C, long ldc, float beta, Epilogue ep,
                   const float* bias) {
  const bool col = ep == Epilogue::kBiasCol || ep == Epilogue::kBiasColRelu;
  const bool row = ep == Epilogue::kBiasRow || ep == Epilogue::kBiasRowRelu;
  const bool relu =
      ep == Epilogue::kBiasColRelu || ep == Epilogue::kBiasRowRelu;
  for (long i = 0; i < m; ++i) {
    for (long j = 0; j < n; ++j) {
      float v = beta == 0.0f ? 0.0f : C[i * ldc + j];
      if (col) v += bias[j];
      if (row) v += bias[i];
      if (relu) v = v > 0.0f ? v : 0.0f;
      C[i * ldc + j] = v;
    }
  }
}

/// The blocked driver (see gemm.h), generic over where B panels come from.
template <class PackB>
void blocked_sgemm(bool transa, long m, long n, long k, const float* A,
                   long lda, const PackB& pack_b, float* C, long ldc,
                   float beta, Epilogue epilogue, const float* bias,
                   Scheduler* sched) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    epilogue_only(m, n, C, ldc, beta, epilogue, bias);
    return;
  }
  if (sched == nullptr) sched = &Scheduler::global();
  const bool parallel = m * n * k >= kParallelFlops;

  const bool bias_is_col =
      epilogue == Epilogue::kBiasCol || epilogue == Epilogue::kBiasColRelu;
  const bool bias_is_row =
      epilogue == Epilogue::kBiasRow || epilogue == Epilogue::kBiasRowRelu;
  const bool fuse_relu =
      epilogue == Epilogue::kBiasColRelu || epilogue == Epilogue::kBiasRowRelu;

  // One MR×NR tile of the KC slice starting at pc: beta only governs the
  // first slice (later slices accumulate the partial product already in C);
  // the epilogue fires on the last.
  const auto tile = [&](long pc, long kc, const float* ap, const float* bpanel,
                        long i, long j, long mr, long nr) {
    const bool last = pc + kc >= k;
    Writeback wb;
    wb.overwrite = pc == 0 && beta == 0.0f;
    wb.relu = last && fuse_relu;
    if (last && bias_is_col) wb.bias_col = bias + j;
    if (last && bias_is_row) wb.bias_row = bias + i;
    micro_kernel(kc, ap, bpanel, C + i * ldc + j, ldc, mr, nr, wb);
  };

  if (m <= MC) {
    // Short-fat C (conv forward is outC × N·oh·ow, conv dW outC × C·K·K): a
    // single row panel would serialize everything, so pack A once per slice
    // and split the NR-wide column tiles of all of C across the pool. Each
    // tile packs its own B micro-panel into its thread's buffer, so B is
    // never packed in a serial pass and a panel is consumed while it is hot.
    const long num_col_tiles = (n + NR - 1) / NR;
    for (long pc = 0; pc < k; pc += KC) {
      const long kc = std::min(KC, k - pc);
      float* ap = tl_pack_a.ensure(static_cast<std::size_t>(MC * kc));
      pack_a(A, lda, transa, 0, m, pc, kc, ap);
      const auto col_tiles = [&](long lo, long hi) {
        float* bp =
            tl_pack_b.ensure(static_cast<std::size_t>(KC * NR + kBlock));
        for (long t = lo; t < hi; ++t) {
          const long j = t * NR;
          const long nr = std::min(NR, n - j);
          pack_b(pc, kc, j, nr, bp);
          for (long ir = 0; ir < m; ir += MR)
            tile(pc, kc, ap + (ir / MR) * kc * MR, bp, ir, j,
                 std::min(MR, m - ir), nr);
        }
      };
      if (parallel && num_col_tiles > 1) {
        sched->parallel_for(num_col_tiles, col_tiles, /*grain=*/4);
      } else {
        col_tiles(0, num_col_tiles);
      }
    }
    return;
  }

  // Tall C: pack each NC×KC slice of B once, then split row panels across
  // the pool (each task packs its own A panel and reads the shared B panel
  // through the captured pointer). Both branches reduce k in the same fixed
  // order, so the branch choice never affects the result.
  float* bp = tl_pack_b.ensure(static_cast<std::size_t>(
      ((std::min(n, NC) + NR - 1) / NR) * NR * std::min(k, KC) + kBlock));
  const long num_row_panels = (m + MC - 1) / MC;
  for (long jc = 0; jc < n; jc += NC) {
    const long nc = std::min(NC, n - jc);
    for (long pc = 0; pc < k; pc += KC) {
      const long kc = std::min(KC, k - pc);
      for (long jr = 0; jr < nc; jr += NR)
        pack_b(pc, kc, jc + jr, std::min(NR, nc - jr),
               bp + (jr / NR) * kc * NR);
      const auto row_panel = [&](long lo, long hi) {
        float* ap = tl_pack_a.ensure(static_cast<std::size_t>(MC * kc));
        for (long panel = lo; panel < hi; ++panel) {
          const long ic = panel * MC;
          const long mc = std::min(MC, m - ic);
          pack_a(A, lda, transa, ic, mc, pc, kc, ap);
          for (long jr = 0; jr < nc; jr += NR)
            for (long ir = 0; ir < mc; ir += MR)
              tile(pc, kc, ap + (ir / MR) * kc * MR, bp + (jr / NR) * kc * NR,
                   ic + ir, jc + jr, std::min(MR, mc - ir),
                   std::min(NR, nc - jr));
        }
      };
      if (parallel) {
        sched->parallel_for(num_row_panels, row_panel, /*grain=*/1);
      } else {
        row_panel(0, num_row_panels);
      }
    }
  }
}

/// The 2·kernel tap ranges of an image product, on the calling thread; the
/// workers of its parallel regions read them through the packer's pointer.
thread_local std::vector<TapRange> tl_taps;

}  // namespace

void sgemm(bool transa, bool transb, long m, long n, long k, const float* A,
           long lda, const float* B, long ldb, float* C, long ldc, float beta,
           Epilogue epilogue, const float* bias, Scheduler* sched) {
  blocked_sgemm(transa, m, n, k, A, lda, StridedB{B, ldb, transb}, C, ldc,
                beta, epilogue, bias, sched);
}

void sgemm(bool transa, bool transb, long m, const float* A, long lda,
           const ImageColumns& B, float* C, long ldc, float beta,
           Epilogue epilogue, const float* bias, Scheduler* sched) {
  tl_taps.resize(static_cast<std::size_t>(2 * B.kernel));
  const ImageB pack_b(B, transb, tl_taps.data());
  const long n = transb ? B.rows() : B.cols();
  const long k = transb ? B.cols() : B.rows();
  blocked_sgemm(transa, m, n, k, A, lda, pack_b, C, ldc, beta, epilogue, bias,
                sched);
}

void sgemm(bool transa, bool transb, long m, long n, long k, const float* A,
           long lda, const float* B, long ldb, float* C, long ldc,
           Scheduler* sched) {
  sgemm(transa, transb, m, n, k, A, lda, B, ldb, C, ldc, /*beta=*/1.0f,
        Epilogue::kNone, /*bias=*/nullptr, sched);
}

}  // namespace goldfish::runtime

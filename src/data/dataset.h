// In-memory labeled dataset and batching utilities.
#pragma once

#include <algorithm>
#include <vector>

#include "nn/models.h"
#include "tensor/check.h"
#include "tensor/tensor.h"

namespace goldfish::data {

/// Flat-feature labeled dataset. Features are (N, D) with D = C·H·W; the
/// geometry is carried along so conv models can unflatten.
struct Dataset {
  Tensor features;           // (N, D)
  std::vector<long> labels;  // N entries in [0, num_classes)
  long num_classes = 0;
  nn::InputGeom geom;

  long size() const { return features.empty() ? 0 : features.dim(0); }
  bool empty() const { return size() == 0; }

  /// Row-subset copy (order follows `indices`).
  Dataset subset(const std::vector<std::size_t>& indices) const;

  /// Concatenation (schemas must match).
  static Dataset concat(const Dataset& a, const Dataset& b);

  /// Extract a feature batch + labels for the given rows.
  std::pair<Tensor, std::vector<long>> batch(
      const std::vector<std::size_t>& indices) const;

  /// batch() into caller-owned storage: `x`/`y` are resized in place, so a
  /// training loop that reuses them across steps stops allocating once the
  /// batch shape has been seen.
  void batch_into(const std::size_t* indices, std::size_t count, Tensor& x,
                  std::vector<long>& y) const;

  /// Contiguous-range batch [lo, hi): one straight copy of the feature rows
  /// (no index vector, no per-row gather) plus a pointer into the label
  /// array. The sequential-evaluation fast path.
  std::pair<Tensor, const long*> batch_view(long lo, long hi) const;

  /// The one in-order walk over the rows: fn(x, labels, rows) for each
  /// contiguous range of at most `chunk` rows. A chunk covering the whole
  /// set passes `features` itself (zero-copy); smaller chunks are
  /// batch_view slices.
  template <typename Fn>
  void for_each_chunk(long chunk, Fn&& fn) const {
    GOLDFISH_CHECK(chunk > 0, "row walk needs a positive chunk");
    const long n = size();
    if (chunk >= n) {
      fn(features, labels.data(), n);
      return;
    }
    for (long lo = 0; lo < n; lo += chunk) {
      const long hi = std::min(n, lo + chunk);
      const auto [x, y] = batch_view(lo, hi);
      fn(x, y, hi - lo);
    }
  }

  /// Per-class sample counts (histogram of labels).
  std::vector<long> class_histogram() const;
};

/// Iterate a dataset in shuffled mini-batches of size `batch_size`
/// (final partial batch included).
class BatchIterator {
 public:
  BatchIterator(const Dataset& ds, long batch_size, Rng& rng);

  /// Number of batches in one epoch.
  std::size_t num_batches() const;

  /// Index list of batch b (0-based).
  std::vector<std::size_t> batch_indices(std::size_t b) const;

  /// Zero-copy view of batch b's indices (a contiguous range of the epoch
  /// permutation); valid while the iterator lives.
  std::pair<const std::size_t*, std::size_t> batch_span(std::size_t b) const;

 private:
  const Dataset* ds_;
  long batch_size_;
  std::vector<std::size_t> order_;
};

}  // namespace goldfish::data

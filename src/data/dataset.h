// In-memory labeled dataset and batching utilities.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "nn/models.h"
#include "tensor/check.h"
#include "tensor/tensor.h"

namespace goldfish::data {

/// A dataset's feature rows: a copy-on-write handle to one (N, D) tensor.
/// Copying the handle copies a pointer, so copies share one block. Reads —
/// the const accessors, `at`, `[]` and the implicit `const Tensor&` — never
/// copy. A write through the non-const `data()` or `writable()` first
/// detaches a private copy of the block when another handle shares it.
class SharedRows {
 public:
  SharedRows() = default;
  /// Adopt `t` as the rows (implicit, so `ds.features = Tensor(...)` reads
  /// as plain assignment).
  SharedRows(Tensor t) : t_(std::make_shared<Tensor>(std::move(t))) {}

  operator const Tensor&() const { return tensor(); }
  /// The rows for writing, owned by this handle alone: detaches (copies the
  /// block) first if another handle shares it.
  Tensor& writable();
  /// writable() for a write that replaces every row: a shared block is
  /// left to its other handles, not copied, and this handle starts from an
  /// empty tensor. An unshared block is returned as is, for reuse in place.
  Tensor& overwritable();

  const Shape& shape() const { return tensor().shape(); }
  long dim(std::size_t axis) const { return tensor().dim(axis); }
  std::size_t numel() const { return tensor().numel(); }
  bool empty() const { return tensor().empty(); }
  bool same_shape(const Tensor& other) const {
    return tensor().same_shape(other);
  }
  const float* data() const { return tensor().data(); }
  float* data() { return writable().data(); }
  float operator[](std::size_t i) const { return tensor()[i]; }
  float at(long r, long c) const { return tensor().at(r, c); }

 private:
  const Tensor& tensor() const {
    static const Tensor kNoRows;
    return t_ ? *t_ : kNoRows;
  }

  std::shared_ptr<Tensor> t_;
};

/// Flat-feature labeled dataset. Features are (N, D) with D = C·H·W; the
/// geometry is carried along so conv models can unflatten.
///
/// Copies share their rows: copying a Dataset (into an engine, an
/// unlearner, a baseline, a DeletionEvent) copies the labels but not the
/// features. The contract:
///  * A write through a non-const `features` handle detaches it first when
///    the block is shared, so a write never shows through another copy.
///  * Do not hold a pointer or reference from `writable()` or the non-const
///    `data()` across a copy of the dataset: the copy shares the block, and
///    a write through the old reference would show in both.
///  * Mutation is single-threaded. Any number of threads may read or copy
///    their own handles to one block, but a handle is written only by the
///    thread that owns it, and a copy dropped on another thread counts as
///    gone only once that thread's work has been joined.
struct Dataset {
  SharedRows features;       // (N, D)
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

#include "data/dataset.h"

#include <algorithm>

#include "tensor/check.h"

namespace goldfish::data {

Tensor& SharedRows::writable() {
  if (!t_)
    t_ = std::make_shared<Tensor>();
  else if (t_.use_count() > 1)
    t_ = std::make_shared<Tensor>(*t_);
  return *t_;
}

Tensor& SharedRows::overwritable() {
  if (!t_ || t_.use_count() > 1) t_ = std::make_shared<Tensor>();
  return *t_;
}

Dataset Dataset::subset(const std::vector<std::size_t>& indices) const {
  const long d = features.dim(1);
  Dataset out;
  out.num_classes = num_classes;
  out.geom = geom;
  out.features = Tensor({static_cast<long>(indices.size()), d});
  out.labels.reserve(indices.size());
  float* dst = out.features.data();
  for (std::size_t r = 0; r < indices.size(); ++r) {
    const std::size_t src = indices[r];
    GOLDFISH_CHECK(src < static_cast<std::size_t>(size()),
                   "subset index out of range");
    const float* src_row = features.data() + src * static_cast<std::size_t>(d);
    float* dst_row = dst + r * static_cast<std::size_t>(d);
    std::copy(src_row, src_row + d, dst_row);
    out.labels.push_back(labels[src]);
  }
  return out;
}

Dataset Dataset::concat(const Dataset& a, const Dataset& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  GOLDFISH_CHECK(a.num_classes == b.num_classes &&
                     a.features.dim(1) == b.features.dim(1),
                 "concat schema mismatch");
  Dataset out;
  out.num_classes = a.num_classes;
  out.geom = a.geom;
  const long d = a.features.dim(1);
  out.features = Tensor({a.size() + b.size(), d});
  float* dst = out.features.data();
  std::copy(a.features.data(), a.features.data() + a.features.numel(), dst);
  std::copy(b.features.data(), b.features.data() + b.features.numel(),
            dst + a.features.numel());
  out.labels = a.labels;
  out.labels.insert(out.labels.end(), b.labels.begin(), b.labels.end());
  return out;
}

void Dataset::batch_into(const std::size_t* indices, std::size_t count,
                         Tensor& x, std::vector<long>& y) const {
  const long d = features.dim(1);
  x.resize_uninit({static_cast<long>(count), d});
  y.resize(count);
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t src = indices[r];
    GOLDFISH_CHECK(src < static_cast<std::size_t>(size()),
                   "batch index out of range");
    const float* src_row = features.data() + src * static_cast<std::size_t>(d);
    std::copy(src_row, src_row + d,
              x.data() + r * static_cast<std::size_t>(d));
    y[r] = labels[src];
  }
}

std::pair<Tensor, std::vector<long>> Dataset::batch(
    const std::vector<std::size_t>& indices) const {
  Tensor x;
  std::vector<long> y;
  batch_into(indices.data(), indices.size(), x, y);
  return {std::move(x), std::move(y)};
}

std::pair<Tensor, const long*> Dataset::batch_view(long lo, long hi) const {
  GOLDFISH_CHECK(0 <= lo && lo < hi && hi <= size(),
                 "batch_view range out of bounds");
  const long d = features.dim(1);
  Tensor x = Tensor::uninit({hi - lo, d});
  const float* src = features.data() + static_cast<std::size_t>(lo) *
                                           static_cast<std::size_t>(d);
  std::copy(src, src + static_cast<std::size_t>(hi - lo) *
                           static_cast<std::size_t>(d),
            x.data());
  return {std::move(x), labels.data() + lo};
}

std::vector<long> Dataset::class_histogram() const {
  std::vector<long> hist(static_cast<std::size_t>(num_classes), 0);
  for (long y : labels) {
    GOLDFISH_CHECK(y >= 0 && y < num_classes, "label out of range");
    ++hist[static_cast<std::size_t>(y)];
  }
  return hist;
}

BatchIterator::BatchIterator(const Dataset& ds, long batch_size, Rng& rng)
    : ds_(&ds), batch_size_(batch_size) {
  GOLDFISH_CHECK(batch_size > 0, "batch size must be positive");
  order_ = random_permutation(static_cast<std::size_t>(ds.size()), rng);
}

std::size_t BatchIterator::num_batches() const {
  const std::size_t n = order_.size();
  return (n + static_cast<std::size_t>(batch_size_) - 1) /
         static_cast<std::size_t>(batch_size_);
}

std::vector<std::size_t> BatchIterator::batch_indices(std::size_t b) const {
  const auto [ptr, count] = batch_span(b);
  return std::vector<std::size_t>(ptr, ptr + count);
}

std::pair<const std::size_t*, std::size_t> BatchIterator::batch_span(
    std::size_t b) const {
  GOLDFISH_CHECK(b < num_batches(), "batch index out of range");
  const std::size_t lo = b * static_cast<std::size_t>(batch_size_);
  const std::size_t hi =
      std::min(order_.size(), lo + static_cast<std::size_t>(batch_size_));
  return {order_.data() + lo, hi - lo};
}

}  // namespace goldfish::data

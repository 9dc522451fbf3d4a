#include "nn/model.h"

namespace goldfish::nn {

Model::Model(std::string arch_name, std::unique_ptr<Layer> root,
             long num_classes)
    : arch_name_(std::move(arch_name)),
      root_(std::move(root)),
      num_classes_(num_classes) {
  GOLDFISH_CHECK(root_ != nullptr, "model requires a root layer");
  GOLDFISH_CHECK(num_classes_ > 0, "model requires a class count");
}

Model::Model(const Model& other)
    : arch_name_(other.arch_name_),
      root_(other.root_ ? other.root_->clone() : nullptr),
      num_classes_(other.num_classes_) {}

Model& Model::operator=(const Model& other) {
  if (this == &other) return *this;
  arch_name_ = other.arch_name_;
  root_ = other.root_ ? other.root_->clone() : nullptr;
  num_classes_ = other.num_classes_;
  return *this;
}

void Model::zero_grad() {
  for (ParamRef p : root_->params())
    if (p.grad != nullptr) p.grad->zero();
}

std::size_t Model::num_scalars() const {
  std::size_t n = 0;
  for (const ConstParamRef& p : params()) n += p.value->numel();
  return n;
}

std::vector<Tensor> Model::snapshot() const {
  std::vector<Tensor> out;
  for (const ConstParamRef& p : params()) out.push_back(*p.value);
  return out;
}

void Model::load(const std::vector<Tensor>& values) {
  auto ps = root_->params();
  GOLDFISH_CHECK(ps.size() == values.size(),
                 "snapshot size mismatch in Model::load");
  for (std::size_t i = 0; i < ps.size(); ++i) {
    GOLDFISH_CHECK(ps[i].value->same_shape(values[i]),
                   "snapshot shape mismatch at " + ps[i].name);
    *ps[i].value = values[i];
  }
}

GOLDFISH_HOT void axpy(std::vector<Tensor>& result,
                       const std::vector<Tensor>& delta, float scale) {
  GOLDFISH_CHECK(result.size() == delta.size(), "axpy snapshot size");
  for (std::size_t i = 0; i < result.size(); ++i)
    result[i].add_scaled(delta[i], scale);
}

void normalize_weights(std::vector<float>& weights) {
  float total = 0.0f;
  for (float w : weights) {
    GOLDFISH_CHECK(w >= 0.0f, "negative aggregation weight");
    total += w;
  }
  GOLDFISH_CHECK(total > 0.0f, "aggregation weights sum to zero");
  for (float& w : weights) w /= total;
}

GOLDFISH_HOT std::vector<Tensor> weighted_fold(
    const std::vector<const std::vector<Tensor>*>& snaps,
    const std::vector<float>& coeffs) {
  GOLDFISH_CHECK(!snaps.empty(), "no snapshots to average");
  GOLDFISH_CHECK(snaps.size() == coeffs.size(), "weights size mismatch");
  // First snapshot written in place (out[i] = c0·a0[i] — the same FP ops as
  // the historical copy-then-scale, so results are bit-identical), the rest
  // accumulated with axpy. No input snapshot is ever copied.
  const std::vector<Tensor>& first = *snaps[0];
  const float c0 = coeffs[0];
  std::vector<Tensor> out;
  // goldfish-lint: allow(ALLOC002) output header vector sized once per
  // aggregate; the element FloatBuffers come from the round's buffer pool
  out.reserve(first.size());
  for (const Tensor& t : first) {
    Tensor acc = Tensor::uninit(t.shape());
    const float* src = t.data();
    float* dst = acc.data();
    for (std::size_t i = 0; i < t.numel(); ++i) dst[i] = src[i] * c0;
    // goldfish-lint: allow(ALLOC002) within the capacity reserved above
    out.push_back(std::move(acc));
  }
  for (std::size_t s = 1; s < snaps.size(); ++s) {
    GOLDFISH_CHECK(snaps[s]->size() == out.size(),
                   "snapshot layout mismatch");
    axpy(out, *snaps[s], coeffs[s]);
  }
  return out;
}

GOLDFISH_HOT std::vector<Tensor> weighted_average(
    const std::vector<const std::vector<Tensor>*>& snaps,
    std::vector<float> weights) {
  normalize_weights(weights);
  return weighted_fold(snaps, weights);
}

std::vector<Tensor> weighted_average(
    const std::vector<std::vector<Tensor>>& snaps,
    std::vector<float> weights) {
  std::vector<const std::vector<Tensor>*> views;
  views.reserve(snaps.size());
  for (const std::vector<Tensor>& s : snaps) views.push_back(&s);
  return weighted_average(views, std::move(weights));
}

float snapshot_distance_sq(const std::vector<Tensor>& a,
                           const std::vector<Tensor>& b) {
  GOLDFISH_CHECK(a.size() == b.size(), "snapshot layout mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    GOLDFISH_CHECK(a[i].same_shape(b[i]), "snapshot shape mismatch");
    for (std::size_t j = 0; j < a[i].numel(); ++j) {
      const double d = double(a[i][j]) - double(b[i][j]);
      acc += d * d;
    }
  }
  return static_cast<float>(acc);
}

}  // namespace goldfish::nn

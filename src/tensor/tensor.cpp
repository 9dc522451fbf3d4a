#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace goldfish {

std::size_t Tensor::shape_numel(const Shape& shape) {
  std::size_t n = 1;
  bool zero = false, overflow = false;
  for (long d : shape) {
    GOLDFISH_CHECK(d >= 0, "negative dimension");
    zero |= d == 0;
    overflow |= __builtin_mul_overflow(n, static_cast<std::size_t>(d), &n);
  }
  if (zero) return 0;
  GOLDFISH_CHECK(!overflow, "tensor element count overflows size_t");
  return n;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, FloatBuffer data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  GOLDFISH_CHECK(data_.size() == shape_numel(shape_),
                 "data size does not match shape");
}

Tensor Tensor::uninit(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  // resize without a fill value default-initializes the floats (see
  // DefaultInitAllocator) — allocation only, no memset.
  t.data_.resize(shape_numel(t.shape_));
  return t;
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (float& x : t.data_) x = rng.normal(mean, stddev);
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& x : t.data_) x = rng.uniform(lo, hi);
  return t;
}

Tensor Tensor::from(std::initializer_list<float> values) {
  return Tensor({static_cast<long>(values.size())},
                FloatBuffer(values.begin(), values.end()));
}

Tensor Tensor::from2d(
    std::initializer_list<std::initializer_list<float>> rows) {
  const long r = static_cast<long>(rows.size());
  GOLDFISH_CHECK(r > 0, "from2d needs at least one row");
  const long c = static_cast<long>(rows.begin()->size());
  FloatBuffer data;
  data.reserve(static_cast<std::size_t>(r * c));
  for (const auto& row : rows) {
    GOLDFISH_CHECK(static_cast<long>(row.size()) == c, "ragged rows");
    data.insert(data.end(), row.begin(), row.end());
  }
  return Tensor({r, c}, std::move(data));
}

void Tensor::resize_uninit(const Shape& shape) {
  // A rank-0 shape holds one element, which an empty Tensor() lacks.
  if (shape_ == shape && !shape.empty()) return;
  const std::size_t n = shape_numel(shape);
  // Dropping the old contents before a growing resize avoids the element
  // copy a plain resize would do on reallocation.
  if (n > data_.capacity()) data_.clear();
  data_.resize(n);
  shape_ = shape;
}

Tensor Tensor::reshaped(Shape new_shape) const {
  GOLDFISH_CHECK(shape_numel(new_shape) == numel(),
                 "reshape changes element count");
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

Tensor& Tensor::operator+=(const Tensor& other) {
  GOLDFISH_CHECK(same_shape(other), "shape mismatch in +=: " + shape_str() +
                                        " vs " + other.shape_str());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  GOLDFISH_CHECK(same_shape(other), "shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float scalar) {
  for (float& x : data_) x *= scalar;
  return *this;
}

Tensor& Tensor::add_scaled(const Tensor& other, float scalar) {
  GOLDFISH_CHECK(same_shape(other), "shape mismatch in add_scaled");
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] += scalar * other.data_[i];
  return *this;
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

float Tensor::sum() const {
  // Accumulate in double: benches sum over 10^6-element activations and a
  // float accumulator drifts enough to flip early-termination comparisons.
  double acc = 0.0;
  for (float x : data_) acc += x;
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  GOLDFISH_CHECK(!data_.empty(), "mean of empty tensor");
  return sum() / static_cast<float>(data_.size());
}

float Tensor::min() const {
  GOLDFISH_CHECK(!data_.empty(), "min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  GOLDFISH_CHECK(!data_.empty(), "max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::squared_norm() const {
  // Eight independent double lanes (squares of floats are exact in double)
  // so the loop vectorizes; they fold in one fixed order, so the sum is
  // deterministic. It rounds differently from a serial double sum, but not
  // enough to move the returned float (pinned by the tensor test
  // SquaredNormMatchesSerialDoubleSum).
  double lane[8] = {};
  const float* d = data_.data();
  const std::size_t n = data_.size();
  const std::size_t body = n - n % 8;
  for (std::size_t i = 0; i < body; i += 8)
    for (std::size_t l = 0; l < 8; ++l)
      lane[l] += static_cast<double>(d[i + l]) * d[i + l];
  for (std::size_t i = body; i < n; ++i)
    lane[i - body] += static_cast<double>(d[i]) * d[i];
  return static_cast<float>(((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                            ((lane[4] + lane[5]) + (lane[6] + lane[7])));
}

Tensor operator+(Tensor lhs, const Tensor& rhs) {
  lhs += rhs;
  return lhs;
}

Tensor operator-(Tensor lhs, const Tensor& rhs) {
  lhs -= rhs;
  return lhs;
}

Tensor operator*(Tensor lhs, float scalar) {
  lhs *= scalar;
  return lhs;
}

Tensor operator*(float scalar, Tensor rhs) {
  rhs *= scalar;
  return rhs;
}

}  // namespace goldfish

// Dense float tensor: the numeric substrate for the whole library.
//
// Design notes:
//  * Row-major contiguous storage with value semantics: a Tensor owns its
//    data, and copying one copies the data. There are no strided views, so
//    no kernel has to reason about aliasing. Where a copy is too large to
//    pay on every hand-off — a dataset's feature rows, which every engine,
//    unlearner and baseline takes by value — data::SharedRows
//    (data/dataset.h) shares one whole Tensor copy-on-write instead.
//  * Shapes are std::vector<long> ("long" is int64 on our platforms); rank is
//    small (≤ 4: N,C,H,W).
//  * All shape violations throw CheckError via GOLDFISH_CHECK.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "tensor/buffer_pool.h"
#include "tensor/check.h"
#include "tensor/rng.h"

namespace goldfish {

using Shape = std::vector<long>;

namespace detail {

/// Allocator whose `construct(p)` default-initializes instead of
/// value-initializing, so `resize` on a float vector allocates without the
/// memset. Tensor::uninit relies on this; everything else passes an explicit
/// fill value and is unaffected.
///
/// Float storage additionally routes through the recycling pool of
/// tensor/buffer_pool.h, so inside a BufferPoolScope freed tensor storage is
/// reused instead of churning the heap (the zero-allocation FL round path).
template <class T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  T* allocate(std::size_t n) {
    if constexpr (std::is_same_v<T, float>)
      return pool_allocate_float(n);
    else
      return std::allocator<T>::allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if constexpr (std::is_same_v<T, float>)
      pool_deallocate_float(p, n);
    else
      std::allocator<T>::deallocate(p, n);
  }
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace detail

/// Tensor storage: a float vector that skips the zero-fill when resized
/// without an explicit value (see DefaultInitAllocator).
using FloatBuffer = std::vector<float, detail::DefaultInitAllocator<float>>;

/// Owning, contiguous, row-major float tensor.
class Tensor {
 public:
  /// Empty (rank-0, zero elements) tensor.
  Tensor() = default;

  /// Zero-initialized tensor with the given shape.
  explicit Tensor(Shape shape);

  /// Tensor with given shape and explicit contents (size must match).
  Tensor(Shape shape, FloatBuffer data);

  // -- factories --------------------------------------------------------

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  /// Allocated but *uninitialized* contents — for outputs about to be fully
  /// overwritten (e.g. a beta=0 GEMM destination). Reading an element before
  /// writing it is undefined behavior.
  static Tensor uninit(Shape shape);
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  /// I.i.d. N(mean, stddev²) entries.
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);
  /// I.i.d. U[lo, hi) entries.
  static Tensor rand_uniform(Shape shape, Rng& rng, float lo, float hi);
  /// 1-D tensor from an initializer list (test convenience).
  static Tensor from(std::initializer_list<float> values);
  /// 2-D tensor from nested initializer lists (test convenience).
  static Tensor from2d(std::initializer_list<std::initializer_list<float>> rows);

  // -- shape -------------------------------------------------------------

  const Shape& shape() const { return shape_; }
  long dim(std::size_t axis) const {
    GOLDFISH_CHECK(axis < shape_.size(), "axis out of range");
    return shape_[axis];
  }
  std::size_t rank() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Element count of `shape`. Throws CheckError on a negative dimension or
  /// when the product overflows size_t (any zero dimension gives 0).
  static std::size_t shape_numel(const Shape& shape);

  /// Reinterpret with a new shape of identical element count.
  Tensor reshaped(Shape new_shape) const;

  /// Reshape in place to `shape`, reallocating only when the element count
  /// grows past the current capacity. Contents are preserved when the shape
  /// is unchanged and undefined otherwise (like Tensor::uninit) — the
  /// buffer-reuse primitive behind zero-allocation steady-state passes.
  void resize_uninit(const Shape& shape);

  /// True if shapes are exactly equal.
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Human-readable shape like "[32, 3, 32, 32]".
  std::string shape_str() const;

  // -- element access ----------------------------------------------------

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  FloatBuffer& vec() { return data_; }
  const FloatBuffer& vec() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D indexed access (row, col). Precondition: rank()==2.
  float& at(long r, long c) {
    return data_[static_cast<std::size_t>(r * shape_[1] + c)];
  }
  float at(long r, long c) const {
    return data_[static_cast<std::size_t>(r * shape_[1] + c)];
  }

  /// 4-D indexed access (n, c, h, w). Precondition: rank()==4.
  float& at4(long n, long c, long h, long w) {
    const long C = shape_[1], H = shape_[2], W = shape_[3];
    return data_[static_cast<std::size_t>(((n * C + c) * H + h) * W + w)];
  }
  float at4(long n, long c, long h, long w) const {
    const long C = shape_[1], H = shape_[2], W = shape_[3];
    return data_[static_cast<std::size_t>(((n * C + c) * H + h) * W + w)];
  }

  // -- in-place arithmetic -----------------------------------------------

  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float scalar);
  /// this += scalar * other  (axpy; the hot path of SGD and aggregation).
  Tensor& add_scaled(const Tensor& other, float scalar);
  void fill(float value);
  void zero() { fill(0.0f); }

  // -- reductions --------------------------------------------------------

  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  /// Squared L2 norm of all elements, summed in double over eight lanes
  /// folded in a fixed order (the SGD clip norm).
  float squared_norm() const;

 private:
  Shape shape_;
  FloatBuffer data_;
};

// -- free-function arithmetic (value-returning) ---------------------------

Tensor operator+(Tensor lhs, const Tensor& rhs);
Tensor operator-(Tensor lhs, const Tensor& rhs);
Tensor operator*(Tensor lhs, float scalar);
Tensor operator*(float scalar, Tensor rhs);

}  // namespace goldfish

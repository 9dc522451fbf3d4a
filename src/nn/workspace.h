// Workspace: the per-model activation arena behind zero-allocation
// forward/backward passes.
//
// Every layer of a model claims a fixed number of slots at attach time
// (Layer::attach_workspace walks the tree once, assigning consecutive keys)
// and writes its outputs, masks and scratch tensors into those slots instead
// of returning freshly allocated tensors. Slot storage is created on first
// use, reused across batches, steps and rounds, and regrown in place when a
// shape changes (a batch-size change mid-run just revalidates and regrows).
//
// Contract (see src/nn/README.md):
//  * acquire(key, shape) with the slot's current shape returns the slot with
//    its contents intact — backward passes rely on this to read caches their
//    forward wrote (ReLU masks, batch-norm x̂).
//  * acquire with a different shape resizes the slot and leaves its contents
//    undefined, exactly like Tensor::uninit; callers must fully overwrite
//    (or explicitly zero, for scatter-add outputs like col2im_sample and
//    max-pool backward).
//  * Slots are owned by the workspace; layers hand out `const Tensor&` views
//    of them from forward/backward. A slot stays valid until the same layer
//    runs the same pass again, which is exactly the lifetime the layer
//    chaining in Sequential/Model needs.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace goldfish::nn {

class Workspace {
 public:
  /// Grow the slot table to at least `count` entries. Called once per
  /// attach, *never* between acquires: references handed out by acquire
  /// must stay stable for a whole forward/backward chain, so the table may
  /// not reallocate mid-pass.
  void ensure(std::size_t count) {
    if (slots_.size() < count) slots_.resize(count);
  }

  /// Storage slot `key`, reshaped to `shape` (see the contract above). The
  /// key must have been claimed at attach time (ensure'd), so the returned
  /// reference is stable across later acquires of other slots.
  Tensor& acquire(std::size_t key, const Shape& shape) {
    GOLDFISH_CHECK(key < slots_.size(), "unclaimed workspace slot");
    Tensor& t = slots_[key];
    t.resize_uninit(shape);
    return t;
  }

  std::size_t size() const { return slots_.size(); }

  /// Slot `key` as last acquired, without reshaping (empty if no pass has
  /// acquired it yet).
  const Tensor& peek(std::size_t key) const {
    GOLDFISH_CHECK(key < slots_.size(), "unclaimed workspace slot");
    return slots_[key];
  }

  /// Drop slot storage (the table itself keeps its size; shapes revalidate
  /// and storage regrows on next acquire).
  void clear() {
    for (Tensor& t : slots_) t = Tensor();
  }

 private:
  std::vector<Tensor> slots_;
};

}  // namespace goldfish::nn

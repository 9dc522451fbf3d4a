// Pool probe: how many blocks of one size a computation takes and keeps,
// read off the buffer pool's free list rather than any layer's internals.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/buffer_pool.h"
#include "tensor/tensor.h"

namespace goldfish {

/// Runs `run` in a fresh BufferPoolScope holding `spare` parked blocks of
/// `floats` floats and returns how many of them it took and still holds
/// when it returns. A block it frees goes back to the free list and is not
/// counted, and neither is a block it takes beyond the `spare`. Needs
/// GOLDFISH_ALLOC_STATS, and no other scope may be open.
template <class F>
std::size_t pooled_blocks_kept(std::size_t floats, F&& run,
                               std::size_t spare = 16) {
  const Shape shape{static_cast<long>(floats)};
  BufferPoolScope scope;
  {
    std::vector<Tensor> blocks;
    for (std::size_t i = 0; i < spare; ++i)
      blocks.push_back(Tensor::uninit(shape));
  }
  run();
  // Take parked blocks until one has to come from the heap.
  std::vector<Tensor> taken;
  for (;;) {
    const std::size_t before = alloc_stats::heap_allocations();
    taken.push_back(Tensor::uninit(shape));
    if (alloc_stats::heap_allocations() != before) break;
  }
  return spare - (taken.size() - 1);
}

}  // namespace goldfish

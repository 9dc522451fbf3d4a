// Recycling pool for Tensor storage (FloatBuffer) plus an allocation
// counter, the substrate of the zero-allocation federated round loop.
//
// While at least one BufferPoolScope is alive, every FloatBuffer that is
// freed parks its storage in a process-wide, size-keyed free list instead of
// returning it to the heap, and every FloatBuffer allocation of a size seen
// before is served from that list. A steady-state workload that allocates
// the same multiset of sizes each iteration (an FL round: batch tensors,
// loss temporaries, optimizer state, snapshot/upload copies) therefore stops
// touching the heap after its first iteration. When the last scope closes
// the parked storage is released.
//
// The pool is deliberately global rather than thread-local: client tasks are
// assigned to scheduler threads dynamically and client uploads are freed on
// the aggregating thread, so buffers must be able to migrate between threads
// to reach a zero-allocation fixed point. Traffic is coarse (whole tensors,
// thousands of events per round, not millions), so one mutex is cheap.
//
// How many blocks a run holds at once depends on how many client tasks the
// OS lets overlap, so a warm-up that happened to run its tasks one at a time
// would leave a later, more concurrent run short. Tasks marked with a
// BufferPoolProvision close that gap: the pool provisions every block such a
// task holds for all the executors that could hold one alongside it.
//
// The counter tracks *heap* allocations only (pool hits are free); it is
// compiled in when GOLDFISH_ALLOC_STATS is defined (CMake option, default
// ON) and is how bench_fl_round and the CI ratchet assert that a steady
// round performs zero heap allocations.
#pragma once

#include <array>
#include <cstddef>

namespace goldfish {

namespace detail {

/// Allocate storage for `n` floats: from the recycling pool when a scope is
/// active and a same-size block is parked, from the heap otherwise.
float* pool_allocate_float(std::size_t n);

/// Release storage for `n` floats: parked in the pool when a scope is
/// active, returned to the heap otherwise.
void pool_deallocate_float(float* p, std::size_t n) noexcept;

}  // namespace detail

/// RAII activation of FloatBuffer recycling; scopes nest (refcounted), and
/// parked storage is released when the last one closes. fl::Engine holds
/// one for its lifetime so rounds recycle across Engine::run calls.
class BufferPoolScope {
 public:
  BufferPoolScope();
  ~BufferPoolScope();
  BufferPoolScope(const BufferPoolScope&) = delete;
  BufferPoolScope& operator=(const BufferPoolScope&) = delete;
};

/// RAII marker for a task that up to `copies` − 1 siblings may run
/// concurrently with (fl::Engine holds one per client task). While it is the
/// innermost marker on its thread, the pool counts the blocks of each size
/// the task holds; whenever a task holds more blocks of a size than any task
/// before it, the pool parks `copies` spare blocks per extra block: one per
/// executor, plus one for a finished task's blocks that outlive it (an
/// upload awaiting aggregation). The first task to need a buffer so
/// provisions it for every executor, and a later run that reaches a deeper
/// concurrency than the warm-up finds its buffers parked instead of going
/// to the heap. Blocks above 2^19 floats (datasets, whole-test-set
/// evaluation workspaces) are not provisioned: a parked copy per executor
/// would cost more resident memory than the allocation it saves.
class BufferPoolProvision {
 public:
  explicit BufferPoolProvision(std::size_t copies);
  ~BufferPoolProvision();
  BufferPoolProvision(const BufferPoolProvision&) = delete;
  BufferPoolProvision& operator=(const BufferPoolProvision&) = delete;

 private:
  friend float* detail::pool_allocate_float(std::size_t n);
  friend void detail::pool_deallocate_float(float* p, std::size_t n) noexcept;

  /// The task's held-block count for size `n`; null when untracked (the
  /// table is full, or `n` is new and `insert` is false).
  long* held(std::size_t n, bool insert);

  struct Held {
    std::size_t size = 0;
    long count = 0;
  };
  std::size_t copies_;
  BufferPoolProvision* prev_;
  std::size_t num_sizes_ = 0;
  std::array<Held, 128> held_{};
};

namespace alloc_stats {

/// True when the library was built with GOLDFISH_ALLOC_STATS.
bool enabled();

/// Number of FloatBuffer allocations that hit the heap (pool misses
/// included, pool hits not) since process start. Always 0 when !enabled().
std::size_t heap_allocations();

}  // namespace alloc_stats

}  // namespace goldfish

#include "tensor/buffer_pool.h"

#include <atomic>
#include <mutex>
#include <new>
#include <unordered_map>
#include <vector>

namespace goldfish {

namespace {

struct Pool {
  std::mutex mu;
  // Size-keyed free lists. Keys are the exact element counts the vector
  // allocator requested, so allocate/deallocate pairs always agree.
  struct Slot {
    std::vector<float*> free;
    // Most blocks of this size any BufferPoolProvision task has held at
    // once; spares were parked for every block up to it.
    long task_peak = 0;
  };
  std::unordered_map<std::size_t, Slot> slots;
  int scopes = 0;  // source of truth, guarded by mu
};

// Leaked on purpose: FloatBuffers with static storage duration may be freed
// after any static Pool would have been destroyed.
Pool& pool() {
  static Pool* p = new Pool;
  return *p;
}

// Fast-path hint mirroring Pool::scopes: lets alloc/free skip the mutex
// entirely when no scope is active (the common case outside fl::Engine).
// A stale read is harmless — a just-opened scope merely misses one recycle;
// a just-closed scope is re-checked under the lock.
std::atomic<int> g_scope_hint{0};

#ifdef GOLDFISH_ALLOC_STATS
std::atomic<std::size_t> g_heap_allocs{0};
#endif

// The innermost BufferPoolProvision alive on this thread, if any.
thread_local BufferPoolProvision* t_task = nullptr;

// Largest block (in floats, 2 MiB) a provisioned task parks copies of:
// room for the per-batch conv workspaces of the default B = 100 MNIST rows
// (lenet5's conv1 output, 6·100·784 = 470,400 floats), which a conv layer
// that keeps no column matrix makes affordable. Above it sit datasets and
// whole-test-set evaluation workspaces, where a parked copy per executor
// costs more resident memory than the allocation it saves.
constexpr std::size_t kMaxProvisionedFloats = std::size_t{1} << 19;

float* heap_allocate(std::size_t n) {
#ifdef GOLDFISH_ALLOC_STATS
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
#endif
  return static_cast<float*>(::operator new(n * sizeof(float)));
}

}  // namespace

namespace detail {

float* pool_allocate_float(std::size_t n) {
  if (g_scope_hint.load(std::memory_order_relaxed) > 0) {
    BufferPoolProvision* task = n <= kMaxProvisionedFloats ? t_task : nullptr;
    long* held = task ? task->held(n, /*insert=*/true) : nullptr;
    if (held) ++*held;
    Pool& p = pool();
    std::lock_guard<std::mutex> lock(p.mu);
    if (p.scopes > 0) {
      Pool::Slot& slot = p.slots[n];
      if (held && *held > slot.task_peak) {
        // This task holds more blocks of size n than any task before it:
        // every sibling that may run alongside it will too, and a finished
        // task's blocks may still be alive (an upload awaiting aggregation)
        // when the next one starts on the same executor. The spares are
        // parked under the lock, so a sibling racing to the same size takes
        // one instead of allocating its own; the block itself comes from the
        // heap, so parked blocks other code will need again stay parked.
        const long extra = *held - slot.task_peak;
        slot.task_peak = *held;
        for (long i = 0; i < extra * static_cast<long>(task->copies_); ++i)
          slot.free.push_back(heap_allocate(n));
      } else if (!slot.free.empty()) {
        float* ptr = slot.free.back();
        slot.free.pop_back();
        return ptr;
      }
    }
  }
  return heap_allocate(n);
}

void pool_deallocate_float(float* ptr, std::size_t n) noexcept {
  if (g_scope_hint.load(std::memory_order_relaxed) > 0) {
    BufferPoolProvision* task = n <= kMaxProvisionedFloats ? t_task : nullptr;
    if (long* held = task ? task->held(n, /*insert=*/false) : nullptr)
      --*held;
    Pool& p = pool();
    std::lock_guard<std::mutex> lock(p.mu);
    if (p.scopes > 0) {
      p.slots[n].free.push_back(ptr);
      return;
    }
  }
  ::operator delete(ptr);
}

}  // namespace detail

BufferPoolScope::BufferPoolScope() {
  Pool& p = pool();
  std::lock_guard<std::mutex> lock(p.mu);
  ++p.scopes;
  g_scope_hint.store(p.scopes, std::memory_order_relaxed);
}

BufferPoolScope::~BufferPoolScope() {
  Pool& p = pool();
  std::unordered_map<std::size_t, Pool::Slot> drained;
  {
    std::lock_guard<std::mutex> lock(p.mu);
    if (--p.scopes == 0) drained.swap(p.slots);
    g_scope_hint.store(p.scopes, std::memory_order_relaxed);
  }
  for (auto& [n, slot] : drained)
    for (float* ptr : slot.free) ::operator delete(ptr);
}

BufferPoolProvision::BufferPoolProvision(std::size_t copies)
    : copies_(copies > 0 ? copies : 1), prev_(t_task) {
  t_task = this;
}

BufferPoolProvision::~BufferPoolProvision() { t_task = prev_; }

long* BufferPoolProvision::held(std::size_t n, bool insert) {
  for (std::size_t i = 0; i < num_sizes_; ++i)
    if (held_[i].size == n) return &held_[i].count;
  if (!insert || num_sizes_ == held_.size()) return nullptr;
  held_[num_sizes_] = {n, 0};
  return &held_[num_sizes_++].count;
}

namespace alloc_stats {

bool enabled() {
#ifdef GOLDFISH_ALLOC_STATS
  return true;
#else
  return false;
#endif
}

std::size_t heap_allocations() {
#ifdef GOLDFISH_ALLOC_STATS
  return g_heap_allocs.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

}  // namespace alloc_stats

}  // namespace goldfish

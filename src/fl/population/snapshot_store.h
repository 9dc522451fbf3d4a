// Content-addressed model snapshot store (the population subsystem's dedup
// layer, docs/population.md).
//
// A federation at population scale holds many *identical* model replicas:
// every client that last downloaded broadcast version v references the same
// parameter values. Keying snapshots by a content hash of their serialized
// GFT1 bytes makes that sharing structural — interning the same parameters
// twice yields one stored buffer with a reference count of two, and the
// buffer is freed the moment the last reference drops (DeletionEvent
// commits release the departed client's reference; refcounts observably
// reach zero — tests/population_test.cpp pins this).
//
// Hashing is FNV-1a over the exact serialized bytes, so two snapshots
// collide only if they are bit-identical — which is precisely when they
// *should* dedupe. 64-bit hash collisions between different contents are
// handled by per-hash chaining (a Handle carries the chain slot), never by
// silent aliasing.
//
// Not thread-safe by design: the engine interns the versions clients will
// reference, and commits those references, on the main thread after the run
// — the same single-threaded seam the rest of the durable state uses.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace goldfish::fl::population {

class SnapshotStore {
 public:
  /// An owning reference to one stored snapshot. Valueless (valid == false)
  /// by default; copyable — copies share the reference they name, so every
  /// acquire() must be balanced by exactly one release().
  struct Handle {
    std::uint64_t hash = 0;
    std::uint32_t slot = 0;  ///< index in the hash's collision chain
    bool valid = false;
  };

  /// Intern `params`: serialize, hash, and either bump the existing entry's
  /// refcount or store one new deduped buffer. The returned handle owns one
  /// reference (release it when done).
  Handle intern(const std::vector<Tensor>& params);

  /// Add one reference to an interned snapshot.
  void acquire(const Handle& h);

  /// Drop one reference; the stored bytes are freed when the count reaches
  /// zero. No-op for an invalid handle.
  void release(const Handle& h);

  /// Decode the referenced snapshot back into tensors.
  std::vector<Tensor> materialize(const Handle& h) const;

  /// The raw serialized bytes of the referenced snapshot.
  const std::string& bytes(const Handle& h) const;

  /// Current reference count of `h` (0 for invalid or released handles).
  long refcount(const Handle& h) const;

  /// Number of distinct snapshots currently stored.
  std::size_t unique_snapshots() const { return live_entries_; }
  /// Bytes held by stored snapshots (deduped, not per-reference).
  std::size_t stored_bytes() const { return stored_bytes_; }
  /// Outstanding references across all snapshots.
  std::size_t total_references() const { return refs_total_; }
  /// Lifetime intern() calls — with unique_snapshots(), the dedup hit rate.
  std::size_t interned_total() const { return interned_total_; }

 private:
  struct Entry {
    std::string data;
    long refs = 0;
  };

  const Entry& entry_at(const Handle& h) const;

  // Ordered map (never unordered: DET003) keyed by the content hash; each
  // value chains the astronomically-rare distinct contents sharing a hash.
  std::map<std::uint64_t, std::vector<Entry>> entries_;
  std::size_t live_entries_ = 0;
  std::size_t stored_bytes_ = 0;
  std::size_t refs_total_ = 0;
  std::size_t interned_total_ = 0;
  std::string scratch_;  ///< intern() serialization buffer, capacity reused
};

}  // namespace goldfish::fl::population

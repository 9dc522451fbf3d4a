// Cold client-state store (the population subsystem's capacity layer,
// docs/population.md).
//
// A population-scale federation registers far more clients than ever train
// concurrently. Keeping a live data::Dataset (float tensors + label vector +
// telemetry struct) per registered client makes resident memory O(population)
// — the exact scaling wall ISSUE 10 removes. This store instead keeps each
// client as one compact byte record ("GFP1" header + GFT1 tensor records,
// byte-identical to the checkpoint format in tensor/serialize.h) and
// materializes a client into a pooled slot only while it participates in the
// active cohort. Resident memory is O(cohort); the cold side is a flat byte
// cost per client (~features + labels + 72 header bytes).
//
// Layout of one record (all little-endian; offsets fixed so telemetry can be
// patched in place without touching the tensor payload):
//
//   offset  size  field
//        0     4  magic "GFP1" (0x31504647)
//        4     4  reserved (zero)
//        8     8  num_classes            (i64)
//       16    24  geom channels/height/width (3 × i64)
//       40     8  tasks_started          (i64, durable telemetry)
//       48     8  updates_aggregated     (i64)
//       56     8  bytes_uplinked         (u64)
//       64     8  last_version           (i64, -1 = never downloaded)
//       72     …  features as one GFT1 record
//        …     …  labels as one GFT1 record (floats; exact below 2^24)
//
// Telemetry mutations (bump_* / set_last_version) rewrite only the 32 header
// bytes at offsets 40..72 — a cold client's durable counters advance without
// decoding a single tensor. Likewise replace() overwrites the whole record
// from a fresh Dataset without reading the old bytes, which is what lets a
// DeletionEvent on a cold client evict state at byte-blit cost (the
// "no forced materialization" fix, tests/population_test.cpp pins it via the
// materializations() lifetime counter).
//
// A store's backing is fixed when it is constructed. The default store is
// cold, as above. A resident-constructed fl::Engine instead builds a *hot*
// store: every record is the 72-byte header alone, and its dataset lives in
// a permanently occupied slot. Telemetry patches work unchanged, materialize()
// returns the slot without decoding, release()/release_all() skip hot
// records, and add()/replace() move the dataset into the slot. Which backing
// a record gets never depends on how the caller passes the dataset.
//
// Not thread-safe by design: the engine materializes cohort members on the
// main thread while building a run (materialize_epochs) and commits
// telemetry/replacements after the run, the same single-threaded seams all
// durable engine state uses.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "fl/population/snapshot_store.h"
#include "tensor/annotations.h"

namespace goldfish::fl {
class Engine;
}  // namespace goldfish::fl

namespace goldfish::fl::population {

class ClientStateStore {
 public:
  /// Durable per-client counters, persisted in the record header.
  struct Telemetry {
    long tasks_started = 0;
    long updates_aggregated = 0;
    std::uint64_t bytes_uplinked = 0;
    long last_version = -1;  ///< broadcast version last downloaded
  };

  /// An empty cold store.
  ClientStateStore() = default;

  /// Register a client: spill `ds` to a fresh cold record (hot store: move
  /// it into a fresh slot). Returns the client id (dense, 0-based, stable
  /// for the store's lifetime).
  std::size_t add(data::Dataset ds);

  std::size_t num_clients() const { return records_.size(); }

  /// True when every record keeps its dataset resident (see above).
  bool hot() const { return hot_; }

  /// Decode client `id` into a pooled resident slot and return the live
  /// dataset. Idempotent while resident (returns the same slot). The slot's
  /// tensors are reused across occupants via resize_uninit, so steady-state
  /// cohort turnover performs zero heap allocations once every shape has
  /// been seen.
  GOLDFISH_HOT const data::Dataset& materialize(std::size_t id);

  /// True while `id` occupies a resident slot.
  bool resident(std::size_t id) const;

  /// The dataset in `id`'s resident slot; throws when the client is cold.
  const data::Dataset& resident_dataset(std::size_t id) const;

  /// Return `id`'s slot to the free list (storage retained for the next
  /// occupant). No-op if not resident, or if the store is hot.
  void release(std::size_t id);

  /// Release every resident slot (end-of-run cohort teardown). No-op for a
  /// hot store.
  void release_all();

  /// Overwrite client `id`'s record from `ds`, WITHOUT decoding the old
  /// bytes — telemetry is preserved across the swap (the departed client's
  /// audit trail survives its data deletion). Frees the slot first if
  /// resident, since the resident copy no longer matches the record. A hot
  /// store moves `ds` into the client's slot instead.
  void replace(std::size_t id, data::Dataset ds);

  /// Durable telemetry, readable hot or cold.
  Telemetry telemetry(std::size_t id) const;
  void bump_tasks_started(std::size_t id, long n);
  void bump_updates_aggregated(std::size_t id, long n);
  void bump_bytes_uplinked(std::size_t id, std::uint64_t n);
  void set_last_version(std::size_t id, long version);

  /// The client's reference-snapshot handle (for DeltaWire's
  /// needs_reference() path; owned by the caller via SnapshotStore
  /// acquire/release — the store only records it).
  const SnapshotStore::Handle& reference(std::size_t id) const;
  void set_reference(std::size_t id, const SnapshotStore::Handle& h);

  /// Size of client `id`'s cold record in bytes.
  std::size_t record_bytes(std::size_t id) const;

  /// Total bytes across all records (a hot record is its 72-byte header).
  std::size_t cold_bytes() const { return cold_bytes_; }
  /// Bytes held by resident datasets right now (materialized cohort
  /// members, or every client of a hot store).
  std::size_t resident_bytes() const { return resident_bytes_; }
  /// High-water mark of resident_bytes() over the store's lifetime.
  std::size_t peak_resident_bytes() const { return peak_resident_bytes_; }
  /// Number of clients currently resident.
  std::size_t resident_clients() const { return resident_clients_; }
  /// Lifetime cold→hot decode count. A DeletionEvent on a cold client must
  /// NOT advance this (the eviction-without-materialization contract). A
  /// hot store never decodes, so its count stays 0.
  std::size_t materializations() const { return materializations_; }

 private:
  // The resident Engine constructor is the only way to build a hot store.
  friend class goldfish::fl::Engine;

  /// A hot store holding `clients` (ids in order).
  explicit ClientStateStore(std::vector<data::Dataset> clients);

  struct Record {
    std::string bytes;  ///< GFP1 header (+ GFT1 tensors when cold)
    int slot = -1;      ///< resident slot, -1 when cold
    SnapshotStore::Handle reference;  ///< caller-owned snapshot ref
  };
  struct Slot {
    data::Dataset ds;
    std::size_t owner = 0;
    std::size_t bytes = 0;  ///< live dataset bytes of the current occupant
  };

  /// Write `ds`'s record into `out`: the header, then (cold store only)
  /// the tensor payload.
  GOLDFISH_HOT void spill(const data::Dataset& ds, const Telemetry& t,
                          std::string& out);
  /// Store `ds` as client `id`'s data with telemetry `t`: respill the
  /// record, and for a hot store move `ds` into the client's slot.
  void write(std::size_t id, data::Dataset ds, const Telemetry& t);
  /// Take a free slot (or grow the pool) for cold-or-hot client `id`.
  Slot& occupy(std::size_t id);
  /// Account the occupant of `s` as resident.
  void settle(Slot& s);

  // deque: materialize() hands out references into slots, which must stay
  // valid while later cohort members materialize into new slots.
  std::deque<Slot> slots_;
  std::vector<int> free_slots_;
  std::vector<Record> records_;
  Tensor label_tensor_;  ///< scratch for decoding the labels GFT1 record
  std::size_t cold_bytes_ = 0;
  std::size_t resident_bytes_ = 0;
  std::size_t peak_resident_bytes_ = 0;
  std::size_t resident_clients_ = 0;
  std::size_t materializations_ = 0;
  bool hot_ = false;
};

}  // namespace goldfish::fl::population

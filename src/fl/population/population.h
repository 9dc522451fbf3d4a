// Population façade: one object bundling the two population-scale stores
// (docs/population.md) — every fl::Engine holds exactly one.
//
// - `clients` — cold client-state store: datasets + durable telemetry live
//   as compact byte records; only active-cohort members are materialized.
// - `snapshots` — content-addressed model snapshot store: broadcast versions
//   and client reference snapshots dedupe by content hash.
//
// The glue here is reference bookkeeping: a client's reference snapshot (the
// DeltaWire `needs_reference()` base) is a SnapshotStore handle recorded in
// the client store. set_reference/drop_reference keep the acquire/release
// pairing in one place so refcounts provably reach zero when the last
// referencing client is deleted.
#pragma once

#include "fl/population/client_store.h"
#include "fl/population/snapshot_store.h"

namespace goldfish::fl::population {

struct Population {
  ClientStateStore clients;
  SnapshotStore snapshots;

  /// Point client `id`'s reference snapshot at `h`: acquires the new handle,
  /// releases the old one (order matters when old == new).
  void set_reference(std::size_t id, const SnapshotStore::Handle& h) {
    const SnapshotStore::Handle old = clients.reference(id);
    snapshots.acquire(h);
    snapshots.release(old);
    clients.set_reference(id, h);
  }

  /// Drop client `id`'s reference snapshot (DeletionEvent commit: the
  /// departed client must stop pinning its replica so dedup refcounts can
  /// reach zero). Works on cold clients — no materialization involved.
  void drop_reference(std::size_t id) {
    snapshots.release(clients.reference(id));
    clients.set_reference(id, SnapshotStore::Handle{});
  }
};

}  // namespace goldfish::fl::population

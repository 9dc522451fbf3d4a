// Population façade (docs/population.md): the cold client-state store every
// fl::Engine holds. Datasets and durable telemetry live as compact byte
// records; only active-cohort members are materialized.
#pragma once

#include <cstddef>

#include "fl/population/client_store.h"

namespace goldfish::fl::population {

struct Population {
  ClientStateStore clients;

  // Kept only because the benchmark program in perfbench/ reads these two
  // counters; the server stores no model snapshots, so both are always 0.
  // Delete with the benchmark's snapshot metrics.
  struct {
    std::size_t unique_snapshots() const { return 0; }
    std::size_t stored_bytes() const { return 0; }
  } snapshots;
};

}  // namespace goldfish::fl::population

#include "fl/population/client_store.h"

#include <cstring>

#include "tensor/check.h"
#include "tensor/serialize.h"

namespace goldfish::fl::population {

namespace {

// "GFP1" little-endian, mirroring the GFT1/GFQ1/GFK1 magic convention.
constexpr std::uint32_t kMagic = 0x31504647;

// Fixed header offsets (see the layout table in client_store.h). Telemetry
// patches depend on these never moving.
constexpr std::size_t kOffNumClasses = 8;
constexpr std::size_t kOffGeom = 16;
constexpr std::size_t kOffTasksStarted = 40;
constexpr std::size_t kOffUpdatesAggregated = 48;
constexpr std::size_t kOffBytesUplinked = 56;
constexpr std::size_t kOffLastVersion = 64;
constexpr std::size_t kHeaderBytes = 72;

template <typename T>
void append_raw(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
void patch_raw(std::string& bytes, std::size_t offset, T v) {
  GOLDFISH_CHECK(offset + sizeof v <= bytes.size(), "header patch out of range");
  std::memcpy(&bytes[offset], &v, sizeof v);
}

template <typename T>
T read_raw(const std::string& bytes, std::size_t offset) {
  GOLDFISH_CHECK(offset + sizeof(T) <= bytes.size(), "header read out of range");
  T v;
  std::memcpy(&v, bytes.data() + offset, sizeof v);
  return v;
}

}  // namespace

GOLDFISH_HOT void ClientStateStore::spill(const data::Dataset& ds,
                                          const Telemetry& t,
                                          std::string& out) {
  out.clear();
  append_raw(out, kMagic);
  append_raw(out, std::uint32_t{0});  // reserved
  append_raw(out, static_cast<std::int64_t>(ds.num_classes));
  append_raw(out, static_cast<std::int64_t>(ds.geom.channels));
  append_raw(out, static_cast<std::int64_t>(ds.geom.height));
  append_raw(out, static_cast<std::int64_t>(ds.geom.width));
  append_raw(out, static_cast<std::int64_t>(t.tasks_started));
  append_raw(out, static_cast<std::int64_t>(t.updates_aggregated));
  append_raw(out, static_cast<std::uint64_t>(t.bytes_uplinked));
  append_raw(out, static_cast<std::int64_t>(t.last_version));
  if (hot_) return;  // a hot record's dataset lives in its slot
  append_tensor_record(out, ds.features);
  // Labels ride as a float GFT1 record (class ids are exact below 2^24),
  // so the whole record parses with the one tensor reader.
  label_tensor_.resize_uninit({static_cast<long>(ds.labels.size())});
  float* lp = label_tensor_.data();
  for (std::size_t i = 0; i < ds.labels.size(); ++i)
    lp[i] = static_cast<float>(ds.labels[i]);
  append_tensor_record(out, label_tensor_);
}

ClientStateStore::ClientStateStore(std::vector<data::Dataset> clients)
    : hot_(true) {
  for (data::Dataset& ds : clients) add(std::move(ds));
}

std::size_t ClientStateStore::add(data::Dataset ds) {
  records_.emplace_back();
  write(records_.size() - 1, std::move(ds), Telemetry{});
  return records_.size() - 1;
}

void ClientStateStore::write(std::size_t id, data::Dataset ds,
                             const Telemetry& t) {
  Record& r = records_[id];
  cold_bytes_ -= r.bytes.size();
  spill(ds, t, r.bytes);
  cold_bytes_ += r.bytes.size();
  if (!hot_) return;
  Slot& s = r.slot < 0 ? occupy(id) : slots_[r.slot];
  resident_bytes_ -= s.bytes;
  s.ds = std::move(ds);
  settle(s);
}

ClientStateStore::Slot& ClientStateStore::occupy(std::size_t id) {
  int slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<int>(slots_.size());
    // goldfish-lint: allow(ALLOC002) the slot pool grows to the cohort
    // high-water mark once, then every later materialization reuses a slot
    slots_.emplace_back();
  }
  records_[id].slot = slot;
  Slot& s = slots_[slot];
  s.owner = id;
  ++resident_clients_;
  return s;
}

void ClientStateStore::settle(Slot& s) {
  s.bytes = static_cast<std::size_t>(s.ds.features.numel()) * sizeof(float) +
            s.ds.labels.size() * sizeof(long);
  resident_bytes_ += s.bytes;
  if (resident_bytes_ > peak_resident_bytes_)
    peak_resident_bytes_ = resident_bytes_;
}

GOLDFISH_HOT const data::Dataset& ClientStateStore::materialize(
    std::size_t id) {
  GOLDFISH_CHECK(id < records_.size(), "unknown client id");
  Record& r = records_[id];
  if (r.slot >= 0) return slots_[r.slot].ds;

  Slot& s = occupy(id);
  data::Dataset& ds = s.ds;

  const std::string& bytes = r.bytes;
  GOLDFISH_CHECK(read_raw<std::uint32_t>(bytes, 0) == kMagic,
                 "bad client record magic");
  ds.num_classes = static_cast<long>(read_raw<std::int64_t>(bytes,
                                                            kOffNumClasses));
  ds.geom.channels = static_cast<long>(read_raw<std::int64_t>(bytes, kOffGeom));
  ds.geom.height =
      static_cast<long>(read_raw<std::int64_t>(bytes, kOffGeom + 8));
  ds.geom.width =
      static_cast<long>(read_raw<std::int64_t>(bytes, kOffGeom + 16));

  std::size_t offset = kHeaderBytes;
  read_tensor_record_into(bytes.data(), bytes.size(), &offset, ds.features);
  read_tensor_record_into(bytes.data(), bytes.size(), &offset, label_tensor_);
  GOLDFISH_CHECK(offset == bytes.size(), "trailing bytes in client record");
  const std::size_t n = static_cast<std::size_t>(label_tensor_.numel());
  // goldfish-lint: allow(ALLOC002) label vector capacity is monotonic per
  // slot — steady-state cohort turnover reuses it without reallocating
  ds.labels.resize(n);
  const float* lp = label_tensor_.data();
  for (std::size_t i = 0; i < n; ++i) ds.labels[i] = static_cast<long>(lp[i]);

  settle(s);
  ++materializations_;
  return ds;
}

bool ClientStateStore::resident(std::size_t id) const {
  GOLDFISH_CHECK(id < records_.size(), "unknown client id");
  return records_[id].slot >= 0;
}

const data::Dataset& ClientStateStore::resident_dataset(std::size_t id) const {
  GOLDFISH_CHECK(resident(id), "client is not resident");
  return slots_[records_[id].slot].ds;
}

void ClientStateStore::release(std::size_t id) {
  GOLDFISH_CHECK(id < records_.size(), "unknown client id");
  Record& r = records_[id];
  if (r.slot < 0 || hot_) return;
  Slot& s = slots_[r.slot];
  resident_bytes_ -= s.bytes;
  s.bytes = 0;
  --resident_clients_;
  free_slots_.push_back(r.slot);
  r.slot = -1;
}

void ClientStateStore::release_all() {
  // Walk the slot pool (O(cohort)), not the records (O(population)).
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.owner < records_.size() &&
        records_[s.owner].slot == static_cast<int>(i))
      release(s.owner);
  }
}

void ClientStateStore::replace(std::size_t id, data::Dataset ds) {
  GOLDFISH_CHECK(id < records_.size(), "unknown client id");
  release(id);
  // Telemetry survives the data swap; the old tensor payload is never
  // decoded (deletion on a cold client must not force a materialization).
  write(id, std::move(ds), telemetry(id));
}

ClientStateStore::Telemetry ClientStateStore::telemetry(std::size_t id) const {
  GOLDFISH_CHECK(id < records_.size(), "unknown client id");
  const std::string& b = records_[id].bytes;
  Telemetry t;
  t.tasks_started = static_cast<long>(read_raw<std::int64_t>(b,
                                                             kOffTasksStarted));
  t.updates_aggregated =
      static_cast<long>(read_raw<std::int64_t>(b, kOffUpdatesAggregated));
  t.bytes_uplinked = read_raw<std::uint64_t>(b, kOffBytesUplinked);
  t.last_version = static_cast<long>(read_raw<std::int64_t>(b,
                                                            kOffLastVersion));
  return t;
}

void ClientStateStore::bump_tasks_started(std::size_t id, long n) {
  GOLDFISH_CHECK(id < records_.size(), "unknown client id");
  std::string& b = records_[id].bytes;
  patch_raw(b, kOffTasksStarted,
            read_raw<std::int64_t>(b, kOffTasksStarted) + n);
}

void ClientStateStore::bump_updates_aggregated(std::size_t id, long n) {
  GOLDFISH_CHECK(id < records_.size(), "unknown client id");
  std::string& b = records_[id].bytes;
  patch_raw(b, kOffUpdatesAggregated,
            read_raw<std::int64_t>(b, kOffUpdatesAggregated) + n);
}

void ClientStateStore::bump_bytes_uplinked(std::size_t id, std::uint64_t n) {
  GOLDFISH_CHECK(id < records_.size(), "unknown client id");
  std::string& b = records_[id].bytes;
  patch_raw(b, kOffBytesUplinked,
            read_raw<std::uint64_t>(b, kOffBytesUplinked) + n);
}

void ClientStateStore::set_last_version(std::size_t id, long version) {
  GOLDFISH_CHECK(id < records_.size(), "unknown client id");
  patch_raw(records_[id].bytes, kOffLastVersion,
            static_cast<std::int64_t>(version));
}

const SnapshotStore::Handle& ClientStateStore::reference(
    std::size_t id) const {
  GOLDFISH_CHECK(id < records_.size(), "unknown client id");
  return records_[id].reference;
}

void ClientStateStore::set_reference(std::size_t id,
                                     const SnapshotStore::Handle& h) {
  GOLDFISH_CHECK(id < records_.size(), "unknown client id");
  records_[id].reference = h;
}

std::size_t ClientStateStore::record_bytes(std::size_t id) const {
  GOLDFISH_CHECK(id < records_.size(), "unknown client id");
  return records_[id].bytes.size();
}

}  // namespace goldfish::fl::population

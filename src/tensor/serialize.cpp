#include "tensor/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <numeric>

#include "tensor/annotations.h"
#include "tensor/check.h"

namespace goldfish {

namespace {

constexpr std::uint32_t kMagic = 0x31544647;      // "GFT1"
constexpr std::uint32_t kQuantMagic = 0x31514647;  // "GFQ1"
constexpr std::uint32_t kTopKMagic = 0x314B4647;   // "GFK1"

void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  GOLDFISH_CHECK(bool(is), "truncated tensor stream");
  return v;
}

void write_i64(std::ostream& os, std::int64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::int64_t read_i64(std::istream& is) {
  std::int64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  GOLDFISH_CHECK(bool(is), "truncated tensor stream");
  return v;
}

}  // namespace

void write_tensor(std::ostream& os, const Tensor& t) {
  write_u32(os, kMagic);
  write_u32(os, static_cast<std::uint32_t>(t.rank()));
  for (std::size_t i = 0; i < t.rank(); ++i) write_i64(os, t.dim(i));
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.numel() * sizeof(float)));
  GOLDFISH_CHECK(bool(os), "tensor write failed");
}

Tensor read_tensor(std::istream& is) {
  GOLDFISH_CHECK(read_u32(is) == kMagic, "bad tensor magic");
  const std::uint32_t rank = read_u32(is);
  GOLDFISH_CHECK(rank <= 8, "implausible tensor rank");
  Shape shape(rank);
  std::size_t numel = 1;
  for (std::uint32_t i = 0; i < rank; ++i) {
    shape[i] = read_i64(is);
    GOLDFISH_CHECK(shape[i] >= 0 && shape[i] < (1L << 32), "bad dim");
    const auto dim = static_cast<std::size_t>(shape[i]);
    GOLDFISH_CHECK(dim == 0 || numel <= (std::size_t{1} << 60) / dim,
                   "implausible tensor size");
    numel *= dim;
  }
  // A stream cannot say how many bytes remain, so the payload arrives in
  // bounded pieces: memory is committed at most one piece ahead of the
  // bytes delivered, and a header claiming a huge shape over a short stream
  // fails as truncated instead of allocating the claimed size.
  constexpr std::size_t kPiece = std::size_t{1} << 18;  // floats (1 MiB)
  std::vector<std::vector<float>> pieces;
  for (std::size_t left = numel; left > 0;) {
    const std::size_t n = std::min(left, kPiece);
    pieces.emplace_back(n);
    is.read(reinterpret_cast<char*>(pieces.back().data()),
            static_cast<std::streamsize>(n * sizeof(float)));
    GOLDFISH_CHECK(bool(is), "truncated tensor payload");
    left -= n;
  }
  Tensor t = Tensor::uninit(std::move(shape));
  float* out = t.data();
  for (const std::vector<float>& p : pieces)
    out = std::copy(p.begin(), p.end(), out);
  return t;
}

void save_tensors(const std::string& path, const std::vector<Tensor>& ts) {
  std::ofstream os(path, std::ios::binary);
  GOLDFISH_CHECK(os.is_open(), "cannot open for write: " + path);
  write_u32(os, static_cast<std::uint32_t>(ts.size()));
  for (const Tensor& t : ts) write_tensor(os, t);
}

std::vector<Tensor> load_tensors(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  GOLDFISH_CHECK(is.is_open(), "cannot open for read: " + path);
  // The whole file, then the bounded decoder: a header's dims are checked
  // against the bytes actually present before anything is allocated.
  const std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  return deserialize_tensors(bytes.data(), bytes.size());
}

namespace {

/// Bounded little-endian reader over a raw byte buffer: the deserialization
/// twin of the append-based serializer, with the same truncation checks the
/// stream path enforces.
struct ByteReader {
  const char* p;
  std::size_t left;

  template <typename T>
  T take() {
    GOLDFISH_CHECK(left >= sizeof(T), "truncated tensor stream");
    T v;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    left -= sizeof(T);
    return v;
  }
};

template <typename T>
void append(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Reads a record's rank and dims (the part after its magic).
Shape read_shape(ByteReader& r) {
  const std::uint32_t rank = r.take<std::uint32_t>();
  GOLDFISH_CHECK(rank <= 8, "implausible tensor rank");
  Shape shape(rank);
  for (std::uint32_t d = 0; d < rank; ++d) {
    shape[d] = static_cast<long>(r.take<std::int64_t>());
    GOLDFISH_CHECK(shape[d] >= 0 && shape[d] < (1L << 32), "bad dim");
  }
  return shape;
}

/// Element count of a dense GFT1 record's shape, checked against the bytes
/// left *before* anything is allocated for it.
std::size_t dense_payload_numel(const ByteReader& r, const Shape& shape) {
  const std::size_t numel = Tensor::shape_numel(shape);
  GOLDFISH_CHECK(numel <= r.left / sizeof(float), "truncated tensor payload");
  return numel;
}

/// Bytes of the prefix every record kind shares: magic, rank, dims.
std::size_t record_header_bytes(const Tensor& t) {
  return 2 * sizeof(std::uint32_t) + t.rank() * sizeof(std::int64_t);
}

/// Bytes of a list: its count:u32 framing plus `record(t)` per tensor.
template <typename RecordBytes>
std::size_t list_bytes(const std::vector<Tensor>& ts, RecordBytes record) {
  std::size_t total = sizeof(std::uint32_t);
  for (const Tensor& t : ts) total += record(t);
  return total;
}

}  // namespace

std::size_t tensor_record_bytes(const Tensor& t) {
  return record_header_bytes(t) + t.numel() * sizeof(float);
}

std::size_t serialized_bytes(const std::vector<Tensor>& ts) {
  return list_bytes(ts, tensor_record_bytes);
}

GOLDFISH_HOT void serialize_tensors(const std::vector<Tensor>& ts,
                                    std::string& out) {
  out.clear();
  // goldfish-lint: allow(ALLOC002) callers pass a thread_local wire buffer
  // whose capacity is monotonic — steady-state rounds reuse it, alloc-free
  out.reserve(serialized_bytes(ts));
  append(out, static_cast<std::uint32_t>(ts.size()));
  for (const Tensor& t : ts) append_tensor_record(out, t);
}

GOLDFISH_HOT void append_tensor_record(std::string& out, const Tensor& t) {
  append(out, kMagic);
  append(out, static_cast<std::uint32_t>(t.rank()));
  for (std::size_t i = 0; i < t.rank(); ++i)
    append(out, static_cast<std::int64_t>(t.dim(i)));
  if (t.numel() != 0)
    // goldfish-lint: allow(ALLOC002) appends into a caller-owned record
    // buffer whose capacity is monotonic — steady-state spills reuse it
    out.append(reinterpret_cast<const char*>(t.data()),
               t.numel() * sizeof(float));
}

GOLDFISH_HOT void read_tensor_record_into(const char* data, std::size_t size,
                                          std::size_t* offset, Tensor& t) {
  GOLDFISH_CHECK(offset != nullptr && *offset <= size, "bad record offset");
  ByteReader r{data + *offset, size - *offset};
  GOLDFISH_CHECK(r.take<std::uint32_t>() == kMagic, "bad tensor magic");
  const Shape shape = read_shape(r);
  const std::size_t payload = dense_payload_numel(r, shape) * sizeof(float);
  // In-place landing: a no-op when the destination already holds this shape
  // (the cold store's pooled slots), a pool-recycled growth otherwise.
  t.resize_uninit(shape);
  if (payload != 0) std::memcpy(t.data(), r.p, payload);
  *offset = size - (r.left - payload);
}

std::vector<Tensor> deserialize_tensors(const char* data, std::size_t size) {
  ByteReader r{data, size};
  const std::uint32_t n = r.take<std::uint32_t>();
  GOLDFISH_CHECK(n < (1u << 20), "implausible tensor count");
  std::vector<Tensor> out;
  out.reserve(n);
  std::size_t offset = sizeof n;
  for (std::uint32_t i = 0; i < n; ++i)
    read_tensor_record_into(data, size, &offset, out.emplace_back());
  return out;
}

// -- compressed wire records ------------------------------------------------

namespace {

/// Shared per-record prefix of every wire record kind: magic, rank, dims.
void append_record_header(std::string& out, std::uint32_t magic,
                          const Tensor& t) {
  append(out, magic);
  append(out, static_cast<std::uint32_t>(t.rank()));
  for (std::size_t i = 0; i < t.rank(); ++i)
    append(out, static_cast<std::int64_t>(t.dim(i)));
}

/// Reads the record prefix written by append_record_header and returns the
/// recorded shape.
Shape read_record_header(ByteReader& r, std::uint32_t magic,
                         const char* what) {
  GOLDFISH_CHECK(r.take<std::uint32_t>() == magic,
                 std::string("bad ") + what + " record magic");
  return read_shape(r);
}

}  // namespace

std::size_t quantized_bytes(const std::vector<Tensor>& ts) {
  return list_bytes(ts, [](const Tensor& t) {
    return record_header_bytes(t) + 2 * sizeof(float) + t.numel();
  });
}

void serialize_quantized(const std::vector<Tensor>& ts, std::string& out) {
  out.clear();
  out.reserve(quantized_bytes(ts));
  append(out, static_cast<std::uint32_t>(ts.size()));
  for (const Tensor& t : ts) {
    append_record_header(out, kQuantMagic, t);
    const float mn = t.empty() ? 0.0f : t.min();
    const float mx = t.empty() ? 0.0f : t.max();
    const float scale = (mx - mn) / 255.0f;
    append(out, mn);
    append(out, scale);
    const float* p = t.data();
    const std::size_t base = out.size();
    out.resize(base + t.numel());
    char* q = &out[base];
    if (scale > 0.0f) {
      const float inv = 1.0f / scale;
      for (std::size_t i = 0; i < t.numel(); ++i) {
        // lround ties away from zero regardless of the FP rounding mode, so
        // the encoding is deterministic across machines; the clamp absorbs
        // (v − mn)/s landing a ULP above 255.
        const long level = std::lround((p[i] - mn) * inv);
        q[i] = static_cast<char>(
            static_cast<unsigned char>(std::clamp(level, 0L, 255L)));
      }
    } else {
      std::memset(q, 0, t.numel());  // constant tensor: everything is mn
    }
  }
}

std::vector<Tensor> deserialize_quantized(const char* data, std::size_t size) {
  ByteReader r{data, size};
  const std::uint32_t n = r.take<std::uint32_t>();
  GOLDFISH_CHECK(n < (1u << 20), "implausible tensor count");
  std::vector<Tensor> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Shape shape = read_record_header(r, kQuantMagic, "quantized");
    const float mn = r.take<float>();
    const float scale = r.take<float>();
    GOLDFISH_CHECK(r.left >= Tensor::shape_numel(shape),
                   "truncated quantized payload");
    Tensor t = Tensor::uninit(std::move(shape));
    float* p = t.data();
    for (std::size_t j = 0; j < t.numel(); ++j)
      p[j] = mn + float(static_cast<unsigned char>(r.p[j])) * scale;
    r.p += t.numel();
    r.left -= t.numel();
    out.push_back(std::move(t));
  }
  return out;
}

long topk_count(long numel, double fraction) {
  if (numel <= 0) return 0;
  const long k = static_cast<long>(std::ceil(fraction * double(numel)));
  return std::clamp(k, 1L, numel);
}

std::size_t topk_bytes(const std::vector<Tensor>& ts, double fraction) {
  return list_bytes(ts, [fraction](const Tensor& t) {
    const auto k = static_cast<std::size_t>(
        topk_count(static_cast<long>(t.numel()), fraction));
    return record_header_bytes(t) + sizeof(std::uint32_t) +
           k * (sizeof(std::uint32_t) + sizeof(float));
  });
}

void serialize_topk(const std::vector<Tensor>& ts, double fraction,
                    std::string& out) {
  GOLDFISH_CHECK(fraction > 0.0 && fraction <= 1.0,
                 "top-k fraction must be in (0, 1]");
  out.clear();
  out.reserve(topk_bytes(ts, fraction));
  append(out, static_cast<std::uint32_t>(ts.size()));
  // Selection scratch, reused across tensors and calls (the FL upload path
  // encodes inside scheduler tasks, one buffer per worker thread).
  static thread_local std::vector<std::uint32_t> order;
  for (const Tensor& t : ts) {
    GOLDFISH_CHECK(t.numel() < (1ULL << 32), "tensor too large for top-k");
    append_record_header(out, kTopKMagic, t);
    const long k = topk_count(static_cast<long>(t.numel()), fraction);
    append(out, static_cast<std::uint32_t>(k));
    const float* p = t.data();
    order.resize(t.numel());
    std::iota(order.begin(), order.end(), 0u);
    // Strict total order (|value| descending, flat index ascending as the
    // tie-break), so the kept set — and therefore the byte stream — is
    // unique no matter how nth_element partitions.
    const auto larger = [p](std::uint32_t a, std::uint32_t b) {
      const float fa = std::fabs(p[a]), fb = std::fabs(p[b]);
      if (fa != fb) return fa > fb;
      return a < b;
    };
    if (static_cast<std::size_t>(k) < order.size())
      std::nth_element(order.begin(), order.begin() + k, order.end(), larger);
    std::sort(order.begin(), order.begin() + k);  // canonical: ascending index
    for (long j = 0; j < k; ++j) append(out, order[static_cast<std::size_t>(j)]);
    for (long j = 0; j < k; ++j)
      append(out, p[order[static_cast<std::size_t>(j)]]);
  }
}

std::vector<Tensor> deserialize_topk(const char* data, std::size_t size) {
  ByteReader r{data, size};
  const std::uint32_t n = r.take<std::uint32_t>();
  GOLDFISH_CHECK(n < (1u << 20), "implausible tensor count");
  std::vector<Tensor> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Shape shape = read_record_header(r, kTopKMagic, "top-k");
    const std::size_t numel = Tensor::shape_numel(shape);
    const std::uint32_t k = r.take<std::uint32_t>();
    // The encoder's own bounds, enforced before anything is allocated: a u32
    // index space, and k >= 1 for a non-empty tensor (topk_count never
    // writes 0).
    GOLDFISH_CHECK(numel < (1ULL << 32), "top-k tensor exceeds u32 indices");
    GOLDFISH_CHECK(k <= numel, "top-k k exceeds element count");
    GOLDFISH_CHECK(k >= 1 || numel == 0,
                   "top-k k is 0 for a non-empty tensor");
    GOLDFISH_CHECK(r.left >= std::size_t(k) * (sizeof(std::uint32_t) +
                                               sizeof(float)),
                   "truncated top-k payload");
    Tensor t = Tensor::uninit(std::move(shape));
    std::memset(t.data(), 0, t.numel() * sizeof(float));
    const char* idx_bytes = r.p;
    const char* val_bytes = r.p + std::size_t(k) * sizeof(std::uint32_t);
    std::uint32_t prev = 0;
    for (std::uint32_t j = 0; j < k; ++j) {
      std::uint32_t idx;
      float val;
      std::memcpy(&idx, idx_bytes + std::size_t(j) * sizeof(idx), sizeof(idx));
      std::memcpy(&val, val_bytes + std::size_t(j) * sizeof(val), sizeof(val));
      GOLDFISH_CHECK(idx < t.numel(), "top-k index out of range");
      GOLDFISH_CHECK(j == 0 || idx > prev, "top-k indices not ascending");
      prev = idx;
      t.data()[idx] = val;
    }
    const std::size_t payload =
        std::size_t(k) * (sizeof(std::uint32_t) + sizeof(float));
    r.p += payload;
    r.left -= payload;
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace goldfish

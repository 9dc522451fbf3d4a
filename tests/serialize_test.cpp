// Tensor serialization: stream round-trips, file round-trips, corruption.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "tensor/serialize.h"

namespace goldfish {
namespace {

namespace fixtures {

void append_u32(std::string& s, std::uint32_t v) {
  s.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void append_i64(std::string& s, std::int64_t v) {
  s.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void append_f32(std::string& s, float v) {
  s.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// One record header (magic, rank, dims) followed by `payload` zero bytes:
/// a crafted input whose dims promise far more data than it carries.
std::string record(std::uint32_t magic,
                   std::initializer_list<std::int64_t> dims,
                   std::size_t payload) {
  std::string s;
  append_u32(s, magic);
  append_u32(s, static_cast<std::uint32_t>(dims.size()));
  for (std::int64_t d : dims) append_i64(s, d);
  s.append(payload, '\0');
  return s;
}

/// A one-tensor list around record(...).
std::string list_of(const std::string& rec) {
  std::string s;
  append_u32(s, 1);
  return s + rec;
}

constexpr std::uint32_t kDense = 0x31544647;      // "GFT1"
constexpr std::uint32_t kQuantized = 0x31514647;  // "GFQ1"
constexpr std::uint32_t kTopK = 0x314B4647;       // "GFK1"

}  // namespace fixtures

TEST(Serialize, StreamRoundTrip) {
  Rng rng(1);
  Tensor t = Tensor::randn({3, 4, 5}, rng);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_tensor(ss, t);
  Tensor u = read_tensor(ss);
  ASSERT_TRUE(u.same_shape(t));
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(u[i], t[i]);
}

TEST(Serialize, EmptyTensorRoundTrip) {
  Tensor t({0});
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_tensor(ss, t);
  Tensor u = read_tensor(ss);
  EXPECT_EQ(u.numel(), 0u);
  EXPECT_EQ(u.rank(), 1u);
}

TEST(Serialize, BadMagicThrows) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  const std::uint32_t junk = 0xDEADBEEF;
  ss.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  ss.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  EXPECT_THROW(read_tensor(ss), CheckError);
}

TEST(Serialize, TruncatedPayloadThrows) {
  Rng rng(2);
  Tensor t = Tensor::randn({10}, rng);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_tensor(ss, t);
  std::string buf = ss.str();
  buf.resize(buf.size() - 8);  // chop the tail
  std::stringstream cut(buf, std::ios::in | std::ios::binary);
  EXPECT_THROW(read_tensor(cut), CheckError);
}

TEST(Serialize, FileSaveLoad) {
  Rng rng(3);
  std::vector<Tensor> ts;
  ts.push_back(Tensor::randn({4, 4}, rng));
  ts.push_back(Tensor::from({1, 2, 3}));
  const std::string path = "/tmp/goldfish_serialize_test.bin";
  save_tensors(path, ts);
  auto back = load_tensors(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_TRUE(back[0].same_shape(ts[0]));
  EXPECT_FLOAT_EQ(back[1][2], 3.0f);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_tensors("/tmp/definitely_missing_goldfish.bin"),
               CheckError);
}

TEST(Serialize, LoadRejectsOversizedDimsBeforeAllocating) {
  // 28 bytes: one GFT1 header claiming [2^20, 2^20] floats (4 TiB) and no
  // payload. The file path must throw a typed error, not std::bad_alloc.
  const std::string bytes = fixtures::list_of(
      fixtures::record(fixtures::kDense, {1 << 20, 1 << 20}, 0));
  ASSERT_EQ(bytes.size(), 28u);
  const std::string path = "/tmp/goldfish_serialize_oversized.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(load_tensors(path), CheckError);
  std::remove(path.c_str());
}

TEST(Serialize, ReadTensorRejectsOversizedDimsBeforeAllocating) {
  // 28 bytes: one GFT1 record claiming [2^20, 2^20] floats (4 TiB) with one
  // float of payload behind it. The stream reader must throw a typed error,
  // not std::bad_alloc.
  const std::string bytes =
      fixtures::record(fixtures::kDense, {1 << 20, 1 << 20}, 4);
  ASSERT_EQ(bytes.size(), 28u);
  std::stringstream ss(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(read_tensor(ss), CheckError);
}

TEST(Serialize, BufferPathMatchesStreamBytes) {
  // serialize_tensors must emit exactly the bytes the stream writer does —
  // the wire format is shared with save_tensors files.
  Rng rng(9);
  std::vector<Tensor> ts;
  ts.push_back(Tensor::randn({3, 5}, rng));
  ts.push_back(Tensor::randn({7}, rng));
  ts.push_back(Tensor::zeros({0}));  // zero-row tensor on the wire

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  const std::uint32_t count = static_cast<std::uint32_t>(ts.size());
  ss.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Tensor& t : ts) write_tensor(ss, t);

  std::string buf;
  serialize_tensors(ts, buf);
  EXPECT_EQ(buf, ss.str());
  // tensor_record_bytes predicts each record's size exactly.
  std::size_t predicted = sizeof(count);
  for (const Tensor& t : ts) predicted += tensor_record_bytes(t);
  EXPECT_EQ(predicted, buf.size());

  const auto back = deserialize_tensors(buf.data(), buf.size());
  ASSERT_EQ(back.size(), ts.size());
  for (std::size_t t = 0; t < ts.size(); ++t) {
    ASSERT_TRUE(back[t].same_shape(ts[t]));
    for (std::size_t i = 0; i < ts[t].numel(); ++i)
      EXPECT_EQ(back[t][i], ts[t][i]);
  }
}

TEST(Serialize, DeserializeRejectsCorruptBuffers) {
  Rng rng(10);
  std::vector<Tensor> ts;
  ts.push_back(Tensor::randn({4, 4}, rng));
  std::string buf;
  serialize_tensors(ts, buf);
  EXPECT_THROW(deserialize_tensors(buf.data(), buf.size() - 5), CheckError);
  std::string bad = buf;
  bad[4] ^= 0x5A;  // corrupt the first tensor's magic
  EXPECT_THROW(deserialize_tensors(bad.data(), bad.size()), CheckError);

  // Dims whose product wraps size_t to 0 (2^31 · 2^31 · 4 = 2^64), and dims
  // promising 4 TiB from a 4-byte payload: both are typed errors, checked
  // before anything is allocated.
  const std::string wraps =
      fixtures::record(fixtures::kDense, {1L << 31, 1L << 31, 4}, 8);
  const std::string huge =
      fixtures::record(fixtures::kDense, {1L << 20, 1L << 20}, 4);
  for (const std::string& rec : {wraps, huge}) {
    const std::string list = fixtures::list_of(rec);
    EXPECT_THROW(deserialize_tensors(list.data(), list.size()), CheckError);
    Tensor t;
    std::size_t offset = 0;
    EXPECT_THROW(read_tensor_record_into(rec.data(), rec.size(), &offset, t),
                 CheckError);
    EXPECT_EQ(offset, 0u);
  }
  EXPECT_EQ(fixtures::list_of(wraps).size(), 44u);
  EXPECT_EQ(fixtures::list_of(huge).size(), 32u);
}

// A rank-0 record carries one float. Decoding it into an empty Tensor() —
// whose shape is the same empty dims list, but with no element — must still
// land that float, through both the list decoder and the in-place reader.
TEST(Serialize, RankZeroRecordDecodesItsOneElement) {
  std::string rec = fixtures::record(fixtures::kDense, {}, 0);
  fixtures::append_f32(rec, 2.5f);
  const std::string list = fixtures::list_of(rec);
  const std::vector<Tensor> back = deserialize_tensors(list.data(), list.size());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].rank(), 0u);
  ASSERT_EQ(back[0].numel(), 1u);
  EXPECT_EQ(back[0][0], 2.5f);

  Tensor t;
  std::size_t offset = 0;
  read_tensor_record_into(rec.data(), rec.size(), &offset, t);
  EXPECT_EQ(offset, rec.size());
  ASSERT_EQ(t.numel(), 1u);
  EXPECT_EQ(t[0], 2.5f);
}

// -- compressed wire records (GFQ1 / GFK1) ----------------------------------
//
// The byte-level fixtures below are the executable counterpart of
// docs/wire-format.md: every offset and value asserted here appears in the
// spec's worked examples. Changing the wire format must update both.

TEST(SerializeQuantized, ByteLayoutMatchesSpecFixture) {
  // docs/wire-format.md, "GFQ1 worked example": [0, 1, 2, 3] as shape {4}.
  std::vector<Tensor> ts;
  ts.push_back(Tensor::from({0, 1, 2, 3}));

  std::string expect;
  fixtures::append_u32(expect, 1);           // list: tensor count
  fixtures::append_u32(expect, 0x31514647);  // "GFQ1"
  fixtures::append_u32(expect, 1);           // rank
  fixtures::append_i64(expect, 4);           // dims[0]
  fixtures::append_f32(expect, 0.0f);        // min
  fixtures::append_f32(expect, 3.0f / 255.0f);  // scale = (max-min)/255
  // levels: lround((v - min)/scale) = 0, 85, 170, 255
  expect.push_back(char(0x00));
  expect.push_back(char(0x55));
  expect.push_back(char(0xAA));
  expect.push_back(char(0xFF));

  std::string got;
  serialize_quantized(ts, got);
  EXPECT_EQ(got, expect);

  const auto back = deserialize_quantized(got.data(), got.size());
  ASSERT_EQ(back.size(), 1u);
  ASSERT_TRUE(back[0].same_shape(ts[0]));
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(back[0][i], ts[0][i], 3.0 / 255.0 / 2.0 + 1e-6);
}

TEST(SerializeQuantized, ErrorBoundedByHalfStepAndEndpointsExact) {
  Rng rng(21);
  std::vector<Tensor> ts;
  ts.push_back(Tensor::randn({37, 11}, rng));
  ts.push_back(Tensor::randn({253}, rng));
  std::string buf;
  serialize_quantized(ts, buf);
  const auto back = deserialize_quantized(buf.data(), buf.size());
  ASSERT_EQ(back.size(), ts.size());
  for (std::size_t t = 0; t < ts.size(); ++t) {
    const float mn = ts[t].min(), mx = ts[t].max();
    const float half_step = (mx - mn) / 255.0f / 2.0f;
    for (std::size_t i = 0; i < ts[t].numel(); ++i)
      EXPECT_NEAR(back[t][i], ts[t][i], half_step * 1.001f + 1e-7f);
    // The range minimum maps to level 0 and decodes to exactly `min`.
    EXPECT_EQ(back[t].min(), mn);
  }
}

TEST(SerializeQuantized, ConstantTensorDecodesExactly) {
  // max == min → scale 0: every element encodes as level 0 and decodes to
  // exactly the constant (the scale > 0 branch would divide by zero).
  std::vector<Tensor> ts;
  ts.push_back(Tensor::full({5, 5}, 2.75f));
  std::string buf;
  serialize_quantized(ts, buf);
  const auto back = deserialize_quantized(buf.data(), buf.size());
  for (std::size_t i = 0; i < back[0].numel(); ++i)
    EXPECT_EQ(back[0][i], 2.75f);
}

TEST(SerializeQuantized, RejectsCorruptBuffers) {
  Rng rng(22);
  std::vector<Tensor> ts;
  ts.push_back(Tensor::randn({16}, rng));
  std::string buf;
  serialize_quantized(ts, buf);
  EXPECT_THROW(deserialize_quantized(buf.data(), buf.size() - 3), CheckError);
  std::string bad = buf;
  bad[4] ^= 0x5A;  // corrupt the record magic
  EXPECT_THROW(deserialize_quantized(bad.data(), bad.size()), CheckError);
  // A dense GFT1 buffer is not a quantized one.
  std::string dense;
  serialize_tensors(ts, dense);
  EXPECT_THROW(deserialize_quantized(dense.data(), dense.size()), CheckError);
  // Crafted headers followed by min, scale and at most 4 level bytes: an
  // element count that wraps size_t to 0, and 2^40 levels.
  for (const std::string& rec :
       {fixtures::record(fixtures::kQuantized, {1L << 31, 1L << 31, 4}, 8),
        fixtures::record(fixtures::kQuantized, {1L << 20, 1L << 20}, 12)}) {
    const std::string list = fixtures::list_of(rec);
    EXPECT_THROW(deserialize_quantized(list.data(), list.size()), CheckError);
  }
}

TEST(SerializeTopK, ByteLayoutMatchesSpecFixture) {
  // docs/wire-format.md, "GFK1 worked example": [0.5, -2, 1, 0, -0.25, 3]
  // at fraction 1/3 → k = 2; survivors by |value| are 3 (index 5) and −2
  // (index 1), stored in ascending index order.
  std::vector<Tensor> ts;
  ts.push_back(Tensor::from({0.5f, -2.0f, 1.0f, 0.0f, -0.25f, 3.0f}));

  std::string expect;
  fixtures::append_u32(expect, 1);           // list: tensor count
  fixtures::append_u32(expect, 0x314B4647);  // "GFK1"
  fixtures::append_u32(expect, 1);           // rank
  fixtures::append_i64(expect, 6);           // dims[0]
  fixtures::append_u32(expect, 2);           // k
  fixtures::append_u32(expect, 1);           // indices, ascending
  fixtures::append_u32(expect, 5);
  fixtures::append_f32(expect, -2.0f);       // values, in index order
  fixtures::append_f32(expect, 3.0f);

  std::string got;
  serialize_topk(ts, 1.0 / 3.0, got);
  EXPECT_EQ(got, expect);

  const auto back = deserialize_topk(got.data(), got.size());
  ASSERT_EQ(back.size(), 1u);
  const float want[6] = {0.0f, -2.0f, 0.0f, 0.0f, 0.0f, 3.0f};
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(back[0][i], want[i]);
}

TEST(SerializeTopK, MagnitudeTiesKeepLowestIndex) {
  // Strict total order: equal magnitudes break toward the lower flat index,
  // so the kept set (and the byte stream) is unique.
  std::vector<Tensor> ts;
  ts.push_back(Tensor::from({1, -1, 1, 1}));
  std::string buf;
  serialize_topk(ts, 0.5, buf);
  const auto back = deserialize_topk(buf.data(), buf.size());
  EXPECT_EQ(back[0][0], 1.0f);
  EXPECT_EQ(back[0][1], -1.0f);
  EXPECT_EQ(back[0][2], 0.0f);
  EXPECT_EQ(back[0][3], 0.0f);
}

TEST(SerializeTopK, CountClampsAndValidates) {
  EXPECT_EQ(topk_count(0, 0.5), 0);     // empty tensor: no entries
  EXPECT_EQ(topk_count(100, 0.01), 1);  // ceil
  EXPECT_EQ(topk_count(100, 0.001), 1); // never below 1 for non-empty
  EXPECT_EQ(topk_count(100, 1.0), 100);
  EXPECT_EQ(topk_count(3, 0.5), 2);     // ceil(1.5)

  std::vector<Tensor> ts;
  ts.push_back(Tensor::from({1, 2}));
  std::string buf;
  EXPECT_THROW(serialize_topk(ts, 0.0, buf), CheckError);
  EXPECT_THROW(serialize_topk(ts, 1.5, buf), CheckError);
}

TEST(SerializeTopK, RejectsCorruptBuffers) {
  Rng rng(23);
  std::vector<Tensor> ts;
  ts.push_back(Tensor::randn({32}, rng));
  std::string buf;
  serialize_topk(ts, 0.25, buf);
  EXPECT_THROW(deserialize_topk(buf.data(), buf.size() - 5), CheckError);
  std::string bad = buf;
  bad[4] ^= 0x5A;  // corrupt the record magic
  EXPECT_THROW(deserialize_topk(bad.data(), bad.size()), CheckError);
  // Swap the two first (ascending) indices: the stream is non-canonical.
  std::string swapped;
  serialize_topk(ts, 0.25, swapped);
  const std::size_t idx0 = 4 + 4 + 4 + 8 + 4;  // count+magic+rank+dim+k
  std::uint32_t a, b;
  std::memcpy(&a, swapped.data() + idx0, 4);
  std::memcpy(&b, swapped.data() + idx0 + 4, 4);
  std::memcpy(&swapped[idx0], &b, 4);
  std::memcpy(&swapped[idx0 + 4], &a, 4);
  EXPECT_THROW(deserialize_topk(swapped.data(), swapped.size()), CheckError);
  // Headers outside the encoder's own bounds, rejected before allocating:
  // 32 bytes claiming [2^20, 2^20] (past the u32 index space) with k = 0,
  // and k = 0 for a non-empty tensor (topk_count never writes 0).
  const auto k0_square = [](std::int64_t dim) {
    std::string rec = fixtures::record(fixtures::kTopK, {dim, dim}, 0);
    fixtures::append_u32(rec, 0);  // k
    return fixtures::list_of(rec);
  };
  const std::string oversized = k0_square(1 << 20);
  ASSERT_EQ(oversized.size(), 32u);
  EXPECT_THROW(deserialize_topk(oversized.data(), oversized.size()),
               CheckError);
  const std::string empty_k = k0_square(3);
  EXPECT_THROW(deserialize_topk(empty_k.data(), empty_k.size()), CheckError);
}

}  // namespace
}  // namespace goldfish

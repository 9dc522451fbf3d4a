// The WirePolicy family (fl/policies.h): dense roundtrip exactness,
// quantized bounded error, top-k sparsity invariants, delta vs the
// broadcast reference across version skew, byte-true encoded_bytes,
// the bandwidth-aware clock, and engine integration — lossy wires must
// still run bit-identically at 1, 2 and 8 threads, and the default
// (null) wire must match an explicit DenseWire bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "nn/models.h"
#include "tensor/serialize.h"

namespace goldfish {
namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool snapshots_bitwise_equal(const std::vector<Tensor>& a,
                             const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (!a[t].same_shape(b[t])) return false;
    if (std::memcmp(a[t].data(), b[t].data(),
                    a[t].numel() * sizeof(float)) != 0)
      return false;
  }
  return true;
}

std::vector<Tensor> random_params(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> ps;
  ps.push_back(Tensor::randn({16, 48}, rng));
  ps.push_back(Tensor::randn({16}, rng));
  ps.push_back(Tensor::randn({10, 16}, rng));
  ps.push_back(Tensor::randn({10}, rng));
  return ps;
}

/// encode → decode under one wire, no reference.
std::vector<Tensor> roundtrip(const fl::WirePolicy& wire,
                              const std::vector<Tensor>& ps,
                              std::size_t* bytes = nullptr) {
  std::string buf;
  wire.encode(ps, nullptr, buf);
  if (bytes != nullptr) *bytes = buf.size();
  return wire.decode(buf.data(), buf.size(), nullptr);
}

struct Fed {
  std::vector<data::Dataset> parts;
  data::Dataset test;
  nn::Model global;
};

Fed make_fed(long clients, long train_rows, long test_rows,
             std::uint64_t seed) {
  auto tt = data::make_synthetic(data::default_spec(
      data::DatasetKind::Mnist, seed, train_rows, test_rows));
  Rng rng(seed + 1);
  Fed fed;
  fed.parts = data::partition_iid(tt.train, clients, rng);
  fed.test = std::move(tt.test);
  fed.global = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  return fed;
}

fl::FlConfig fast_cfg() {
  fl::FlConfig cfg;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 50;
  cfg.local.lr = 0.05f;
  return cfg;
}

// -- roundtrip contracts per wire -------------------------------------------

TEST(WirePolicy, DenseRoundTripIsBitExactAndByteTrue) {
  fl::DenseWire wire;
  EXPECT_TRUE(wire.lossless());
  EXPECT_FALSE(wire.needs_reference());
  const auto ps = random_params(41);
  std::size_t bytes = 0;
  const auto back = roundtrip(wire, ps, &bytes);
  EXPECT_TRUE(snapshots_bitwise_equal(ps, back));
  EXPECT_EQ(bytes, wire.encoded_bytes(ps));  // byte-true size prediction
}

TEST(WirePolicy, QuantizedErrorBoundedByHalfStep) {
  fl::QuantizedWire wire;
  EXPECT_FALSE(wire.lossless());
  const auto ps = random_params(42);
  std::size_t bytes = 0;
  const auto back = roundtrip(wire, ps, &bytes);
  EXPECT_EQ(bytes, wire.encoded_bytes(ps));
  ASSERT_EQ(back.size(), ps.size());
  for (std::size_t t = 0; t < ps.size(); ++t) {
    const float half_step = (ps[t].max() - ps[t].min()) / 255.0f / 2.0f;
    for (std::size_t i = 0; i < ps[t].numel(); ++i)
      EXPECT_NEAR(back[t][i], ps[t][i], half_step * 1.001f + 1e-7f);
  }
  // ~4x smaller than dense on realistic parameter shapes.
  fl::DenseWire dense;
  EXPECT_LT(bytes * 3, dense.encoded_bytes(ps));
}

TEST(WirePolicy, TopKSparsityInvariants) {
  fl::TopKWire wire(0.1);
  EXPECT_EQ(wire.fraction(), 0.1);
  const auto ps = random_params(43);
  std::size_t bytes = 0;
  const auto back = roundtrip(wire, ps, &bytes);
  EXPECT_EQ(bytes, wire.encoded_bytes(ps));
  for (std::size_t t = 0; t < ps.size(); ++t) {
    const long k = topk_count(static_cast<long>(ps[t].numel()), 0.1);
    long nonzero = 0;
    float min_kept = 0.0f, max_dropped = 0.0f;
    for (std::size_t i = 0; i < ps[t].numel(); ++i) {
      if (back[t][i] != 0.0f) {
        // Every kept entry is bit-exact.
        EXPECT_EQ(back[t][i], ps[t][i]);
        ++nonzero;
        const float m = std::fabs(back[t][i]);
        if (nonzero == 1 || m < min_kept) min_kept = m;
      } else {
        max_dropped = std::max(max_dropped, std::fabs(ps[t][i]));
      }
    }
    // randn makes exact zeros (and magnitude ties) measure-zero events, so
    // exactly k survive and they dominate everything dropped.
    EXPECT_EQ(nonzero, k);
    EXPECT_GE(min_kept, max_dropped);
  }
  EXPECT_THROW(fl::TopKWire(0.0), CheckError);
  EXPECT_THROW(fl::TopKWire(1.5), CheckError);
}

TEST(WirePolicy, DeltaReconstructsAgainstReference) {
  fl::DeltaWire wire;  // dense inner: exact deltas
  EXPECT_TRUE(wire.needs_reference());
  const auto ps = random_params(44);
  const auto ref = random_params(45);  // version skew: any shared snapshot

  std::string buf;
  wire.encode(ps, &ref, buf);
  EXPECT_EQ(buf.size(), wire.encoded_bytes(ps));
  const auto back = wire.decode(buf.data(), buf.size(), &ref);
  ASSERT_EQ(back.size(), ps.size());
  // (p − r) + r is one float rounding away from p, not bit-exact.
  for (std::size_t t = 0; t < ps.size(); ++t)
    for (std::size_t i = 0; i < ps[t].numel(); ++i)
      EXPECT_NEAR(back[t][i], ps[t][i], 1e-5f);

  // A null reference means "delta against zeros": dense inner → bit-exact.
  const auto plain = roundtrip(wire, ps);
  EXPECT_TRUE(snapshots_bitwise_equal(ps, plain));

  // Decoding against a different reference than the encoder used shifts the
  // result by exactly the reference difference — the broadcast version is
  // part of the contract, which is why the engine keys it per task.
  const auto other = random_params(46);
  const auto shifted = wire.decode(buf.data(), buf.size(), &other);
  for (std::size_t t = 0; t < ps.size(); ++t)
    for (std::size_t i = 0; i < ps[t].numel(); ++i)
      EXPECT_NEAR(shifted[t][i] - back[t][i], other[t][i] - ref[t][i], 1e-4f);
}

TEST(WirePolicy, DeltaComposesWithQuantization) {
  // Quantizing a small-range delta is far gentler than quantizing raw
  // weights: the quantization step scales with the tensor's range.
  auto ps = random_params(47);
  auto ref = ps;
  Rng rng(48);
  for (auto& t : ps)  // a training-sized nudge away from the reference
    for (std::size_t i = 0; i < t.numel(); ++i)
      t.data()[i] += 0.01f * float(rng.normal());

  fl::DeltaWire delta_q(std::make_unique<fl::QuantizedWire>());
  EXPECT_EQ(delta_q.name(), "delta+quantized");
  std::string buf;
  delta_q.encode(ps, &ref, buf);
  const auto back = delta_q.decode(buf.data(), buf.size(), &ref);

  fl::QuantizedWire raw_q;
  const auto back_raw = roundtrip(raw_q, ps);

  double err_delta = 0.0, err_raw = 0.0;
  for (std::size_t t = 0; t < ps.size(); ++t)
    for (std::size_t i = 0; i < ps[t].numel(); ++i) {
      err_delta += std::fabs(double(back[t][i]) - double(ps[t][i]));
      err_raw += std::fabs(double(back_raw[t][i]) - double(ps[t][i]));
    }
  EXPECT_LT(err_delta * 10, err_raw);

  // Delta wires do not nest: the inner encoder must be reference-free.
  EXPECT_THROW(fl::DeltaWire(std::make_unique<fl::DeltaWire>()), CheckError);
}

// -- the bandwidth-aware clock ----------------------------------------------

TEST(WirePolicy, BandwidthClockPricesPayloadSize) {
  auto make = [](std::size_t bytes) {
    fl::BandwidthClock clock(std::make_unique<fl::VirtualClock>(7, 1.0, 0.0),
                             /*mean_bandwidth=*/1000.0, /*log_spread=*/0.6,
                             /*seed=*/11);
    clock.set_upload_bytes(bytes);
    return clock;
  };
  fl::BandwidthClock small = make(1000), big = make(4000);
  for (std::size_t c = 0; c < 8; ++c) {
    // duration = compute (exactly 1.0 here) + bytes / bandwidth(c).
    EXPECT_TRUE(bits_equal(small.duration(c, 0),
                           1.0 + 1000.0 / small.bandwidth(c)));
    // A 4x payload is strictly slower to ship on every link.
    EXPECT_GT(big.duration(c, 0), small.duration(c, 0));
    // The link speed is a durable per-client property.
    EXPECT_TRUE(bits_equal(small.bandwidth(c), big.bandwidth(c)));
  }
  // Spread 0.6 makes distinct per-client links: persistent stragglers.
  EXPECT_NE(small.bandwidth(0), small.bandwidth(1));
}

// -- engine integration ------------------------------------------------------

TEST(WireEngine, NullWireMatchesExplicitDenseBitForBit) {
  std::vector<std::vector<Tensor>> finals;
  std::vector<std::vector<fl::StepResult>> results;
  for (int explicit_dense = 0; explicit_dense < 2; ++explicit_dense) {
    Fed fed = make_fed(4, 240, 60, 701);
    fl::FlConfig cfg = fast_cfg();
    cfg.async.buffer_size = 2;
    fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
    fl::Scenario s = eng.async_scenario(4);
    if (explicit_dense) s.wire = std::make_unique<fl::DenseWire>();
    results.push_back(eng.collect(std::move(s)));
    finals.push_back(eng.global_model().snapshot());
  }
  EXPECT_TRUE(snapshots_bitwise_equal(finals[0], finals[1]));
  ASSERT_EQ(results[0].size(), results[1].size());
  for (std::size_t a = 0; a < results[0].size(); ++a) {
    EXPECT_TRUE(bits_equal(results[0][a].global_accuracy,
                           results[1][a].global_accuracy));
    EXPECT_EQ(results[0][a].upload_bytes, results[1][a].upload_bytes);
    // Dense telemetry: real nonzero byte counts, zero encode error, and the
    // per-step total is exactly K uploads of the constant encoded size.
    EXPECT_GT(results[0][a].upload_bytes, 0u);
    EXPECT_EQ(results[0][a].bytes_uplinked,
              results[0][a].upload_bytes *
                  std::size_t(results[0][a].updates_consumed));
    EXPECT_EQ(results[0][a].encode_error, 0.0);
  }
}

/// Each lossy wire must still be bit-identical across thread counts: the
/// encoders are pure functions and the engine consumes updates in planned
/// order, so parallelism never leaks into the result.
void expect_thread_deterministic(
    const std::function<std::unique_ptr<fl::WirePolicy>()>& make_wire,
    double min_encode_error) {
  std::vector<std::vector<Tensor>> finals;
  std::vector<std::vector<fl::StepResult>> results;
  for (std::size_t threads : {1u, 2u, 8u}) {
    Fed fed = make_fed(4, 240, 60, 703);
    fl::FlConfig cfg = fast_cfg();
    cfg.threads = threads;
    cfg.async.buffer_size = 2;
    cfg.async.duration_log_jitter = 0.5;  // real skew → real staleness
    fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
    fl::Scenario s = eng.async_scenario(5);
    s.wire = make_wire();
    results.push_back(eng.collect(std::move(s)));
    finals.push_back(eng.global_model().snapshot());
  }
  ASSERT_EQ(results[0].size(), 5u);
  for (const fl::StepResult& r : results[0])
    EXPECT_GE(r.encode_error, min_encode_error);
  for (std::size_t i = 1; i < finals.size(); ++i) {
    EXPECT_TRUE(snapshots_bitwise_equal(finals[0], finals[i]));
    ASSERT_EQ(results[0].size(), results[i].size());
    for (std::size_t a = 0; a < results[0].size(); ++a) {
      EXPECT_TRUE(bits_equal(results[0][a].global_accuracy,
                             results[i][a].global_accuracy));
      EXPECT_TRUE(bits_equal(results[0][a].encode_error,
                             results[i][a].encode_error));
      EXPECT_EQ(results[0][a].upload_bytes, results[i][a].upload_bytes);
      EXPECT_EQ(results[0][a].bytes_uplinked, results[i][a].bytes_uplinked);
    }
  }
}

TEST(WireEngine, QuantizedDeterministicAcrossThreadCounts) {
  expect_thread_deterministic(
      [] { return std::make_unique<fl::QuantizedWire>(); }, 1e-8);
}

TEST(WireEngine, TopKDeterministicAcrossThreadCounts) {
  expect_thread_deterministic(
      [] { return std::make_unique<fl::TopKWire>(0.25); }, 1e-8);
}

TEST(WireEngine, DeltaQuantizedDeterministicAcrossThreadCounts) {
  // Delta wires consume the broadcast reference inside the worker task (the
  // engine holds version v's parameters through the wire roundtrip), under
  // real version skew from the jittered clock.
  expect_thread_deterministic(
      [] { return std::make_unique<fl::DeltaWire>(
               std::make_unique<fl::QuantizedWire>()); }, 0.0);
}

TEST(WireEngine, LossyWiresShrinkUploadsWithinAccuracyTolerance) {
  // The acceptance axis: quantized and top-k(0.1) uploads are >= 3x smaller
  // than dense, and accuracy stays within the tolerances documented in
  // src/fl/README.md — <= 2 points for quantized, <= 10 points for
  // delta+topk(0.1) (no error feedback, so aggressive sparsification lags
  // hardest early in training; this workload is 6 aggregations from
  // scratch). Top-k rides on the delta composition — sparsifying raw
  // weights would zero 90% of the model, sparsifying the *update* is the
  // standard gradient-compression move.
  auto run = [](std::unique_ptr<fl::WirePolicy> wire) {
    Fed fed = make_fed(4, 400, 100, 705);
    fl::FlConfig cfg = fast_cfg();
    cfg.async.buffer_size = 2;
    fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
    fl::Scenario s = eng.async_scenario(6);
    s.wire = std::move(wire);
    return eng.collect(std::move(s)).back();
  };
  const fl::StepResult dense = run(std::make_unique<fl::DenseWire>());
  const fl::StepResult quant = run(std::make_unique<fl::QuantizedWire>());
  const fl::StepResult topk = run(std::make_unique<fl::DeltaWire>(
      std::make_unique<fl::TopKWire>(0.1)));

  EXPECT_GT(dense.upload_bytes, 0u);
  EXPECT_GE(dense.upload_bytes, 3 * quant.upload_bytes);
  EXPECT_GE(dense.upload_bytes, 3 * topk.upload_bytes);
  EXPECT_NEAR(quant.global_accuracy, dense.global_accuracy, 2.0);
  EXPECT_NEAR(topk.global_accuracy, dense.global_accuracy, 10.0);
}

TEST(WireEngine, RunAsyncProjectsWireTelemetry) {
  // The canned async bundle reports wire telemetry too: dense wire, so real
  // bytes and zero injected error.
  Fed fed = make_fed(3, 180, 45, 707);
  fl::FlConfig cfg = fast_cfg();
  cfg.async.buffer_size = 2;
  fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
  const auto steps = eng.collect(eng.async_scenario(3));
  ASSERT_EQ(steps.size(), 3u);
  for (const auto& s : steps) {
    EXPECT_GT(s.upload_bytes, 0u);
    EXPECT_EQ(s.bytes_uplinked, s.upload_bytes * 2u);
    EXPECT_EQ(s.encode_error, 0.0);
  }
}

TEST(WireEngine, BandwidthClockMakesSmallUploadsFinishSooner) {
  // End to end: under the same bandwidth-aware clock, the quantized
  // scenario's buffers fill strictly earlier in virtual time than the dense
  // one's — stragglers emerge from payload size, not synthetic jitter.
  auto run = [](std::unique_ptr<fl::WirePolicy> wire) {
    Fed fed = make_fed(4, 240, 60, 709);
    fl::FlConfig cfg = fast_cfg();
    cfg.async.buffer_size = 2;
    fl::Engine eng(fed.global, fed.parts, fed.test, cfg);
    fl::Scenario s = eng.async_scenario(4);
    s.clock = std::make_unique<fl::BandwidthClock>(
        std::make_unique<fl::VirtualClock>(cfg.seed, 1.0, 0.0),
        /*mean_bandwidth=*/50000.0, /*log_spread=*/0.5, cfg.seed);
    s.wire = std::move(wire);
    return eng.collect(std::move(s));
  };
  const auto dense = run(std::make_unique<fl::DenseWire>());
  const auto quant = run(std::make_unique<fl::QuantizedWire>());
  ASSERT_EQ(dense.size(), quant.size());
  for (std::size_t a = 0; a < dense.size(); ++a)
    EXPECT_LT(quant[a].virtual_time, dense[a].virtual_time);
}

}  // namespace
}  // namespace goldfish

// Pluggable server policies for the event-driven fl::Engine: who trains
// toward each server version (ParticipationPolicy), how many buffered
// updates trigger an aggregation (BufferPolicy), how long each local
// training task takes on the virtual timeline (ClockPolicy), and how each
// upload travels the wire (WirePolicy: dense / quantized / top-k / delta
// encodings with byte-true costs).
//
// Determinism contract (what makes Engine runs bit-identical at any thread
// count): every schedule-side policy is consulted only while the Engine
// builds its event schedule — before any training runs — and must be a pure
// function of its arguments plus construction-time state. Policies must not
// read wall-clock time, thread ids, or training results; stateful policies
// (AdaptiveBuffer) may only depend on the sequence of calls the schedule
// builder makes, which is itself deterministic. WirePolicy runs during
// execution (it encodes trained parameters), but is a pure function of its
// inputs and its *byte count* is a pure function of parameter shapes, so
// schedules built from upload sizes stay training-independent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace goldfish::fl {

/// Decides whether a client trains toward a given server version. Consulted
/// whenever a client is free: at run start, after each of its completions,
/// and again for parked clients whenever the server version advances.
class ParticipationPolicy {
 public:
  virtual ~ParticipationPolicy() = default;

  /// Does `client` start a local-training task toward server `version` at
  /// virtual time `time`? Must answer identically for identical arguments.
  virtual bool participates(std::size_t client, long version,
                            double time) = 0;

  /// When a refused client should ask again without waiting for the version
  /// to change: the next virtual time (> `time`) at which participates()
  /// may flip to true, or a negative value when only a version change can
  /// re-admit the client (the Engine re-checks every parked client after
  /// each aggregation regardless).
  virtual double retry_at(std::size_t client, long version, double time) {
    (void)client;
    (void)version;
    (void)time;
    return -1.0;
  }

  /// Population-scale seam: a policy that can ENUMERATE each version's
  /// cohort lets the Engine visit only cohort members (O(cohort) per
  /// version) instead of asking participates() for every registered client
  /// (O(population)). Policies answering true here must keep cohort() and
  /// participates() consistent: participates(c, v, t) == (c ∈ cohort(v, n)),
  /// independent of time.
  virtual bool enumerates_cohort() const { return false; }

  /// The ascending client-id cohort for server `version` out of
  /// `num_clients` registered clients. Only meaningful when
  /// enumerates_cohort(); the default throws.
  virtual const std::vector<std::size_t>& cohort(long version,
                                                std::size_t num_clients);

  virtual std::string name() const = 0;
};

/// Every client trains continuously — the behaviour of the canned
/// Engine::sync_scenario / async_scenario bundles.
class FullParticipation final : public ParticipationPolicy {
 public:
  bool participates(std::size_t, long, double) override { return true; }
  std::string name() const override { return "full"; }
};

/// Seeded uniform sampling per server version: client c is in version v's
/// cohort with probability `fraction`, decided by a single draw from the
/// collision-free mix_seed(seed, c, v) stream. Independent of time, event
/// order, and thread count, so sampled runs are bit-reproducible.
///
/// Progress note: a version whose cohort happens to be empty cannot stall
/// the server — when nothing is in flight and the buffer cannot fill, the
/// Engine re-admits every parked client at that instant (documented in
/// src/fl/README.md).
class SampledParticipation final : public ParticipationPolicy {
 public:
  SampledParticipation(double fraction, std::uint64_t seed);

  bool participates(std::size_t client, long version, double time) override;
  std::string name() const override { return "sampled"; }

 private:
  double fraction_;
  std::uint64_t seed_;
};

/// Periodic per-client availability windows in virtual time: client c is
/// available while fmod(time + c·phase, period) < on_fraction·period —
/// a crude model of devices that are only reachable while charging/idle.
/// Refusals schedule a wake inside the client's next window (at its
/// midpoint, which is robust to floating-point boundary rounding).
class AvailabilityWindows final : public ParticipationPolicy {
 public:
  /// `period` > 0; `on_fraction` in (0, 1]; `phase` staggers clients so the
  /// federation is never synchronously offline.
  AvailabilityWindows(double period, double on_fraction, double phase);

  bool participates(std::size_t client, long version, double time) override;
  double retry_at(std::size_t client, long version, double time) override;
  std::string name() const override { return "windows"; }

 private:
  double period_;
  double on_;  // on_fraction · period
  double phase_;
};

/// Fixed-size seeded cohorts, enumerable without touching non-members: each
/// server version v gets exactly min(cohort_size, n) distinct clients,
/// rejection-sampled from the collision-free mix_seed(seed ⊕ salt, v, draw)
/// stream and kept sorted. This is the population-scale counterpart of
/// SampledParticipation — participates() is a binary search over the
/// version's cohort, and the Engine's schedule builder iterates cohort()
/// directly so scheduling work per version is O(cohort · log cohort), never
/// O(population). Joins become samplable at the next version bump (the
/// cohort for a version is pinned when first drawn, against the client
/// count at that moment).
class CohortParticipation final : public ParticipationPolicy {
 public:
  CohortParticipation(std::size_t cohort_size, std::uint64_t seed);

  bool participates(std::size_t client, long version, double time) override;
  bool enumerates_cohort() const override { return true; }
  const std::vector<std::size_t>& cohort(long version,
                                         std::size_t num_clients) override;
  std::string name() const override { return "cohort"; }

 private:
  std::size_t cohort_size_;
  std::uint64_t seed_;
  long cached_version_ = -1;
  std::size_t cached_n_ = 0;
  std::vector<std::size_t> cohort_;  // ascending client ids
};

/// Decides the buffer size K for each aggregation. Called once per
/// aggregation index, in order, while the schedule is built.
class BufferPolicy {
 public:
  virtual ~BufferPolicy() = default;

  /// K for aggregation `agg` (0-based). `prev_mean_staleness` and
  /// `prev_max_staleness` describe the updates consumed by aggregation
  /// agg−1 (both 0 for agg 0); `active_clients` is the current federation
  /// size after joins/leaves. Must return ≥ 1 (the Engine clamps).
  virtual long size(long agg, double prev_mean_staleness,
                    long prev_max_staleness, std::size_t active_clients) = 0;

  virtual std::string name() const = 0;
};

/// Fixed K; 0 means "all currently active clients" (the synchronous round).
class FixedBuffer final : public BufferPolicy {
 public:
  explicit FixedBuffer(long k) : k_(k) {}

  long size(long, double, long, std::size_t active_clients) override {
    return k_ > 0 ? k_ : static_cast<long>(active_clients);
  }
  std::string name() const override { return "fixed"; }

 private:
  long k_;
};

/// Adaptive K(t) driven by observed staleness: when the previous buffer
/// consumed an update more than `target_max_staleness` versions stale, grow
/// K by one (fewer version bumps per unit time → less lag for stragglers);
/// when every consumed update was fresh, shrink K by one (aggregate more
/// often → faster model refresh). K stays within [min_size, max_size].
class AdaptiveBuffer final : public BufferPolicy {
 public:
  AdaptiveBuffer(long initial, long min_size, long max_size,
                 long target_max_staleness = 1);

  long size(long agg, double prev_mean_staleness, long prev_max_staleness,
            std::size_t active_clients) override;
  std::string name() const override { return "adaptive"; }

  long current() const { return k_; }

 private:
  long k_;
  long min_;
  long max_;
  long target_;
};

/// Supplies the virtual duration of each local-training task. `index` is the
/// client's per-run task sequence number (its RNG stream step).
class ClockPolicy {
 public:
  virtual ~ClockPolicy() = default;

  /// Duration (> 0) of client `client`'s `index`-th task. Pure function of
  /// its arguments and construction-time state.
  virtual double duration(std::size_t client, long index) = 0;

  /// The byte-true size of one encoded upload under the scenario's
  /// WirePolicy, announced by the Engine once per run before the schedule is
  /// built (encoded size depends only on parameter shapes, never values, so
  /// consuming it keeps Phase A deterministic). Bandwidth-aware clocks use
  /// it to turn payload size into transfer time; the default ignores it.
  virtual void set_upload_bytes(std::size_t bytes) { (void)bytes; }

  virtual std::string name() const = 0;
};

/// The deterministic virtual clock (Engine::async_scenario's default):
/// duration = mean · exp(log_jitter · N(0,1)), drawn from the seeded
/// per-(client, task) stream mix_seed(seed ^ salt, client, index). With
/// log_jitter = 0 every task takes exactly `mean`, which reproduces the
/// synchronous schedule.
class VirtualClock final : public ClockPolicy {
 public:
  VirtualClock(std::uint64_t seed, double mean, double log_jitter);

  double duration(std::size_t client, long index) override;
  std::string name() const override { return "virtual"; }

 private:
  std::uint64_t seed_;
  double mean_;
  double jitter_;
};

/// Wall-clock replay: per-client measured task durations (e.g. recorded
/// from a real deployment trace), replayed cyclically — task `index` of
/// client c takes traces[c % traces.size()][index % trace.size()]. The
/// timeline stays virtual (and therefore thread-count independent); only
/// the durations come from measurements.
class TraceClock final : public ClockPolicy {
 public:
  explicit TraceClock(std::vector<std::vector<double>> traces);

  double duration(std::size_t client, long index) override;
  std::string name() const override { return "trace"; }

 private:
  std::vector<std::vector<double>> traces_;
};

/// Bandwidth-aware clock: task duration = the inner clock's compute time +
/// upload_bytes / the client's link bandwidth. Each client's bandwidth is
/// drawn once from the seeded log-normal stream mean·exp(spread·N(0,1)), so
/// slow links are *persistent* stragglers — and because the upload size
/// comes from the scenario's WirePolicy, straggling emerges from payload
/// size (a quantized upload is ~4x faster to ship than a dense one) instead
/// of purely synthetic jitter.
class BandwidthClock final : public ClockPolicy {
 public:
  /// `compute` supplies the local-training time (non-null, must not itself
  /// need upload bytes redirected — it receives set_upload_bytes too, which
  /// is a no-op for the stock clocks); `mean_bandwidth` is bytes per virtual
  /// time unit (> 0); `log_spread` >= 0 (0 → every client gets exactly the
  /// mean link).
  BandwidthClock(std::unique_ptr<ClockPolicy> compute, double mean_bandwidth,
                 double log_spread, std::uint64_t seed);

  void set_upload_bytes(std::size_t bytes) override;
  double duration(std::size_t client, long index) override;
  std::string name() const override { return "bandwidth+" + compute_->name(); }

  /// Client c's link bandwidth (bytes per virtual time unit); a pure seeded
  /// function, exposed for tests.
  double bandwidth(std::size_t client) const;

 private:
  std::unique_ptr<ClockPolicy> compute_;
  double mean_;
  double spread_;
  std::uint64_t seed_;
  std::size_t bytes_ = 0;
};

/// How a client's trained parameters travel to the server: each upload is
/// encoded to actual bytes (the count the telemetry and bandwidth clocks
/// see) and decoded server-side before aggregation. Encoders may be lossy —
/// that is the accuracy-vs-bytes axis — but must be pure functions of their
/// inputs, and their byte count must depend only on parameter *shapes* (so
/// Phase A can price uploads before training runs). Wire formats are
/// specified byte-for-byte in docs/wire-format.md.
class WirePolicy {
 public:
  virtual ~WirePolicy() = default;

  /// Encode `params` into `out` (cleared first, capacity reused across
  /// calls). `reference` is the snapshot of the server version this client
  /// downloaded — the broadcast both ends already share; null when the
  /// encoder does not need one (needs_reference() == false) or, for tests,
  /// to encode against an all-zero reference.
  virtual void encode(const std::vector<Tensor>& params,
                      const std::vector<Tensor>* reference,
                      std::string& out) const = 0;

  /// Decode a buffer produced by encode() with the same `reference`.
  /// Throws on malformed or truncated input.
  virtual std::vector<Tensor> decode(
      const char* data, std::size_t size,
      const std::vector<Tensor>* reference) const = 0;

  /// Byte-true size of one encoded upload for parameters shaped like
  /// `like` — a pure function of shapes, equal to what encode() will
  /// produce. Feeds ClockPolicy::set_upload_bytes.
  virtual std::size_t encoded_bytes(const std::vector<Tensor>& like) const = 0;

  /// True when decode(encode(p)) == p bit-for-bit (the engine skips the
  /// reconstruction-error measurement for lossless wires).
  virtual bool lossless() const { return false; }

  /// True when encode/decode consume the reference snapshot; the engine then
  /// keeps the downloaded version's parameters alive through the task's wire
  /// round-trip.
  virtual bool needs_reference() const { return false; }

  virtual std::string name() const = 0;
};

/// Today's behaviour, byte-true: the GFT1 dense framing of
/// tensor/serialize.h, bit-exact on decode. The default when a Scenario
/// sets no wire policy — runs are bit-identical to the pre-WirePolicy
/// engine.
class DenseWire final : public WirePolicy {
 public:
  void encode(const std::vector<Tensor>& params,
              const std::vector<Tensor>* reference,
              std::string& out) const override;
  std::vector<Tensor> decode(const char* data, std::size_t size,
                             const std::vector<Tensor>* reference)
      const override;
  std::size_t encoded_bytes(const std::vector<Tensor>& like) const override;
  bool lossless() const override { return true; }
  std::string name() const override { return "dense"; }
};

/// Int8 per-tensor affine quantization (the "GFQ1" record): ~4x smaller
/// than dense, max per-element error of half a quantization step
/// (range/510), deterministic round-half-away encoding.
class QuantizedWire final : public WirePolicy {
 public:
  void encode(const std::vector<Tensor>& params,
              const std::vector<Tensor>* reference,
              std::string& out) const override;
  std::vector<Tensor> decode(const char* data, std::size_t size,
                             const std::vector<Tensor>* reference)
      const override;
  std::size_t encoded_bytes(const std::vector<Tensor>& like) const override;
  std::string name() const override { return "quantized"; }
};

/// Top-k magnitude sparsification (the "GFK1" record): per tensor, keep the
/// ceil(fraction·numel) entries of largest magnitude as (index, value)
/// pairs; everything else decodes to zero. 8 bytes per kept entry, so
/// fraction 0.25 halves the dense payload and 0.1 cuts it 5x.
class TopKWire final : public WirePolicy {
 public:
  /// `fraction` ∈ (0, 1]: the per-tensor fraction of entries kept.
  explicit TopKWire(double fraction);

  void encode(const std::vector<Tensor>& params,
              const std::vector<Tensor>* reference,
              std::string& out) const override;
  std::vector<Tensor> decode(const char* data, std::size_t size,
                             const std::vector<Tensor>* reference)
      const override;
  std::size_t encoded_bytes(const std::vector<Tensor>& like) const override;
  std::string name() const override { return "topk"; }

  double fraction() const { return fraction_; }

 private:
  double fraction_;
};

/// Delta encoding vs the client's last broadcast (the "GFD1" record): what
/// travels is inner.encode(params − reference), and the server adds the
/// reference back after inner decode — both ends already hold the broadcast
/// version, so the delta itself never costs extra bytes. Composes with the
/// other encoders (quantizing or sparsifying a delta is far gentler than
/// doing so to raw weights, because post-training deltas have a much
/// smaller dynamic range). A null reference encodes against zeros.
class DeltaWire final : public WirePolicy {
 public:
  /// `inner` encodes the delta itself; null → DenseWire (exact deltas). The
  /// inner wire must not itself need a reference.
  explicit DeltaWire(std::unique_ptr<WirePolicy> inner = nullptr);

  void encode(const std::vector<Tensor>& params,
              const std::vector<Tensor>* reference,
              std::string& out) const override;
  std::vector<Tensor> decode(const char* data, std::size_t size,
                             const std::vector<Tensor>* reference)
      const override;
  std::size_t encoded_bytes(const std::vector<Tensor>& like) const override;
  bool needs_reference() const override { return true; }
  std::string name() const override { return "delta+" + inner_->name(); }

 private:
  std::unique_ptr<WirePolicy> inner_;
};

}  // namespace goldfish::fl

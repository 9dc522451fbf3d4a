#include "fl/policies.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/check.h"
#include "tensor/serialize.h"

namespace goldfish::fl {

namespace {

/// Salt separating the participation-sampling RNG streams from the training
/// and duration streams (all hash (seed, stream, step) through mix_seed).
constexpr std::uint64_t kSamplingSalt = 0x2545F4914F6CDD1Dull;

/// Salt of the virtual-duration streams. The constant is load-bearing: it is
/// the salt of the historical buffered-async loop, so a VirtualClock built
/// from the same FlConfig draws bit-identical durations and replays the
/// legacy golden schedules exactly.
constexpr std::uint64_t kDurationSalt = 0x517CC1B727220A95ull;

/// Salt of the per-client link-bandwidth draws (BandwidthClock).
constexpr std::uint64_t kBandwidthSalt = 0xD6E8FEB86659FD93ull;

/// Salt of the per-version cohort draws (CohortParticipation).
constexpr std::uint64_t kCohortSalt = 0x9E3779B97F4A7C15ull;

}  // namespace

const std::vector<std::size_t>& ParticipationPolicy::cohort(long,
                                                            std::size_t) {
  throw std::logic_error("fl::ParticipationPolicy: '" + name() +
                         "' does not enumerate cohorts (check "
                         "enumerates_cohort() first)");
}

SampledParticipation::SampledParticipation(double fraction,
                                           std::uint64_t seed)
    : fraction_(fraction), seed_(seed) {
  GOLDFISH_CHECK(fraction > 0.0 && fraction <= 1.0,
                 "sampling fraction must be in (0, 1]");
}

bool SampledParticipation::participates(std::size_t client, long version,
                                        double) {
  Rng rng(mix_seed(seed_ ^ kSamplingSalt, client,
                   static_cast<std::uint64_t>(version)));
  return double(rng.uniform()) < fraction_;
}

AvailabilityWindows::AvailabilityWindows(double period, double on_fraction,
                                         double phase)
    : period_(period), on_(on_fraction * period), phase_(phase) {
  GOLDFISH_CHECK(period > 0.0, "availability period must be positive");
  GOLDFISH_CHECK(on_fraction > 0.0 && on_fraction <= 1.0,
                 "availability on_fraction must be in (0, 1]");
}

bool AvailabilityWindows::participates(std::size_t client, long,
                                       double time) {
  const double local = time + double(client) * phase_;
  const double pos = local - std::floor(local / period_) * period_;
  return pos < on_;
}

double AvailabilityWindows::retry_at(std::size_t client, long, double time) {
  // participates() was just false, so `pos >= on_` and the next window
  // opens one full period after the current one began (in the client's
  // shifted frame, mapped back to global virtual time). The wake targets
  // the *middle* of that window, not its leading edge: a wake landing
  // exactly on the FP-rounded boundary could still see pos ≈ period (still
  // off-window), recompute retry == now, and be dropped — half an
  // on-window of margin makes the re-check robustly succeed.
  const double local = time + double(client) * phase_;
  const double window_start = std::floor(local / period_) * period_;
  return window_start + period_ + 0.5 * on_ - double(client) * phase_;
}

CohortParticipation::CohortParticipation(std::size_t cohort_size,
                                         std::uint64_t seed)
    : cohort_size_(cohort_size), seed_(seed) {
  GOLDFISH_CHECK(cohort_size >= 1, "cohort size must be >= 1");
}

const std::vector<std::size_t>& CohortParticipation::cohort(
    long version, std::size_t num_clients) {
  GOLDFISH_CHECK(num_clients > 0, "cohort over an empty federation");
  if (version == cached_version_ && num_clients == cached_n_) return cohort_;
  const std::size_t m = std::min(cohort_size_, num_clients);
  cohort_.clear();
  // Rejection-sample m DISTINCT ids from the (seed ⊕ salt, version, draw)
  // stream. Every redraw advances `draw`, so the sequence is a pure
  // function of (seed, version, num_clients) — no time, no call order.
  std::uint64_t draw = 0;
  while (cohort_.size() < m) {
    Rng rng(mix_seed(seed_ ^ kCohortSalt,
                     static_cast<std::uint64_t>(version), draw++));
    const std::size_t c = rng.uniform_index(num_clients);
    const auto it = std::lower_bound(cohort_.begin(), cohort_.end(), c);
    if (it != cohort_.end() && *it == c) continue;  // duplicate: redraw
    cohort_.insert(it, c);
  }
  cached_version_ = version;
  cached_n_ = num_clients;
  return cohort_;
}

bool CohortParticipation::participates(std::size_t client, long version,
                                       double) {
  // The schedule builder always enumerates cohort() for a version before
  // probing membership, so the cache answers for the right client count.
  GOLDFISH_CHECK(version == cached_version_,
                 "CohortParticipation::participates before cohort()");
  return std::binary_search(cohort_.begin(), cohort_.end(), client);
}

AdaptiveBuffer::AdaptiveBuffer(long initial, long min_size, long max_size,
                               long target_max_staleness)
    : k_(initial), min_(min_size), max_(max_size),
      target_(target_max_staleness) {
  GOLDFISH_CHECK(min_size >= 1, "adaptive buffer min_size must be >= 1");
  GOLDFISH_CHECK(min_size <= initial && initial <= max_size,
                 "adaptive buffer needs min_size <= initial <= max_size");
  GOLDFISH_CHECK(target_max_staleness >= 0,
                 "adaptive buffer target staleness must be >= 0");
}

long AdaptiveBuffer::size(long agg, double, long prev_max_staleness,
                          std::size_t) {
  if (agg > 0) {
    if (prev_max_staleness > target_)
      k_ = std::min(k_ + 1, max_);
    else if (prev_max_staleness == 0)
      k_ = std::max(k_ - 1, min_);
  }
  return k_;
}

VirtualClock::VirtualClock(std::uint64_t seed, double mean,
                           double log_jitter)
    : seed_(seed), mean_(mean), jitter_(log_jitter) {
  GOLDFISH_CHECK(mean > 0.0, "virtual-clock mean duration must be positive");
}

double VirtualClock::duration(std::size_t client, long index) {
  // Bit-for-bit the legacy draw: one normal deviate from the per-(client,
  // task) stream, widened to double only after the float math.
  Rng rng(mix_seed(seed_ ^ kDurationSalt, client,
                   static_cast<std::uint64_t>(index)));
  return mean_ * std::exp(jitter_ * double(rng.normal()));
}

TraceClock::TraceClock(std::vector<std::vector<double>> traces)
    : traces_(std::move(traces)) {
  GOLDFISH_CHECK(!traces_.empty(), "trace clock needs at least one trace");
  for (const auto& trace : traces_) {
    GOLDFISH_CHECK(!trace.empty(), "trace clock: empty per-client trace");
    for (double d : trace)
      GOLDFISH_CHECK(d > 0.0, "trace clock: durations must be positive");
  }
}

double TraceClock::duration(std::size_t client, long index) {
  const auto& trace = traces_[client % traces_.size()];
  return trace[static_cast<std::size_t>(index) % trace.size()];
}

BandwidthClock::BandwidthClock(std::unique_ptr<ClockPolicy> compute,
                               double mean_bandwidth, double log_spread,
                               std::uint64_t seed)
    : compute_(std::move(compute)),
      mean_(mean_bandwidth),
      spread_(log_spread),
      seed_(seed) {
  GOLDFISH_CHECK(compute_ != nullptr, "bandwidth clock needs a compute clock");
  GOLDFISH_CHECK(mean_bandwidth > 0.0,
                 "bandwidth clock mean bandwidth must be positive");
  GOLDFISH_CHECK(log_spread >= 0.0, "bandwidth clock log spread must be >= 0");
}

void BandwidthClock::set_upload_bytes(std::size_t bytes) {
  bytes_ = bytes;
  compute_->set_upload_bytes(bytes);
}

double BandwidthClock::bandwidth(std::size_t client) const {
  // One draw per client, from its own collision-free stream: the link speed
  // is a durable property of the device, not of the task.
  Rng rng(mix_seed(seed_ ^ kBandwidthSalt, client, 0));
  return mean_ * std::exp(spread_ * double(rng.normal()));
}

double BandwidthClock::duration(std::size_t client, long index) {
  return compute_->duration(client, index) +
         double(bytes_) / bandwidth(client);
}

// -- wire policies ----------------------------------------------------------

void DenseWire::encode(const std::vector<Tensor>& params,
                       const std::vector<Tensor>*, std::string& out) const {
  serialize_tensors(params, out);
}

std::vector<Tensor> DenseWire::decode(const char* data, std::size_t size,
                                      const std::vector<Tensor>*) const {
  return deserialize_tensors(data, size);
}

std::size_t DenseWire::encoded_bytes(const std::vector<Tensor>& like) const {
  return serialized_bytes(like);
}

void QuantizedWire::encode(const std::vector<Tensor>& params,
                           const std::vector<Tensor>*,
                           std::string& out) const {
  serialize_quantized(params, out);
}

std::vector<Tensor> QuantizedWire::decode(const char* data, std::size_t size,
                                          const std::vector<Tensor>*) const {
  return deserialize_quantized(data, size);
}

std::size_t QuantizedWire::encoded_bytes(
    const std::vector<Tensor>& like) const {
  return quantized_bytes(like);
}

TopKWire::TopKWire(double fraction) : fraction_(fraction) {
  GOLDFISH_CHECK(fraction > 0.0 && fraction <= 1.0,
                 "top-k fraction must be in (0, 1]");
}

void TopKWire::encode(const std::vector<Tensor>& params,
                      const std::vector<Tensor>*, std::string& out) const {
  serialize_topk(params, fraction_, out);
}

std::vector<Tensor> TopKWire::decode(const char* data, std::size_t size,
                                     const std::vector<Tensor>*) const {
  return deserialize_topk(data, size);
}

std::size_t TopKWire::encoded_bytes(const std::vector<Tensor>& like) const {
  return topk_bytes(like, fraction_);
}

namespace {

/// The 4-byte upload-level prefix of a delta record ("GFD1"): what follows
/// is the inner encoder's complete upload of (params − reference).
constexpr char kDeltaMagic[4] = {'G', 'F', 'D', '1'};

}  // namespace

DeltaWire::DeltaWire(std::unique_ptr<WirePolicy> inner)
    : inner_(std::move(inner)) {
  if (!inner_) inner_ = std::make_unique<DenseWire>();
  GOLDFISH_CHECK(!inner_->needs_reference(),
                 "delta wires do not nest: the inner encoder must be "
                 "reference-free");
}

void DeltaWire::encode(const std::vector<Tensor>& params,
                       const std::vector<Tensor>* reference,
                       std::string& out) const {
  // Delta scratch, reused across calls (one per worker thread; its float
  // storage recycles through the buffer pool inside an engine run).
  static thread_local std::vector<Tensor> delta;
  delta.resize(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& p = params[i];
    delta[i].resize_uninit(p.shape());
    float* d = delta[i].data();
    if (reference != nullptr) {
      GOLDFISH_CHECK(i < reference->size() && (*reference)[i].same_shape(p),
                     "delta reference shape mismatch");
      const float* r = (*reference)[i].data();
      for (std::size_t j = 0; j < p.numel(); ++j) d[j] = p.data()[j] - r[j];
    } else {
      std::memcpy(d, p.data(), p.numel() * sizeof(float));
    }
  }
  inner_->encode(delta, nullptr, out);
  out.insert(0, kDeltaMagic, sizeof(kDeltaMagic));
}

std::vector<Tensor> DeltaWire::decode(const char* data, std::size_t size,
                                      const std::vector<Tensor>* reference)
    const {
  GOLDFISH_CHECK(size >= sizeof(kDeltaMagic) &&
                     std::memcmp(data, kDeltaMagic, sizeof(kDeltaMagic)) == 0,
                 "bad delta record magic");
  std::vector<Tensor> out = inner_->decode(data + sizeof(kDeltaMagic),
                                           size - sizeof(kDeltaMagic), nullptr);
  if (reference != nullptr) {
    GOLDFISH_CHECK(reference->size() == out.size(),
                   "delta reference tensor count mismatch");
    for (std::size_t i = 0; i < out.size(); ++i) {
      GOLDFISH_CHECK((*reference)[i].same_shape(out[i]),
                     "delta reference shape mismatch");
      out[i] += (*reference)[i];
    }
  }
  return out;
}

std::size_t DeltaWire::encoded_bytes(const std::vector<Tensor>& like) const {
  return sizeof(kDeltaMagic) + inner_->encoded_bytes(like);
}

}  // namespace goldfish::fl

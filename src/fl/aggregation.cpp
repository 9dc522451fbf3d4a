#include "fl/aggregation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "tensor/annotations.h"
#include "tensor/check.h"

namespace goldfish::fl {

namespace {

/// Per-update multiplier with the all-ones null convention.
inline float mult_at(const std::vector<float>* multipliers, std::size_t i) {
  return multipliers ? (*multipliers)[i] : 1.0f;
}

void check_multipliers(const std::vector<ClientUpdate>& updates,
                       const std::vector<float>* multipliers) {
  GOLDFISH_CHECK(!updates.empty(), "no updates to aggregate");
  GOLDFISH_CHECK(!multipliers || multipliers->size() == updates.size(),
                 "multiplier count mismatch");
}

/// True when every coordinate of the snapshot is finite. Counting (not
/// and-ing a bool, not returning early) keeps the loop vectorized.
bool all_finite(const std::vector<Tensor>& params) {
  std::size_t non_finite = 0;
  for (const Tensor& t : params) {
    const float* p = t.data();
    for (std::size_t j = 0; j < t.numel(); ++j)
      non_finite += !std::isfinite(p[j]);
  }
  return non_finite == 0;
}

/// The shared weighted fold under normalized coefficients, over the updates
/// flagged `finite`. A non-finite upload is left out, not given coefficient
/// 0: 0·NaN is NaN.
std::vector<Tensor> fold_finite(const std::vector<ClientUpdate>& updates,
                                const std::vector<float>& coeffs,
                                const std::vector<bool>& finite) {
  std::vector<const std::vector<Tensor>*> snaps;
  std::vector<float> c;
  for (std::size_t i = 0; i < updates.size(); ++i)
    if (finite[i]) {
      snaps.push_back(&updates[i].params);
      c.push_back(coeffs[i]);
    }
  return nn::weighted_fold(snaps, c);
}

/// One coordinate's (value, update index) entry. The index breaks value
/// ties deterministically and carries the update's multiplier through the
/// sort.
using Entry = std::pair<float, std::size_t>;

/// The sweep order: ascending value, NaN ranked above +∞, ties broken by
/// update index. On NaN-free columns this is exactly std::pair's order.
bool ranks_below(const Entry& a, const Entry& b) {
  if (a.first < b.first) return true;
  if (b.first < a.first) return false;
  const bool a_nan = std::isnan(a.first), b_nan = std::isnan(b.first);
  if (a_nan != b_nan) return b_nan;
  return a.second < b.second;
}

/// The coordinate sweep shared by trimmed mean and median: for every scalar
/// coordinate, gather the updates' (value, index) column, sort it, and write
/// reduce(column).
template <class Reduce>
std::vector<Tensor> coordinate_sweep(const std::vector<ClientUpdate>& updates,
                                     Reduce reduce) {
  const std::size_t n = updates.size();
  const std::vector<Tensor>& like = updates[0].params;
  for (const ClientUpdate& u : updates)
    GOLDFISH_CHECK(u.params.size() == like.size(),
                   "snapshot layout mismatch");
  std::vector<Tensor> out;
  out.reserve(like.size());
  std::vector<Entry> col(n);
  for (std::size_t t = 0; t < like.size(); ++t) {
    for (const ClientUpdate& u : updates)
      GOLDFISH_CHECK(u.params[t].same_shape(like[t]),
                     "snapshot shape mismatch");
    Tensor acc = Tensor::uninit(like[t].shape());
    float* dst = acc.data();
    for (std::size_t j = 0; j < like[t].numel(); ++j) {
      for (std::size_t i = 0; i < n; ++i) col[i] = {updates[i].params[t][j], i};
      std::sort(col.begin(), col.end(), ranks_below);
      dst[j] = reduce(col);
    }
    out.push_back(std::move(acc));
  }
  return out;
}

}  // namespace

std::vector<float> Aggregator::weights(
    const std::vector<ClientUpdate>&) const {
  throw std::logic_error("fl::Aggregator: '" + name() +
                         "' has no per-update scalar weights (coordinate-"
                         "wise robust strategies override aggregate())");
}

GOLDFISH_HOT std::vector<Tensor> Aggregator::aggregate(
    const std::vector<ClientUpdate>& updates,
    const std::vector<float>* multipliers) const {
  check_multipliers(updates, multipliers);
  // Snapshots are borrowed, not copied: the historical per-round clone of
  // every client's full parameter set is gone.
  std::vector<const std::vector<Tensor>*> snaps;
  // goldfish-lint: allow(ALLOC002) bounded borrow-pointer vector, one
  // reserve per aggregate — no client parameters are copied
  snaps.reserve(updates.size());
  // goldfish-lint: allow(ALLOC002) within the capacity reserved above
  for (const ClientUpdate& u : updates) snaps.push_back(&u.params);
  std::vector<float> w = weights(updates);
  if (multipliers)
    for (std::size_t i = 0; i < w.size(); ++i) w[i] *= (*multipliers)[i];
  return nn::weighted_average(snaps, std::move(w));
}

std::vector<float> FedAvgAggregator::weights(
    const std::vector<ClientUpdate>& updates) const {
  std::vector<float> w;
  w.reserve(updates.size());
  for (const ClientUpdate& u : updates) {
    GOLDFISH_CHECK(u.dataset_size > 0, "client with empty dataset");
    w.push_back(static_cast<float>(u.dataset_size));
  }
  return w;
}

std::vector<float> UniformAggregator::weights(
    const std::vector<ClientUpdate>& updates) const {
  return std::vector<float>(updates.size(), 1.0f);
}

std::vector<float> AdaptiveAggregator::weights_from_mse(
    const std::vector<double>& mses) {
  GOLDFISH_CHECK(!mses.empty(), "no MSEs");
  double mean = 0.0;
  for (double m : mses) {
    GOLDFISH_CHECK(m >= 0.0, "negative MSE");
    mean += m;
  }
  mean /= double(mses.size());
  // Every client fits the server test set perfectly (MSE 0 across the
  // board, e.g. on trivially separable synthetic data): Eq. 12 is undefined
  // (0/0), and no client carries more information than another — uniform
  // weights are the correct degenerate case, not a crash.
  if (mean == 0.0) return std::vector<float>(mses.size(), 1.0f);
  std::vector<float> w(mses.size());
  for (std::size_t i = 0; i < mses.size(); ++i)
    w[i] = static_cast<float>(std::exp(-(mses[i] - mean) / mean));
  return w;
}

std::vector<float> AdaptiveAggregator::weights(
    const std::vector<ClientUpdate>& updates) const {
  std::vector<double> mses;
  mses.reserve(updates.size());
  for (const ClientUpdate& u : updates) mses.push_back(u.mse);
  return weights_from_mse(mses);
}

// -- Krum / multi-Krum ------------------------------------------------------

KrumAggregator::KrumAggregator(long f, long m) : f_(f), m_(m) {
  GOLDFISH_CHECK(f_ >= 0, "krum f must be >= 0");
  GOLDFISH_CHECK(m_ >= 1, "krum selection size m must be >= 1");
}

std::vector<double> KrumAggregator::scores(
    const std::vector<ClientUpdate>& updates, long f) {
  const long n = static_cast<long>(updates.size());
  GOLDFISH_CHECK(n > f + 2,
                 "krum needs n >= f+3 updates per aggregation (scoring sums "
                 "each update's n-f-2 nearest neighbours)");
  // Symmetric pairwise squared distances, computed once.
  std::vector<float> dist(static_cast<std::size_t>(n * n), 0.0f);
  for (long i = 0; i < n; ++i)
    for (long j = i + 1; j < n; ++j) {
      float d = nn::snapshot_distance_sq(
          updates[static_cast<std::size_t>(i)].params,
          updates[static_cast<std::size_t>(j)].params);
      // A non-finite upload is infinitely far from everyone (and NaN would
      // break the sort's ordering).
      if (!std::isfinite(d)) d = std::numeric_limits<float>::infinity();
      dist[static_cast<std::size_t>(i * n + j)] = d;
      dist[static_cast<std::size_t>(j * n + i)] = d;
    }
  const long keep = n - f - 2;
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  std::vector<float> row(static_cast<std::size_t>(n - 1));
  for (long i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (long j = 0; j < n; ++j)
      if (j != i) row[r++] = dist[static_cast<std::size_t>(i * n + j)];
    // Ascending partial order, summed smallest-first so the score is a
    // deterministic function of the distance multiset.
    std::sort(row.begin(), row.end());
    double s = 0.0;
    for (long k = 0; k < keep; ++k) s += double(row[static_cast<std::size_t>(k)]);
    out[static_cast<std::size_t>(i)] = s;
  }
  return out;
}

std::vector<Tensor> KrumAggregator::aggregate(
    const std::vector<ClientUpdate>& updates,
    const std::vector<float>* multipliers) const {
  check_multipliers(updates, multipliers);
  const std::vector<double> sc = scores(updates, f_);
  const std::size_t n = updates.size();
  // m lowest scores, ties broken by arrival index (the sort is over
  // (score, index) pairs, so selection is fully deterministic).
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (sc[a] != sc[b]) return sc[a] < sc[b];
    return a < b;
  });
  const std::size_t m = std::min(static_cast<std::size_t>(m_), n);
  // Selection is a 0/1 mask (x multipliers) over the shared fold. A
  // non-finite update scores +∞, and if selected anyway it gets weight 0
  // and no part in the fold.
  std::vector<bool> finite(n);
  for (std::size_t i = 0; i < n; ++i)
    finite[i] = all_finite(updates[i].params);
  std::vector<float> w(n, 0.0f);
  for (std::size_t k = 0; k < m; ++k)
    if (finite[order[k]]) w[order[k]] = mult_at(multipliers, order[k]);
  nn::normalize_weights(w);
  return fold_finite(updates, w, finite);
}

// -- coordinate-wise trimmed mean and median --------------------------------

TrimmedMeanAggregator::TrimmedMeanAggregator(double fraction)
    : fraction_(fraction) {
  GOLDFISH_CHECK(fraction_ >= 0.0 && fraction_ < 0.5,
                 "trim fraction must be in [0, 0.5)");
}

std::vector<Tensor> TrimmedMeanAggregator::aggregate(
    const std::vector<ClientUpdate>& updates,
    const std::vector<float>* multipliers) const {
  check_multipliers(updates, multipliers);
  const std::size_t n = updates.size();
  const std::size_t k =
      static_cast<std::size_t>(fraction_ * double(n));  // per side
  GOLDFISH_CHECK(n > 2 * k, "trimmed-mean trimmed every update away");
  return coordinate_sweep(updates, [&](const std::vector<Entry>& col) {
    double num = 0.0, den = 0.0;
    for (std::size_t i = k; i < n - k; ++i) {
      const double w = double(mult_at(multipliers, col[i].second));
      num += w * double(col[i].first);
      den += w;
    }
    GOLDFISH_CHECK(den > 0.0, "trimmed-mean weights sum to zero");
    return static_cast<float>(num / den);
  });
}

std::vector<Tensor> MedianAggregator::aggregate(
    const std::vector<ClientUpdate>& updates,
    const std::vector<float>* multipliers) const {
  check_multipliers(updates, multipliers);
  // An order statistic is scale-free; decay multipliers are ignored.
  const std::size_t n = updates.size();
  return coordinate_sweep(updates, [n](const std::vector<Entry>& col) {
    return (n % 2 == 1) ? col[n / 2].first
                        : 0.5f * (col[n / 2 - 1].first + col[n / 2].first);
  });
}

// -- norm clipping ----------------------------------------------------------

NormClipAggregator::NormClipAggregator(double clip) : clip_(clip) {
  GOLDFISH_CHECK(clip_ > 0.0, "clip norm must be positive");
}

double NormClipAggregator::snapshot_norm(const std::vector<Tensor>& params) {
  double acc = 0.0;
  for (const Tensor& t : params)
    for (std::size_t j = 0; j < t.numel(); ++j)
      acc += double(t[j]) * double(t[j]);
  return std::sqrt(acc);
}

std::vector<Tensor> NormClipAggregator::aggregate(
    const std::vector<ClientUpdate>& updates,
    const std::vector<float>* multipliers) const {
  check_multipliers(updates, multipliers);
  const std::size_t n = updates.size();
  // Clip factors scale each normalized multiplier afterwards — they
  // deliberately stay out of the normalization: an oversized update must
  // contribute less total mass, not get renormalized back up. With every
  // factor at 1 this is the uniform average, bit for bit.
  std::vector<float> eff =
      multipliers ? *multipliers : std::vector<float>(n, 1.0f);
  nn::normalize_weights(eff);
  // The double-accumulated norm of finite floats cannot overflow, so a
  // non-finite norm means a non-finite upload: it keeps its share of the
  // normalization (the C/‖ω‖ → 0 limit) and takes no part in the fold.
  std::vector<bool> finite(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double norm = snapshot_norm(updates[i].params);
    finite[i] = std::isfinite(norm);
    if (norm > clip_) eff[i] *= static_cast<float>(clip_ / norm);
  }
  return fold_finite(updates, eff, finite);
}

// -- staleness discounting --------------------------------------------------

StalenessAggregator::StalenessAggregator(std::unique_ptr<Aggregator> base,
                                         double alpha)
    : base_(std::move(base)), alpha_(alpha) {
  GOLDFISH_CHECK(base_ != nullptr, "staleness wrapper needs a base");
  GOLDFISH_CHECK(alpha_ >= 0.0, "negative staleness exponent");
}

float StalenessAggregator::decay(long staleness, double alpha) {
  GOLDFISH_CHECK(staleness >= 0, "negative staleness");
  // (1+s)^−α; s = 0 (or α = 0) gives exactly 1.0, so fresh updates — and
  // the whole synchronous path — are weighted identically to the base.
  return static_cast<float>(std::pow(1.0 + double(staleness), -alpha));
}

std::vector<float> StalenessAggregator::weights(
    const std::vector<ClientUpdate>& updates) const {
  std::vector<float> w = base_->weights(updates);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] *= decay(updates[i].staleness, alpha_);
  return w;
}

std::vector<Tensor> StalenessAggregator::aggregate(
    const std::vector<ClientUpdate>& updates,
    const std::vector<float>* multipliers) const {
  check_multipliers(updates, multipliers);
  // Fold the decay into the multiplier stream and let the base do the rest:
  // weight-based bases multiply it into their weights, robust bases apply
  // it to whatever survives their filtering.
  std::vector<float> d(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i)
    d[i] = decay(updates[i].staleness, alpha_) * mult_at(multipliers, i);
  return base_->aggregate(updates, &d);
}

std::unique_ptr<Aggregator> make_aggregator(const std::string& name,
                                            const RobustConfig& robust) {
  if (name == "fedavg") return std::make_unique<FedAvgAggregator>();
  if (name == "uniform") return std::make_unique<UniformAggregator>();
  if (name == "adaptive") return std::make_unique<AdaptiveAggregator>();
  if (name == "krum")
    return std::make_unique<KrumAggregator>(robust.krum_f, 1);
  if (name == "multi-krum")
    return std::make_unique<KrumAggregator>(robust.krum_f, robust.krum_m);
  if (name == "trimmed-mean")
    return std::make_unique<TrimmedMeanAggregator>(robust.trim_fraction);
  if (name == "median") return std::make_unique<MedianAggregator>();
  if (name == "norm-clip")
    return std::make_unique<NormClipAggregator>(robust.clip_norm);
  GOLDFISH_CHECK(false, "unknown aggregator: " + name);
  return nullptr;  // unreachable
}

}  // namespace goldfish::fl

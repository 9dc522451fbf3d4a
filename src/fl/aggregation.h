// Server-side model aggregation: FedAvg (McMahan et al.), the paper's
// adaptive-weight extension (Eq. 12–13), FedBuff-style staleness
// discounting for the buffered-asynchronous round loop, and the
// Byzantine-robust family (Krum / multi-Krum, coordinate-wise trimmed mean
// and median, norm clipping) that survives poisoned uploads — see
// docs/threat-model.md for which strategy defeats which attack.
#pragma once

#include <memory>

#include "data/dataset.h"
#include "nn/model.h"

namespace goldfish::fl {

/// One client's upload: a parameter snapshot plus its dataset size.
struct ClientUpdate {
  std::vector<Tensor> params;
  long dataset_size = 0;
  /// MSE of the client model on the server's test set; filled by the server
  /// before adaptive aggregation (Eq. 12 is computed "at the central
  /// server").
  double mse = 0.0;
  /// Server-version lag at aggregation time (asynchronous rounds): the
  /// number of aggregations that fired between the model this update was
  /// trained from and the one consuming it. Always 0 in synchronous rounds.
  long staleness = 0;
};

/// Knobs for the Byzantine-robust strategies; inert for the weight-based
/// ones. Lives here (not engine.h) so aggregators can be built standalone.
struct RobustConfig {
  /// Assumed number of Byzantine updates f (krum / multi-krum). Scoring
  /// sums each update's n−f−2 smallest squared distances to the others, so
  /// an aggregation needs n ≥ f+3 buffered updates.
  long krum_f = 1;
  /// Multi-krum selection size m: the m best-scored updates are averaged
  /// ("krum" pins m = 1; "multi-krum" reads this).
  long krum_m = 2;
  /// Per-side trim fraction β ∈ [0, 0.5): coordinate-wise, the ⌊β·n⌋
  /// largest and smallest values are dropped before averaging.
  double trim_fraction = 0.2;
  /// L2 clip threshold (> 0): each update is scaled by min(1, C/‖ω‖)
  /// before the mean, bounding any single client's pull on the aggregate.
  double clip_norm = 10.0;
};

/// Aggregation strategy interface. Weight-based strategies supply per-update
/// *weights* and share one copy-free averaging path (update snapshots are
/// borrowed by nn::weighted_average, never cloned — zero steady-state
/// allocations). Robust strategies that are not expressible as per-update
/// scalar weights (trimmed mean, median, norm clipping) override the
/// aggregate() seam itself; krum and norm-clip still end in the same
/// nn::weighted_fold, trimmed mean and median share one coordinate sweep.
class Aggregator {
 public:
  /// What the strategy needs from (or guarantees to) the server — one
  /// struct instead of one virtual per flag.
  struct Capabilities {
    /// Reads ClientUpdate::mse: the server must score every update on its
    /// test set before aggregating.
    bool needs_mse = false;
    /// Reads ClientUpdate::staleness (the StalenessAggregator wrapper).
    bool needs_staleness = false;
    /// Byzantine-robust: bounds the influence of a minority of arbitrarily
    /// poisoned updates (see docs/threat-model.md for the exact guarantee).
    bool robust = false;
  };

  virtual ~Aggregator() = default;

  virtual Capabilities capabilities() const { return {}; }

  /// Per-update base weights (need not be normalized) — the weight-based
  /// fast path. Throws on inputs the strategy cannot weight (e.g. FedAvg
  /// with an empty client dataset); robust strategies without a scalar-
  /// weight form throw std::logic_error.
  virtual std::vector<float> weights(
      const std::vector<ClientUpdate>& updates) const;

  /// Aggregate the updates' parameters.
  std::vector<Tensor> aggregate(const std::vector<ClientUpdate>& updates) const {
    return aggregate(updates, nullptr);
  }

  /// The override seam. `multipliers` are per-update scalar factors folded
  /// in by wrapper strategies (staleness decay); null means all-ones. The
  /// default implementation is the shared borrowed-view weighted average
  /// under weights() — copy-free, zero steady-state allocations.
  virtual std::vector<Tensor> aggregate(
      const std::vector<ClientUpdate>& updates,
      const std::vector<float>* multipliers) const;

  virtual std::string name() const = 0;
};

/// FedAvg: weights proportional to |D_c|.
class FedAvgAggregator final : public Aggregator {
 public:
  std::vector<float> weights(
      const std::vector<ClientUpdate>& updates) const override;
  std::string name() const override { return "fedavg"; }
};

/// Uniform (equal-weight) parameter averaging: ω = (1/C)·Σ ω_c. This is the
/// naive FedAvg variant many FL implementations ship (and the behaviour the
/// paper's Fig. 8/9 comparison exhibits); kept distinct from the
/// size-weighted FedAvgAggregator above.
class UniformAggregator final : public Aggregator {
 public:
  std::vector<float> weights(
      const std::vector<ClientUpdate>& updates) const override;
  std::string name() const override { return "uniform"; }
};

/// Goldfish adaptive weights (Eq. 12–13):
///   W_c = exp(−(me_c − mē)/mē),  ω = (1/θ)·Σ W_c·ω_c, θ = Σ W_c.
/// Lower test MSE ⇒ exponentially larger weight.
class AdaptiveAggregator final : public Aggregator {
 public:
  Capabilities capabilities() const override { return {.needs_mse = true}; }
  std::vector<float> weights(
      const std::vector<ClientUpdate>& updates) const override;
  std::string name() const override { return "adaptive"; }

  /// The raw Eq. 12 weights (exposed for tests/benches). All-zero MSEs
  /// (every client fits the test set perfectly — common on tiny synthetic
  /// sets) fall back to uniform weights instead of aborting.
  static std::vector<float> weights_from_mse(const std::vector<double>& mses);
};

// -- Byzantine-robust strategies -------------------------------------------

/// Krum / multi-Krum (Blanchard et al., NeurIPS 2017). Each update is
/// scored by the sum of its n−f−2 smallest squared L2 distances to the
/// other updates; the m lowest-scoring updates are selected (ties broken by
/// arrival index) and averaged — a geometric-majority vote that discards
/// outliers no matter how extreme their values. Needs n ≥ f+3 updates per
/// aggregation. Selection reduces to 0/1 weights, so the averaging itself
/// rides the shared borrowed-view fold. A non-finite distance scores as +∞,
/// and an update with a non-finite coordinate takes no part in the fold.
class KrumAggregator final : public Aggregator {
 public:
  using Aggregator::aggregate;
  /// `f` ≥ 0 assumed Byzantine updates; `m` ≥ 1 selected updates (m = 1 is
  /// classic Krum; m > 1 is multi-Krum, clamped to n at aggregate time).
  KrumAggregator(long f, long m = 1);

  Capabilities capabilities() const override { return {.robust = true}; }
  std::vector<Tensor> aggregate(
      const std::vector<ClientUpdate>& updates,
      const std::vector<float>* multipliers) const override;
  std::string name() const override { return m_ == 1 ? "krum" : "multi-krum"; }

  /// The Krum score of every update (exposed for tests): score_i = Σ of the
  /// n−f−2 smallest squared distances from update i to the others.
  static std::vector<double> scores(const std::vector<ClientUpdate>& updates,
                                    long f);

  long f() const { return f_; }
  long m() const { return m_; }

 private:
  long f_;
  long m_;
};

/// Coordinate-wise trimmed mean (Yin et al., ICML 2018): per scalar
/// coordinate, drop the ⌊β·n⌋ largest and ⌊β·n⌋ smallest values and average
/// the rest. A poisoned update can perturb a coordinate only while staying
/// inside the honest values' range. Multipliers (staleness decay) weight
/// the surviving values per coordinate, normalized among survivors. NaN
/// sorts above +∞, so a non-finite value is trimmed like any outlier.
class TrimmedMeanAggregator final : public Aggregator {
 public:
  using Aggregator::aggregate;
  /// `fraction` = β ∈ [0, 0.5) per side; needs n > 2·⌊β·n⌋ updates.
  explicit TrimmedMeanAggregator(double fraction);

  Capabilities capabilities() const override { return {.robust = true}; }
  std::vector<Tensor> aggregate(
      const std::vector<ClientUpdate>& updates,
      const std::vector<float>* multipliers) const override;
  std::string name() const override { return "trimmed-mean"; }

  double fraction() const { return fraction_; }

 private:
  double fraction_;
};

/// Coordinate-wise median (Yin et al., ICML 2018): the maximally trimmed
/// mean. Even counts average the two central values of the same sorted
/// column trimmed mean uses (NaN above +∞, ties by update index). An order
/// statistic is scale-free, so per-update scalar multipliers (staleness
/// decay) do not apply and are ignored.
class MedianAggregator final : public Aggregator {
 public:
  using Aggregator::aggregate;
  Capabilities capabilities() const override { return {.robust = true}; }
  std::vector<Tensor> aggregate(
      const std::vector<ClientUpdate>& updates,
      const std::vector<float>* multipliers) const override;
  std::string name() const override { return "median"; }
};

/// Norm clipping (the standard backdoor mitigation, cf. Sun et al. 2019):
/// each update is scaled by min(1, C/‖ω_i‖) — full-snapshot L2 norm — and
/// the clipped updates are averaged under the multiplier weights. Clipping
/// is absolute, not relative: the clip factors deliberately do NOT enter
/// the normalization, so an oversized update contributes *less* total mass,
/// bounding any single client's pull at C/n. An update with a non-finite
/// coordinate (infinite norm, clip factor → 0) takes no part in the fold.
class NormClipAggregator final : public Aggregator {
 public:
  using Aggregator::aggregate;
  /// `clip` > 0: the L2 threshold C.
  explicit NormClipAggregator(double clip);

  Capabilities capabilities() const override { return {.robust = true}; }
  std::vector<Tensor> aggregate(
      const std::vector<ClientUpdate>& updates,
      const std::vector<float>* multipliers) const override;
  std::string name() const override { return "norm-clip"; }

  /// ‖params‖₂ across the whole snapshot (exposed for tests).
  static double snapshot_norm(const std::vector<Tensor>& params);

  double clip() const { return clip_; }

 private:
  double clip_;
};

/// FedBuff-style staleness discounting layered over any base strategy: each
/// update's contribution is multiplied by the polynomial decay (1+s)^−α,
/// where s is ClientUpdate::staleness. α = 0 reproduces the base aggregator
/// exactly (decay ≡ 1). Composes with every strategy above — weight-based
/// bases fold the decay into their weights; robust bases receive it through
/// the aggregate() multiplier seam (the median, an order statistic, ignores
/// it by design).
class StalenessAggregator final : public Aggregator {
 public:
  using Aggregator::aggregate;
  StalenessAggregator(std::unique_ptr<Aggregator> base, double alpha);

  Capabilities capabilities() const override {
    Capabilities caps = base_->capabilities();
    caps.needs_staleness = true;
    return caps;
  }
  std::vector<float> weights(
      const std::vector<ClientUpdate>& updates) const override;
  std::vector<Tensor> aggregate(
      const std::vector<ClientUpdate>& updates,
      const std::vector<float>* multipliers) const override;
  std::string name() const override { return base_->name() + "+staleness"; }

  /// The (1+s)^−α decay factor itself (exposed for tests).
  static float decay(long staleness, double alpha);

 private:
  std::unique_ptr<Aggregator> base_;
  double alpha_;
};

/// Build a strategy by name: "fedavg" | "uniform" | "adaptive" | "krum" |
/// "multi-krum" | "trimmed-mean" | "median" | "norm-clip". The robust
/// strategies read their knobs from `robust`. Any other name throws
/// CheckError.
std::unique_ptr<Aggregator> make_aggregator(const std::string& name,
                                            const RobustConfig& robust = {});

}  // namespace goldfish::fl

// Model evaluation: accuracy, backdoor attack success rate, MSE — the
// quantities every table in the paper reports.
#pragma once

#include "data/dataset.h"
#include "nn/model.h"

namespace goldfish::metrics {

/// Number of rows of `logits` whose argmax equals labels[i]. Strict '>'
/// keeps the first maximum, so ties resolve identically everywhere accuracy
/// is counted (the free functions, BatchedEvaluator::score and the engine's
/// stacked scoring pass).
long correct_predictions(const Tensor& logits, const long* labels, long rows);

/// total += Σ over rows and classes of (probs[i,j] − onehot(labels[i]))²,
/// accumulated in row-major order (the Eq. 12 inner sum; the fixed order
/// keeps MSE bit-identical across evaluation chunkings).
void accumulate_squared_error(const Tensor& probs, const long* labels,
                              long rows, double& total);

/// Rows per batch of the free evaluation functions below.
constexpr long kEvalBatch = 256;

/// Classification accuracy (%) of a model over a dataset, evaluated in
/// kEvalBatch-row batches (eval mode, running batch-norm stats).
double accuracy(nn::Model& model, const data::Dataset& ds);

/// Backdoor attack success rate (%): fraction of a trigger-probe set
/// classified as the attacker's target label. The probe set already carries
/// the target label on every row, so this is accuracy on the probe.
double attack_success_rate(nn::Model& model, const data::Dataset& probe);

/// Mean squared error between the model's softmax outputs and one-hot
/// labels — the "me" quantity of the adaptive-weight mechanism (Eq. 12).
double mse(nn::Model& model, const data::Dataset& ds);

/// Mean softmax output of a model over a dataset (one probability vector),
/// the distribution compared by JSD/L2 in Tables VII–IX.
std::vector<double> mean_prediction(nn::Model& model, const data::Dataset& ds);

/// Per-sample max-confidence values (input to the t-test of Tables VII–IX).
std::vector<double> confidence_series(nn::Model& model,
                                      const data::Dataset& ds);

/// Accuracy (%) and MSE of one model, from the same logits.
struct Score {
  double accuracy = 0.0;
  double mse = 0.0;
};

/// Batched evaluation over one fixed dataset: the server-side evaluator the
/// FL round loop runs every pooled client model (and the global model)
/// through. The dataset is "stacked" once — its feature matrix is already
/// contiguous, so a chunk covering the whole set goes through the model as
/// a single batch with one fused GEMM per layer and zero copies; larger
/// sets run in contiguous batch_view slices (no index-vector gather).
/// chunk_rows == 0 picks an automatic bound (~2^21 input floats per chunk,
/// whole-set below that). Per-row results are bit-identical for any
/// chunking: the GEMM backbone reduces k in a fixed order per output
/// element regardless of the batch dimension.
class BatchedEvaluator {
 public:
  explicit BatchedEvaluator(const data::Dataset& ds, long chunk_rows = 0);

  /// Accuracy and, when `with_mse`, MSE from one forward pass per chunk.
  Score score(nn::Model& model, bool with_mse) const;
  double accuracy(nn::Model& model) const;

  const data::Dataset& dataset() const { return *ds_; }

 private:
  const data::Dataset* ds_;
  long chunk_;  // rows per forward
};

}  // namespace goldfish::metrics

#include "metrics/evaluation.h"

#include <algorithm>

#include "tensor/check.h"
#include "tensor/ops.h"

namespace goldfish::metrics {

namespace {

/// fn(logits, labels, rows) over the dataset's row walk, `chunk` rows per
/// eval-mode forward.
template <typename Fn>
void for_logits(nn::Model& model, const data::Dataset& ds, long chunk,
                Fn&& fn) {
  GOLDFISH_CHECK(!ds.empty(), "evaluating on an empty dataset");
  ds.for_each_chunk(chunk, [&](const Tensor& x, const long* y, long rows) {
    fn(model.forward(x, /*train=*/false), y, rows);
  });
}

}  // namespace

long correct_predictions(const Tensor& logits, const long* labels,
                         long rows) {
  const long c = logits.dim(1);
  const float* row = logits.data();
  long correct = 0;
  for (long i = 0; i < rows; ++i, row += c) {
    long best = 0;
    float bv = row[0];
    for (long j = 1; j < c; ++j) {
      if (row[j] > bv) {
        bv = row[j];
        best = j;
      }
    }
    if (best == labels[i]) ++correct;
  }
  return correct;
}

void accumulate_squared_error(const Tensor& probs, const long* labels,
                              long rows, double& total) {
  const long c = probs.dim(1);
  const float* row = probs.data();
  for (long i = 0; i < rows; ++i, row += c) {
    const long yi = labels[i];
    for (long j = 0; j < c; ++j) {
      const double target = (j == yi) ? 1.0 : 0.0;
      const double d = double(row[j]) - target;
      total += d * d;
    }
  }
}

double accuracy(nn::Model& model, const data::Dataset& ds) {
  long correct = 0;
  for_logits(model, ds, kEvalBatch,
             [&](const Tensor& logits, const long* y, long rows) {
               correct += correct_predictions(logits, y, rows);
             });
  return 100.0 * double(correct) / double(ds.size());
}

double attack_success_rate(nn::Model& model, const data::Dataset& probe) {
  if (probe.empty()) return 0.0;
  return accuracy(model, probe);
}

double mse(nn::Model& model, const data::Dataset& ds) {
  double total = 0.0;
  for_logits(model, ds, kEvalBatch,
             [&](const Tensor& logits, const long* y, long rows) {
               accumulate_squared_error(softmax_rows(logits), y, rows, total);
             });
  return total / (double(ds.size()) * double(ds.num_classes));
}

std::vector<double> mean_prediction(nn::Model& model,
                                    const data::Dataset& ds) {
  std::vector<double> mean(static_cast<std::size_t>(ds.num_classes), 0.0);
  for_logits(model, ds, kEvalBatch,
             [&](const Tensor& logits, const long*, long rows) {
               const Tensor p = softmax_rows(logits);
               for (long i = 0; i < rows; ++i)
                 for (long j = 0; j < p.dim(1); ++j)
                   mean[static_cast<std::size_t>(j)] += p.at(i, j);
             });
  for (double& v : mean) v /= double(ds.size());
  return mean;
}

std::vector<double> confidence_series(nn::Model& model,
                                      const data::Dataset& ds) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(ds.size()));
  for_logits(model, ds, kEvalBatch,
             [&](const Tensor& logits, const long*, long rows) {
               const Tensor p = softmax_rows(logits);
               for (long i = 0; i < rows; ++i) {
                 float mx = 0.0f;
                 for (long j = 0; j < p.dim(1); ++j)
                   mx = std::max(mx, p.at(i, j));
                 out.push_back(mx);
               }
             });
  return out;
}

BatchedEvaluator::BatchedEvaluator(const data::Dataset& ds, long chunk_rows)
    : ds_(&ds), chunk_(chunk_rows) {
  GOLDFISH_CHECK(!ds.empty(), "evaluator needs a non-empty dataset");
  GOLDFISH_CHECK(chunk_rows >= 0, "negative evaluation chunk");
  // chunk_rows == 0 means "as large as is sane": bound the input block at
  // ~2^21 floats so activation slots (a small multiple of the input for the
  // paper's models) stay modest even with several pooled models evaluating
  // concurrently. Results are chunking-invariant, so this is purely a
  // memory knob.
  if (chunk_ == 0)
    chunk_ = ds.size() * ds.features.dim(1) > (1L << 21)
                 ? std::max(256L, (1L << 21) / ds.features.dim(1))
                 : ds.size();
}

Score BatchedEvaluator::score(nn::Model& model, bool with_mse) const {
  long correct = 0;
  double total = 0.0;
  for_logits(model, *ds_, chunk_,
             [&](const Tensor& logits, const long* y, long rows) {
               correct += correct_predictions(logits, y, rows);
               if (with_mse)
                 accumulate_squared_error(softmax_rows(logits), y, rows,
                                          total);
             });
  return {100.0 * double(correct) / double(ds_->size()),
          total / (double(ds_->size()) * double(ds_->num_classes))};
}

double BatchedEvaluator::accuracy(nn::Model& model) const {
  return score(model, /*with_mse=*/false).accuracy;
}

}  // namespace goldfish::metrics

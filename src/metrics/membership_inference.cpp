#include "metrics/membership_inference.h"

#include <algorithm>

#include "metrics/evaluation.h"
#include "tensor/check.h"
#include "tensor/ops.h"

namespace goldfish::metrics {

std::vector<double> true_label_confidences(nn::Model& model,
                                           const data::Dataset& ds) {
  GOLDFISH_CHECK(!ds.empty(), "confidences of an empty dataset");
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(ds.size()));
  ds.for_each_chunk(kEvalBatch, [&](const Tensor& x, const long* y,
                                    long rows) {
    const Tensor p = softmax_rows(model.forward(x, /*train=*/false));
    for (long i = 0; i < rows; ++i) out.push_back(p.at(i, y[i]));
  });
  return out;
}

MiaResult membership_inference(nn::Model& model, const data::Dataset& members,
                               const data::Dataset& nonmembers) {
  const std::vector<double> mc = true_label_confidences(model, members);
  const std::vector<double> nc = true_label_confidences(model, nonmembers);

  MiaResult r;
  for (double c : mc) r.member_confidence += c;
  r.member_confidence /= double(mc.size());
  for (double c : nc) r.nonmember_confidence += c;
  r.nonmember_confidence /= double(nc.size());

  // AUC = P(member score > non-member score) + ½·P(tie), computed exactly
  // by sorting the pooled scores (Mann–Whitney U).
  std::vector<std::pair<double, int>> pooled;  // (score, is_member)
  pooled.reserve(mc.size() + nc.size());
  for (double c : mc) pooled.emplace_back(c, 1);
  for (double c : nc) pooled.emplace_back(c, 0);
  std::sort(pooled.begin(), pooled.end());
  // Rank-sum with average ranks for ties.
  double rank_sum_members = 0.0;
  std::size_t i = 0;
  while (i < pooled.size()) {
    std::size_t j = i;
    while (j + 1 < pooled.size() && pooled[j + 1].first == pooled[i].first)
      ++j;
    const double avg_rank = 0.5 * (double(i) + double(j)) + 1.0;  // 1-based
    for (std::size_t k = i; k <= j; ++k)
      if (pooled[k].second == 1) rank_sum_members += avg_rank;
    i = j + 1;
  }
  const double n1 = double(mc.size()), n0 = double(nc.size());
  const double u = rank_sum_members - n1 * (n1 + 1.0) / 2.0;
  r.auc = u / (n1 * n0);

  // Best balanced accuracy over thresholds: sweep each distinct score.
  double best = 0.5;
  for (const auto& [thresh, unused] : pooled) {
    (void)unused;
    double tp = 0, tn = 0;
    for (double c : mc)
      if (c > thresh) ++tp;
    for (double c : nc)
      if (c <= thresh) ++tn;
    best = std::max(best, 0.5 * (tp / n1 + tn / n0));
  }
  r.best_accuracy = best;
  return r;
}

}  // namespace goldfish::metrics

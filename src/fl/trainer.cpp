#include "fl/trainer.h"

#include "tensor/check.h"

namespace goldfish::fl {

TrainStats train_local(nn::Model& model, const data::Dataset& ds,
                       const TrainOptions& opts) {
  GOLDFISH_CHECK(!ds.empty(), "training on an empty dataset");
  auto loss = losses::make_hard_loss(opts.loss);
  nn::Sgd::Options sgd_opts;
  sgd_opts.lr = opts.lr;
  sgd_opts.momentum = opts.momentum;
  nn::Sgd sgd(sgd_opts);
  Rng rng(opts.seed);

  // backward() accumulates into whatever the gradient buffers hold; a model
  // handed in with non-zero accumulators (e.g. a pooled replica loaded via
  // Model::load, which — unlike copy_from — leaves gradients untouched)
  // would silently fold stale gradients into its first step.
  model.zero_grad();

  TrainStats stats;
  Tensor x;             // batch storage reused across steps and epochs
  std::vector<long> y;
  for (long e = 0; e < opts.epochs; ++e) {
    data::BatchIterator it(ds, opts.batch_size, rng);
    double epoch_loss = 0.0;
    for (std::size_t b = 0; b < it.num_batches(); ++b) {
      const auto [idx, count] = it.batch_span(b);
      ds.batch_into(idx, count, x, y);
      const Tensor& logits = model.forward(x, /*train=*/true);
      losses::LossResult r = loss->eval(logits, y);
      model.backward(r.grad_logits);
      sgd.step(model);
      epoch_loss += r.value;
      ++stats.steps;
    }
    stats.epoch_losses.push_back(
        static_cast<float>(epoch_loss / double(it.num_batches())));
  }
  return stats;
}

float dataset_loss(nn::Model& model, const data::Dataset& ds,
                   const losses::HardLoss& loss) {
  GOLDFISH_CHECK(!ds.empty(), "loss over an empty dataset");
  double total = 0.0;
  long batches = 0;
  std::vector<long> y;
  // Mean of 256-row batch means: the reference the excess-risk test reads.
  ds.for_each_chunk(256, [&](const Tensor& x, const long* yp, long rows) {
    y.assign(yp, yp + rows);
    total += loss.eval(model.forward(x, /*train=*/false), y).value;
    ++batches;
  });
  return static_cast<float>(total / double(batches));
}

}  // namespace goldfish::fl

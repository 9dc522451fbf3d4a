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
  // Model::load, which leaves gradients untouched) would silently fold
  // stale gradients into its first step.
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

}  // namespace goldfish::fl

#include "baselines/rapid_retrain.h"

#include <algorithm>
#include <cmath>

#include "tensor/check.h"

namespace goldfish::baselines {

std::vector<Tensor> diagonal_fim(nn::Model& model, const data::Dataset& ds,
                                 const losses::HardLoss& loss,
                                 long batch_size) {
  GOLDFISH_CHECK(!ds.empty(), "FIM over an empty dataset");
  model.zero_grad();
  auto params = model.params();
  std::vector<Tensor> fim;
  fim.reserve(params.size());
  for (const nn::ParamRef& p : params)
    fim.push_back(Tensor::zeros(p.value->shape()));

  long batches = 0;
  std::vector<long> y;
  ds.for_each_chunk(batch_size, [&](const Tensor& x, const long* yp,
                                    long rows) {
    y.assign(yp, yp + rows);
    const Tensor& logits = model.forward(x, /*train=*/true);
    losses::LossResult r = loss.eval(logits, y);
    model.backward(r.grad_logits);
    // Accumulate squared gradients, then clear for the next batch.
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (params[i].grad == nullptr) continue;
      const Tensor& g = *params[i].grad;
      Tensor& f = fim[i];
      for (std::size_t j = 0; j < g.numel(); ++j) f[j] += g[j] * g[j];
      params[i].grad->zero();
    }
    ++batches;
  });
  for (Tensor& f : fim) f *= (1.0f / static_cast<float>(batches));
  return fim;
}

namespace {

/// Per-coordinate preconditioner p = clamp(mean(F̂+λ)/(F̂ᵢᵢ+λ), 1/boost, boost):
/// flat curvature directions get amplified steps, sharp ones damped — the
/// practical effect of the natural-gradient approximation.
std::vector<Tensor> preconditioner_from_fim(const std::vector<Tensor>& fim,
                                            float damping, float max_boost) {
  double mean = 0.0;
  std::size_t count = 0;
  for (const Tensor& f : fim) {
    for (std::size_t j = 0; j < f.numel(); ++j) mean += f[j];
    count += f.numel();
  }
  mean = mean / double(count) + damping;

  std::vector<Tensor> pre;
  pre.reserve(fim.size());
  for (const Tensor& f : fim) {
    Tensor p(f.shape());
    for (std::size_t j = 0; j < f.numel(); ++j) {
      const float raw = static_cast<float>(mean) / (f[j] + damping);
      p[j] = std::clamp(raw, 1.0f / max_boost, max_boost);
    }
    pre.push_back(std::move(p));
  }
  return pre;
}

/// Local training with a per-coordinate preconditioned SGD step.
void train_preconditioned(nn::Model& model, const data::Dataset& ds,
                          const fl::TrainOptions& opts,
                          const std::vector<Tensor>& pre) {
  auto loss = losses::make_hard_loss(opts.loss);
  Rng rng(opts.seed);
  auto params = model.params();
  GOLDFISH_CHECK(params.size() == pre.size(), "preconditioner layout");
  std::vector<Tensor> velocity;
  velocity.reserve(params.size());
  for (const nn::ParamRef& p : params)
    velocity.push_back(Tensor::zeros(p.value->shape()));

  for (long e = 0; e < opts.epochs; ++e) {
    data::BatchIterator it(ds, opts.batch_size, rng);
    for (std::size_t b = 0; b < it.num_batches(); ++b) {
      auto [x, y] = ds.batch(it.batch_indices(b));
      const Tensor& logits = model.forward(x, /*train=*/true);
      losses::LossResult r = loss->eval(logits, y);
      model.backward(r.grad_logits);
      for (std::size_t i = 0; i < params.size(); ++i) {
        if (params[i].grad == nullptr) continue;
        Tensor& v = velocity[i];
        float* wd = params[i].value->data();
        const float* gd = params[i].grad->data();
        const float* pd = pre[i].data();
        for (std::size_t j = 0; j < v.numel(); ++j) {
          v[j] = opts.momentum * v[j] + gd[j] * pd[j];
          wd[j] -= opts.lr * v[j];
        }
        params[i].grad->zero();
      }
    }
  }
}

}  // namespace

std::vector<fl::StepResult> rapid_retrain(
    const nn::Model& fresh_init, nn::Model& trained_model,
    std::vector<data::Dataset> remaining, data::Dataset server_test,
    const RapidRetrainConfig& cfg, long rounds, nn::Model* model_out) {
  // Server-side curvature capture: pool the remaining data the clients hold.
  // (In deployment each client would upload its local FIM; pooling is
  // equivalent for the diagonal empirical Fisher up to batch composition.)
  data::Dataset pooled;
  for (const data::Dataset& d : remaining)
    pooled = data::Dataset::concat(pooled, d);
  const auto hard = losses::make_hard_loss(cfg.fl.local.loss);
  const std::vector<Tensor> fim =
      diagonal_fim(trained_model, pooled, *hard, cfg.fl.local.batch_size);
  const std::vector<Tensor> pre =
      preconditioner_from_fim(fim, cfg.damping, cfg.max_boost);

  fl::Engine engine(fresh_init, std::move(remaining), std::move(server_test),
                    cfg.fl);
  engine.set_client_update([&](std::size_t cid, nn::Model& local,
                               const data::Dataset& ds, long round) {
    fl::TrainOptions opts = cfg.fl.local;
    opts.seed = cfg.fl.seed ^ (0xB2B2ull * (cid + 1)) ^
                static_cast<std::uint64_t>(round);
    train_preconditioned(local, ds, opts, pre);
  });
  std::vector<fl::StepResult> results =
      engine.collect(engine.sync_scenario(rounds));
  if (model_out != nullptr) *model_out = engine.global_model();
  return results;
}

}  // namespace goldfish::baselines

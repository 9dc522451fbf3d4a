#include "baselines/incompetent_teacher.h"

#include "losses/distillation.h"
#include "nn/sgd.h"
#include "tensor/check.h"

namespace goldfish::baselines {

namespace {

/// One client's incompetent-teacher local update.
void local_unlearn(nn::Model& student, nn::Model& competent,
                   nn::Model& incompetent, const data::Dataset& d_r,
                   const data::Dataset& d_f,
                   const IncompetentTeacherConfig& cfg,
                   std::uint64_t seed) {
  nn::Sgd::Options sgd_opts;
  sgd_opts.lr = cfg.fl.local.lr;
  sgd_opts.momentum = cfg.fl.local.momentum;
  nn::Sgd sgd(sgd_opts);
  Rng rng(seed);

  const bool have_forget = !d_f.empty();
  for (long e = 0; e < cfg.fl.local.epochs; ++e) {
    data::BatchIterator it_r(d_r, cfg.fl.local.batch_size, rng);
    data::BatchIterator it_f(have_forget ? d_f : d_r,
                             cfg.fl.local.batch_size, rng);
    const std::size_t f_batches = have_forget ? it_f.num_batches() : 0;
    for (std::size_t b = 0; b < it_r.num_batches(); ++b) {
      {
        auto [x, y] = d_r.batch(it_r.batch_indices(b));
        const Tensor& t_logits = competent.forward(x, /*train=*/false);
        const Tensor& s_logits = student.forward(x, /*train=*/true);
        losses::LossResult kd =
            losses::distillation_loss(t_logits, s_logits,
                                      cfg.kd_temperature);
        student.backward(kd.grad_logits);
      }
      if (have_forget) {
        auto [xf, yf] = d_f.batch(it_f.batch_indices(b % f_batches));
        const Tensor& t_logits = incompetent.forward(xf, /*train=*/false);
        const Tensor& s_logits = student.forward(xf, /*train=*/true);
        losses::LossResult kd =
            losses::distillation_loss(t_logits, s_logits,
                                      cfg.kd_temperature);
        kd.grad_logits *= cfg.forget_weight;
        student.backward(kd.grad_logits);
      }
      sgd.step(student);
    }
  }
}

}  // namespace

std::vector<fl::StepResult> incompetent_teacher_unlearn(
    const nn::Model& trained, const nn::Model& incompetent_init,
    std::vector<data::Dataset> remaining, std::vector<data::Dataset> removed,
    data::Dataset server_test, const IncompetentTeacherConfig& cfg,
    long rounds, nn::Model* model_out) {
  GOLDFISH_CHECK(remaining.size() == removed.size(),
                 "remaining/removed client count mismatch");
  // Keep a copy of the per-client removed sets; the engine only carries D_r.
  auto removed_copy =
      std::make_shared<std::vector<data::Dataset>>(std::move(removed));
  auto competent = std::make_shared<nn::Model>(trained);
  auto incompetent = std::make_shared<nn::Model>(incompetent_init);

  fl::Engine engine(trained, std::move(remaining), std::move(server_test),
                    cfg.fl);
  engine.set_client_update([&, removed_copy, competent, incompetent](
                               std::size_t cid, nn::Model& local,
                               const data::Dataset& ds, long round) {
    // Thread-local teacher replicas (forward mutates caches).
    nn::Model competent_local = *competent;
    nn::Model incompetent_local = *incompetent;
    local_unlearn(local, competent_local, incompetent_local, ds,
                  (*removed_copy)[cid], cfg,
                  cfg.fl.seed ^ (0xB3B3ull * (cid + 1)) ^
                      static_cast<std::uint64_t>(round));
  });
  std::vector<fl::StepResult> results =
      engine.collect(engine.sync_scenario(rounds));
  if (model_out != nullptr) *model_out = engine.global_model();
  return results;
}

}  // namespace goldfish::baselines

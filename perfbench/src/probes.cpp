// Public-API probes of single layers on a workload's own shapes, and the
// end of a traced run.
#include <algorithm>
#include <iostream>
#include <string>

#include "fl/aggregation.h"
#include "fl/policies.h"
#include "losses/goldfish_loss.h"
#include "metrics/evaluation.h"
#include "nn/sgd.h"
#include "runtime/gemm.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"
#include "workloads.h"

namespace perfbench {

using namespace goldfish;

void finish_trace(const Tracer& tr, const Options& opt, RunResult& out) {
  for (const auto& [layer, s] : tr.self_time_by_layer())
    out.set(layer + ".self_s", s, "s");
  const std::string path = opt.trace_dir + "/trace-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".json";
  if (tr.write_chrome_json(path))
    std::cout << "trace: " << path << "\n";
  else
    std::cout << "trace: could not write " << path << "\n";
}

namespace {

// Median seconds per call of `fn` over `calls` calls, each in its own span
// and preceded by an untimed `prep`. The call count is fixed, so the span
// time, and with it the layer's self time, scales with the code's speed.
template <typename P, typename F>
double per_call(Tracer& tr, long calls, const char* span, P&& prep, F&& fn) {
  std::vector<double> t;
  for (long i = 0; i < calls; ++i) {
    prep();
    const double t0 = now_s();
    {
      Scope s(tr, span);
      fn();
    }
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

template <typename F>
double per_call(Tracer& tr, long calls, const char* span, F&& fn) {
  return per_call(tr, calls, span, [] {}, fn);
}

}  // namespace

void probe_layers(ProbeShape& p, Tracer& tr, RunResult& out) {
  nn::Model& model = p.model;
  const long rows = std::min(p.batch, p.batch_source.size());
  auto [x, labels_ptr] = p.batch_source.batch_view(0, rows);
  const std::vector<long> labels(labels_ptr, labels_ptr + rows);

  // nn: one training step's parts, and an eval-mode forward.
  out.set("nn.forward_train_ms",
          1e3 * per_call(tr, p.calls, "nn.forward_train",
                         [&] { (void)model.forward(x, true); }),
          "ms");
  const Tensor logits = model.forward(x, true);
  const Tensor grad = Tensor::full(logits.shape(), 1e-3f);
  out.set("nn.backward_ms",
          1e3 * per_call(
                    tr, p.calls, "nn.backward",
                    [&] { (void)model.forward(x, true); },
                    [&] { (void)model.backward(grad); }),
          "ms");
  nn::Sgd sgd;
  out.set("nn.sgd_step_ms",
          1e3 * per_call(tr, p.calls, "nn.sgd_step", [&] { sgd.step(model); }),
          "ms");
  out.set("nn.forward_eval_ms",
          1e3 * per_call(tr, p.calls, "nn.forward_eval",
                         [&] { (void)model.forward(x, false); }),
          "ms");

  // losses: the composite Goldfish loss on a remaining + forget batch.
  const losses::GoldfishLoss loss;
  const Tensor teacher = logits;
  out.set("losses.goldfish_eval_ms",
          1e3 * per_call(tr, p.calls, "losses.goldfish_eval",
                         [&] {
                           (void)loss.eval(logits, labels, teacher, logits,
                                           labels);
                         }),
          "ms");

  // runtime: the workload's dominant GEMM shape.
  Rng rng(0x6E33);
  const Tensor a = Tensor::rand_uniform({p.gemm_m, p.gemm_k}, rng, -1, 1);
  const Tensor b = Tensor::rand_uniform({p.gemm_k, p.gemm_n}, rng, -1, 1);
  Tensor c = Tensor::zeros({p.gemm_m, p.gemm_n});
  const double gemm_s = per_call(tr, p.calls, "runtime.sgemm", [&] {
    runtime::sgemm(false, false, p.gemm_m, p.gemm_n, p.gemm_k, a.data(),
                   p.gemm_k, b.data(), p.gemm_n, c.data(), p.gemm_n, 0.0f,
                   runtime::Epilogue::kNone, nullptr);
  });
  out.set("runtime.sgemm_gflops",
          2.0 * double(p.gemm_m) * double(p.gemm_n) * double(p.gemm_k) /
              gemm_s / 1e9,
          "GFLOP/s");

  // tensor: the GFT1 framing every dense upload and cold record uses.
  const std::vector<Tensor> params = model.snapshot();
  double raw_bytes = 0.0;
  for (const Tensor& t : params) raw_bytes += 4.0 * double(t.numel());
  std::string bytes;
  (void)per_call(tr, p.calls, "tensor.serialize",
                 [&] { serialize_tensors(params, bytes); });
  (void)per_call(tr, p.calls, "tensor.deserialize", [&] {
    (void)deserialize_tensors(bytes.data(), bytes.size());
  });

  // fl.wire: the workload's upload encoding against a shared reference.
  std::unique_ptr<fl::WirePolicy> wire;
  if (p.delta_quantized_wire)
    wire = std::make_unique<fl::DeltaWire>(std::make_unique<fl::QuantizedWire>());
  else
    wire = std::make_unique<fl::DenseWire>();
  std::vector<Tensor> trained = params;
  for (Tensor& t : trained)
    for (std::size_t i = 0; i < t.numel(); ++i)
      t.data()[i] += 0.01f * (rng.uniform() - 0.5f);
  std::string up;
  const double enc_s = per_call(tr, p.calls, "fl.wire_encode",
                                [&] { wire->encode(trained, &params, up); });
  const double dec_s = per_call(tr, p.calls, "fl.wire_decode", [&] {
    (void)wire->decode(up.data(), up.size(), &params);
  });
  out.set("fl.wire.encode_gbps", raw_bytes / enc_s / 1e9, "GB/s");
  out.set("fl.wire.decode_gbps", raw_bytes / dec_s / 1e9, "GB/s");

  // fl.aggregate: adaptive weighting over one buffer of K updates.
  std::vector<fl::ClientUpdate> ups(static_cast<std::size_t>(p.updates));
  for (std::size_t i = 0; i < ups.size(); ++i) {
    ups[i].params = trained;
    ups[i].dataset_size = rows;
    ups[i].mse = 0.1 + 0.01 * double(i);
  }
  const auto agg = fl::make_aggregator("adaptive");
  out.set("fl.aggregate_ms",
          1e3 * per_call(tr, p.calls, "fl.aggregate",
                         [&] { (void)agg->aggregate(ups); }),
          "ms");

  // metrics: the server's batched accuracy on the test set.
  const metrics::BatchedEvaluator eval(*p.eval_set);
  out.set("metrics.eval_ms",
          1e3 * per_call(tr, p.calls, "metrics.eval",
                         [&] { (void)eval.accuracy(model); }),
          "ms");
}

}  // namespace perfbench

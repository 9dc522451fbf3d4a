// The benchmark's workloads and the layer probes they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "data/dataset.h"
#include "nn/model.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its Chrome JSON
};

/// `unlearn-mlp` and `unlearn-conv`: a closed-loop stream of deletion
/// requests, each served by Goldfish to both targets and then by B1 to the
/// accuracy target.
RunResult run_unlearn(const Options& opt);

/// `train-population`: consecutive cohort-sampled buffered scenarios over a
/// 10^5-client population engine.
RunResult run_population(const Options& opt);

/// Shapes for the public-API layer probes, taken from the workload.
struct ProbeShape {
  goldfish::nn::Model model;  // the workload's architecture
  goldfish::data::Dataset batch_source;  // rows to draw probe batches from
  const goldfish::data::Dataset* eval_set = nullptr;
  long batch = 50;
  long updates = 8;         // K of one aggregation
  bool delta_quantized_wire = false;  // else the dense GFT1 wire
  long gemm_m = 0, gemm_n = 0, gemm_k = 0;  // dominant GEMM of the workload
  long calls = 50;  // timed calls per probe, fixed per workload
};

/// Time each layer's public entry points on the workload's shapes and set
/// the probe metrics (nn.*, losses.*, runtime.sgemm_gflops, fl.wire.*,
/// fl.aggregate_ms, metrics.eval_ms), recording one span per probe call so
/// every layer shows self time.
void probe_layers(ProbeShape& shape, Tracer& tr, RunResult& out);

/// End a traced run: set `<layer>.self_s` for every layer with spans and
/// write the Chrome trace to opt.trace_dir.
void finish_trace(const Tracer& tr, const Options& opt, RunResult& out);

}  // namespace perfbench

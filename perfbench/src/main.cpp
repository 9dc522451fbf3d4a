// goldfish_perf: the repository benchmark's measuring program.
//
//   goldfish_perf --workload <unlearn-mlp|unlearn-conv|train-population>
//                 --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints a human-readable report, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "digest", "metrics"} holding every
// metric the run measured (end-to-end ones untraced, per-layer ones traced).
// perfbench/run.py builds this program and selects the metrics that
// BENCHMARK.json names.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "runtime/scheduler.h"
#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: goldfish_perf --workload "
               "<unlearn-mlp|unlearn-conv|train-population> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n";
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.trace_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") opt.trace = val == "1";
    else if (key == "--trace-dir") opt.trace_dir = val;
    else return usage();
  }
  if (argc % 2 == 0 || opt.seconds <= 0.0) return usage();

  perfbench::RunResult r;
  std::cout << "workload " << opt.workload << ", seed " << opt.seed << ", "
            << opt.seconds << " s, trace " << opt.trace << ", threads "
            << goldfish::runtime::Scheduler::global().parallelism() << "\n";
  try {
    if (opt.workload == "unlearn-mlp" || opt.workload == "unlearn-conv")
      r = perfbench::run_unlearn(opt);
    else if (opt.workload == "train-population")
      r = perfbench::run_population(opt);
    else
      return usage();
  } catch (const std::exception& e) {
    std::cerr << "goldfish_perf: " << e.what() << "\n";
    return 1;
  }

  perfbench::print_metrics(opt.trace ? "per-layer metrics:" : "end-to-end metrics:",
                           r.metrics);
  if (opt.trace) {
    double total = 0.0;
    for (const auto& [name, m] : r.metrics)
      if (name.size() > 7 && name.compare(name.size() - 7, 7, ".self_s") == 0)
        total += m.value;
    std::cout << "self time by layer (s, share of traced span time):\n";
    for (const auto& [name, m] : r.metrics)
      if (name.size() > 7 && name.compare(name.size() - 7, 7, ".self_s") == 0)
        std::printf("  %-16s %10.4f  %5.1f%%\n",
                    name.substr(0, name.size() - 7).c_str(), m.value,
                    total > 0.0 ? 100.0 * m.value / total : 0.0);
    std::fflush(stdout);
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(r.digest));
  std::cout << "output digest: " << digest << " (" << r.steps.size()
            << " StepResults)\n";

  std::ostringstream js;
  js << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"digest\": \"" << digest << "\", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

// Benchmark harness: wall clock, span tracer, order statistics, process
// memory, StepResult digests and the result record every workload fills.
//
// Everything here lives outside the library: layers are timed by wrapping
// calls into their public functions, never by instrumenting src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "fl/engine.h"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Median, and the linearly interpolated q-quantile (q in [0, 1]).
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// Process peak resident set (VmHWM) in MiB; 0 where procfs is absent.
double peak_rss_mb();
/// Reset VmHWM to the current RSS (writes "5" to /proc/self/clear_refs), so
/// the next peak_rss_mb() covers only what runs after this call. Returns
/// false when the kernel refuses the reset.
bool reset_peak_rss();

/// One recorded span: [t0, t1] in seconds, `parent` the enclosing span's id
/// (-1 for a root), `req` the operation (deletion request or scenario) it
/// belongs to.
struct Span {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t req = -1;
  std::uint32_t tid = 0;
};

/// In-memory span recorder. Spans nest per thread; a span opened on a
/// scheduler worker (a client task) names its parent explicitly through
/// set_task_parent, since the round that spawned it is open on another
/// thread. When disabled every call is a no-op and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  std::int64_t begin(const char* name, bool task = false);
  void end(std::int64_t id);

  /// Parent for spans opened with task = true (client tasks on workers).
  void set_task_parent(std::int64_t id) { task_parent_.store(id); }
  void set_request(std::int64_t req) { req_.store(req); }

  /// Σ duration, max duration and count of the spans named `name`.
  double total(const std::string& name) const;
  double longest(const std::string& name) const;
  long count(const std::string& name) const;
  /// Σ over spans named `name` of their duration minus the part covered by
  /// child spans named `child` (the server share of a round).
  double uncovered(const std::string& name, const std::string& child) const;
  /// Self time (duration minus the union of child spans) summed per layer;
  /// the layer of "core.distill" is "core", of "fl.population.register" is
  /// "fl.population".
  std::map<std::string, double> self_time_by_layer() const;
  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<std::int64_t> task_parent_{-1};
  std::atomic<std::int64_t> req_{-1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; index == id
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, bool task = false)
      : t_(t), id_(t.begin(name, task)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int64_t id_;
};

/// The engine's default client update — LocalTraining seeded per (client,
/// round) from `cfg` — inside an "fl.client_task" span: what a traced run
/// installs through set_client_update to see each client task.
goldfish::fl::Engine::ClientUpdateFn traced_local_training(
    Tracer& tr, const goldfish::fl::FlConfig& cfg);

/// FNV-1a over every field of a StepResult, doubles by bit pattern: equal
/// hashes mean bit-identical telemetry.
std::uint64_t step_hash(const goldfish::fl::StepResult& s);
/// Fold a value into a running FNV-1a digest.
std::uint64_t fold(std::uint64_t h, std::uint64_t v);
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// A named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports: the result line's JSON fields plus the
/// deterministic StepResult stream (one hash per step) and an output digest.
struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::uint64_t> steps;  // step_hash per aggregation, in order
  std::uint64_t digest = kFnvBasis;  // folds steps + workload outputs
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Print `title` and the values on one line (the human-readable report).
void print_times(const char* title, const std::vector<double>& v);

/// Print one "name value unit" line per metric (the human-readable report).
void print_metrics(const char* title, const std::map<std::string, Metric>& m);

}  // namespace perfbench

#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <utility>

#include "fl/trainer.h"
#include "tensor/rng.h"

namespace perfbench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  std::fclose(f);
  return kb / 1024.0;
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return (std::fclose(f) == 0) && ok;
}

namespace {

thread_local std::vector<std::int64_t> tl_open;  // open spans, this thread

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

std::string layer_of(const std::string& name) {
  const std::size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

// Length of the union of `iv` clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>> iv, double lo,
               double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_lo = 0.0, cur_hi = -1.0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

std::int64_t Tracer::begin(const char* name, bool task) {
  if (!enabled_) return -1;
  const std::int64_t parent =
      task ? task_parent_.load() : (tl_open.empty() ? -1 : tl_open.back());
  Span s;
  s.name = name;
  s.parent = parent;
  s.req = req_.load();
  s.tid = thread_index();
  std::int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    s.id = id;
    s.t0 = now_s();
    spans_.push_back(std::move(s));
  }
  tl_open.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const double t = now_s();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].t1 = t;
  }
  if (!tl_open.empty() && tl_open.back() == id) tl_open.pop_back();
}

double Tracer::total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double s = 0.0;
  for (const Span& sp : spans_)
    if (sp.name == name) s += sp.t1 - sp.t0;
  return s;
}

double Tracer::longest(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double m = 0.0;
  for (const Span& sp : spans_)
    if (sp.name == name) m = std::max(m, sp.t1 - sp.t0);
  return m;
}

long Tracer::count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  long n = 0;
  for (const Span& sp : spans_)
    if (sp.name == name) ++n;
  return n;
}

double Tracer::uncovered(const std::string& name,
                         const std::string& child) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& sp : spans_)
    if (sp.parent >= 0 && sp.name == child)
      kids[static_cast<std::size_t>(sp.parent)].emplace_back(sp.t0, sp.t1);
  double s = 0.0;
  for (const Span& sp : spans_)
    if (sp.name == name)
      s += (sp.t1 - sp.t0) -
           covered(kids[static_cast<std::size_t>(sp.id)], sp.t0, sp.t1);
  return s;
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& sp : spans_)
    if (sp.parent >= 0)
      kids[static_cast<std::size_t>(sp.parent)].emplace_back(sp.t0, sp.t1);
  std::map<std::string, double> out;
  for (const Span& sp : spans_)
    out[layer_of(sp.name)] +=
        (sp.t1 - sp.t0) -
        covered(kids[static_cast<std::size_t>(sp.id)], sp.t0, sp.t1);
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  os << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << sp.name << "\",\"cat\":\""
       << layer_of(sp.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << sp.tid
       << ",\"ts\":" << sp.t0 * 1e6 << ",\"dur\":" << (sp.t1 - sp.t0) * 1e6
       << ",\"args\":{\"id\":" << sp.id << ",\"parent\":" << sp.parent
       << ",\"req\":" << sp.req << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

goldfish::fl::Engine::ClientUpdateFn traced_local_training(
    Tracer& tr, const goldfish::fl::FlConfig& cfg) {
  return [&tr, cfg](std::size_t c, goldfish::nn::Model& model,
                    const goldfish::data::Dataset& ds, long round) {
    Scope task(tr, "fl.client_task", /*task=*/true);
    goldfish::fl::TrainOptions opts = cfg.local;
    opts.seed =
        goldfish::mix_seed(cfg.seed, c, static_cast<std::uint64_t>(round));
    goldfish::fl::train_local(model, ds, opts);
  };
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {
std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}
}  // namespace

std::uint64_t step_hash(const goldfish::fl::StepResult& s) {
  std::uint64_t h = kFnvBasis;
  h = fold(h, static_cast<std::uint64_t>(s.step));
  h = fold(h, bits(s.virtual_time));
  h = fold(h, bits(s.global_accuracy));
  h = fold(h, static_cast<std::uint64_t>(s.updates_consumed));
  h = fold(h, bits(s.mean_staleness));
  h = fold(h, static_cast<std::uint64_t>(s.max_staleness));
  h = fold(h, static_cast<std::uint64_t>(s.dropped_updates));
  h = fold(h, s.bytes_uplinked);
  h = fold(h, s.upload_bytes);
  h = fold(h, bits(s.encode_error));
  h = fold(h, s.active_clients);
  for (char c : s.aggregator) h = fold(h, static_cast<unsigned char>(c));
  h = fold(h, s.has_local_accuracy);
  h = fold(h, bits(s.min_local_accuracy));
  h = fold(h, bits(s.max_local_accuracy));
  h = fold(h, bits(s.mean_local_accuracy));
  h = fold(h, s.has_audit);
  h = fold(h, bits(s.attack_success));
  h = fold(h, bits(s.mia_auc));
  h = fold(h, bits(s.mia_accuracy));
  return h;
}

void print_times(const char* title, const std::vector<double>& v) {
  std::cout << title;
  for (double x : v) std::cout << " " << std::setprecision(4) << x;
  std::cout << "\n";
}

void print_metrics(const char* title, const std::map<std::string, Metric>& m) {
  std::cout << title << "\n";
  for (const auto& [name, metric] : m)
    std::cout << "  " << std::left << std::setw(42) << name << " "
              << std::setprecision(6) << metric.value << " " << metric.unit
              << "\n";
  std::cout << std::flush;
}

}  // namespace perfbench

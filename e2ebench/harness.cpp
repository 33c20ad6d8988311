#include "harness.hpp"

#include <immintrin.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <sstream>

#include "core/error.hpp"

extern char** environ;

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting global allocator. The flag keeps the untraced hot path to one
// relaxed load; the aligned and sized forms fall through to these. GCC
// cannot see that the replaced new and delete pair malloc with free.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace e2e {

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string k = argv[i];
    D500_CHECK_MSG(i + 1 < argc, "missing value for " << k);
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else D500_CHECK_MSG(false, "unknown argument " << k);
  }
  D500_CHECK_MSG(a.seconds > 0, "--seconds must be positive");
  return a;
}

void pin_environment(
    const std::vector<std::pair<std::string, std::string>>& pins) {
  std::vector<std::string> inherited;
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("D500_", 0) == 0) inherited.push_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& name : inherited) unsetenv(name.c_str());
  for (const auto& [k, v] : pins) {
    setenv(k.c_str(), v.c_str(), 1);
    std::cout << "env " << k << "=" << v << "\n";
  }
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

std::set<std::string> Result::names() const {
  std::set<std::string> s;
  for (const auto& [name, vu] : metrics_) s.insert(name);
  return s;
}

void Result::print() const {
  for (const auto& [name, vu] : metrics_)
    std::cout << "metric " << name << " " << vu.first << " " << vu.second
              << "\n";
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << v
       << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void count_allocations(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}
std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double measure_fma_peak_gflops() {
#if defined(__FMA__) && defined(__AVX2__)
  // Ten independent accumulator chains, spelled out so they stay in
  // registers, cover the FMA latency x ports product of current x86 cores;
  // the best of several trials is the peak.
  constexpr std::int64_t kIters = 20'000'000;
  double best = 0;
  for (int trial = 0; trial < 5; ++trial) {
    __m256 a0 = _mm256_set1_ps(0.1f), a1 = _mm256_set1_ps(0.2f),
           a2 = _mm256_set1_ps(0.3f), a3 = _mm256_set1_ps(0.4f),
           a4 = _mm256_set1_ps(0.5f), a5 = _mm256_set1_ps(0.6f),
           a6 = _mm256_set1_ps(0.7f), a7 = _mm256_set1_ps(0.8f),
           a8 = _mm256_set1_ps(0.9f), a9 = _mm256_set1_ps(1.0f);
    const __m256 m = _mm256_set1_ps(0.999999f);
    const __m256 b = _mm256_set1_ps(1e-7f);
    const std::int64_t t0 = now_ns();
    for (std::int64_t i = 0; i < kIters; ++i) {
      a0 = _mm256_fmadd_ps(a0, m, b); a1 = _mm256_fmadd_ps(a1, m, b);
      a2 = _mm256_fmadd_ps(a2, m, b); a3 = _mm256_fmadd_ps(a3, m, b);
      a4 = _mm256_fmadd_ps(a4, m, b); a5 = _mm256_fmadd_ps(a5, m, b);
      a6 = _mm256_fmadd_ps(a6, m, b); a7 = _mm256_fmadd_ps(a7, m, b);
      a8 = _mm256_fmadd_ps(a8, m, b); a9 = _mm256_fmadd_ps(a9, m, b);
    }
    const std::int64_t t1 = now_ns();
    const __m256 sum = _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3)),
        _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(a4, a5), _mm256_add_ps(a6, a7)),
                      _mm256_add_ps(a8, a9)));
    alignas(32) float out[8];
    _mm256_store_ps(out, sum);
    D500_CHECK_MSG(std::isfinite(out[0]), "fma loop diverged");
    const double flops = 2.0 * 8 * 10 * static_cast<double>(kIters);
    best = std::max(best, flops / static_cast<double>(t1 - t0));
  }
  return best;
#else
  return 0.0;
#endif
}

double measure_stream_gbps() {
  // 64 MiB source and destination: far past any last-level cache.
  const std::size_t n = std::size_t{16} << 20;
  std::vector<float> src(n, 1.0f), dst(n, 0.0f);
  double best = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const std::int64_t t0 = now_ns();
    std::memcpy(dst.data(), src.data(), n * sizeof(float));
    const std::int64_t t1 = now_ns();
    src[trial] = dst[n - 1 - static_cast<std::size_t>(trial)] + 1.0f;
    best = std::max(best, 2.0 * static_cast<double>(n * sizeof(float)) /
                              static_cast<double>(t1 - t0));
  }
  return best;
}

std::map<std::string, NodeCost> node_costs(const d500::Network& net,
                                           std::int64_t batch) {
  std::map<std::string, d500::Shape> shape;
  for (const auto& in : net.inputs()) {
    d500::Shape s = net.input_shape(in);
    if (batch > 0 && !s.empty()) s[0] = batch;
    shape[in] = s;
  }
  std::map<std::string, NodeCost> costs;
  for (const auto* node : net.topological_order()) {
    std::vector<d500::Shape> ins;
    double bytes = 0;
    for (const auto& in : node->inputs) {
      auto it = shape.find(in);
      const d500::Shape s =
          it != shape.end() ? it->second : net.fetch_tensor(in).shape();
      ins.push_back(s);
      bytes += static_cast<double>(d500::shape_elements(s)) * sizeof(float);
    }
    const auto outs = node->op->output_shapes(ins);
    for (std::size_t k = 0; k < outs.size() && k < node->outputs.size(); ++k) {
      shape[node->outputs[k]] = outs[k];
      bytes += static_cast<double>(d500::shape_elements(outs[k])) * sizeof(float);
    }
    NodeCost& c = costs[node->name];
    c.op_type = node->op->name();
    c.flops = static_cast<double>(node->op->forward_flops(ins));
    c.bytes = bytes;
  }
  return costs;
}

StepProbe::StepProbe(const d500::Network& net) {
  for (const auto& node : net.nodes()) type_of_[node.name] = node.op->name();
}

bool StepProbe::on_event(const d500::EventInfo& info) {
  using d500::EventPoint;
  if (!enabled) return true;
  const std::int64_t t = now_ns();
  switch (info.point) {
    case EventPoint::kBeforeInference: fwd_start_ = t; break;
    case EventPoint::kAfterInference: forward_ns += t - fwd_start_; break;
    case EventPoint::kBeforeBackprop: bwd_start_ = t; break;
    case EventPoint::kAfterBackprop:
      backward_ns += t - bwd_start_;
      after_backprop_at = t;
      break;
    case EventPoint::kBeforeOperator: {
      const auto idx = static_cast<std::size_t>(info.step);
      if (idx >= op_start_.size()) {
        op_start_.resize(idx + 1, 0);
        op_type_.resize(idx + 1, nullptr);
      }
      if (!op_type_[idx]) {
        auto it = type_of_.find(info.label);
        D500_CHECK_MSG(it != type_of_.end(), "unknown operator " << info.label);
        op_type_[idx] = &it->second;
      }
      op_start_[idx] = t;
      break;
    }
    case EventPoint::kAfterOperator: {
      const auto idx = static_cast<std::size_t>(info.step);
      auto& slot = op_ns[*op_type_[idx]];
      slot.first += t - op_start_[idx];
      slot.second += 1;
      break;
    }
    default: break;
  }
  return true;
}

const std::vector<std::string> kReportedOpTypes = {
    "FusedConvBn", "Add", "ReLU", "GlobalAvgPool", "Linear",
    "SoftmaxCrossEntropy"};

bool compute_bound(const std::string& type) {
  return type == "FusedConvBn" || type == "Linear";
}

void report_ops(
    Result& r, const std::vector<std::string>& types,
    const std::map<std::string, std::pair<std::int64_t, std::int64_t>>& op_ns,
    const std::map<std::string, NodeCost>& costs, double calls,
    double fma_gflops, double stream_gbps) {
  std::set<std::string> present;
  for (const auto& [node, c] : costs) present.insert(c.op_type);
  std::cout << "check op_types";
  for (const auto& t : present) std::cout << " " << t;
  std::cout << "\n";
  for (const auto& type : types) {
    double flops = 0, bytes = 0;
    for (const auto& [node, c] : costs)
      if (c.op_type == type) {
        flops += c.flops;
        bytes += c.bytes;
      }
    double ns = 0;
    if (auto it = op_ns.find(type); it != op_ns.end())
      ns = static_cast<double>(it->second.first) / calls;
    const double gflops = ns > 0 ? flops / ns : 0.0;
    const double gbps = ns > 0 ? bytes / ns : 0.0;
    r.set("ops.fwd_ms." + type, ns / 1e6, "ms");
    if (compute_bound(type)) {
      r.set("ops.gflops." + type, gflops, "GFLOP/s");
      r.set("ops.roofline_frac." + type, fma_gflops > 0 ? gflops / fma_gflops : 0.0,
            "fraction");
    } else {
      r.set("ops.roofline_frac." + type, stream_gbps > 0 ? gbps / stream_gbps : 0.0,
            "fraction");
    }
  }
}

}  // namespace e2e

// Shared plumbing of the end-to-end benchmark: command line, pinned
// environment, the result line, quantiles, the allocation counter, host
// ceilings and the Event probe that splits a step into layers.
//
// Everything here observes the library from outside: it times calls into
// public functions and listens on GraphExecutor events. Nothing in src/ is
// instrumented for the benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/event.hpp"
#include "graph/network.hpp"

namespace e2e {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

/// Parses --workload --seed --seconds --trace --workdir; throws on anything
/// else or a missing value.
Args parse_args(int argc, char** argv);

/// Clears every inherited D500_* variable, then sets `pins` and prints them
/// one per line ("env NAME=value") so a run records its configuration.
void pin_environment(const std::vector<std::pair<std::string, std::string>>& pins);

/// The benchmark's last stdout line: correctness, operation counts and one
/// value + unit per metric.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  double get(const std::string& name) const { return metrics_.at(name).first; }
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }
  std::set<std::string> names() const;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  /// Prints every metric as "metric <name> <value> <unit>", then the JSON
  /// line.
  void print() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

std::int64_t now_ns();

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Global operator new calls, counted only while counting is on.
void count_allocations(bool on);
std::uint64_t allocations();

double peak_rss_mb();

/// Single-thread host ceilings measured by the benchmark's own loops:
/// fused multiply-add throughput and streaming-copy bandwidth (read +
/// write bytes).
double measure_fma_peak_gflops();
double measure_stream_gbps();

/// Forward FLOPs and bytes read and written by one node.
struct NodeCost {
  std::string op_type;
  double flops = 0;
  double bytes = 0;
};

/// NodeCost of every node of a post-pass network, from shape propagation
/// over its topological order. A positive `batch` replaces the leading
/// dimension of every declared graph input.
std::map<std::string, NodeCost> node_costs(const d500::Network& net,
                                           std::int64_t batch = 0);

/// Per-executor Event listener. Accumulates forward, backward and per-op
/// forward time, and stamps the end of backprop so the caller can time
/// what follows it (gradient exchange and update). Dispatch is serialized
/// per executor, so the listener needs no lock; it is read by the thread
/// that drives the executor between steps.
class StepProbe : public d500::Event {
 public:
  explicit StepProbe(const d500::Network& net);
  bool on_event(const d500::EventInfo& info) override;

  bool enabled = false;
  std::int64_t forward_ns = 0;
  std::int64_t backward_ns = 0;
  std::int64_t after_backprop_at = 0;  // now_ns() at kAfterBackprop
  /// Per op type: total forward ns and launches.
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> op_ns;

 private:
  std::map<std::string, std::string> type_of_;
  std::vector<std::int64_t> op_start_;
  std::vector<const std::string*> op_type_;
  std::int64_t fwd_start_ = 0;
  std::int64_t bwd_start_ = 0;
};

/// Adds ops.fwd_ms and ops.roofline_frac rows for every op type named in
/// `types`, averaged over `calls` executor runs, and prints the op types
/// the graph holds. Compute-bound types (convolution, Linear) also get
/// ops.gflops and are compared with the FMA peak; the rest are compared
/// with streaming bandwidth, from the bytes their inputs and outputs span.
void report_ops(Result& r, const std::vector<std::string>& types,
                const std::map<std::string, std::pair<std::int64_t, std::int64_t>>& op_ns,
                const std::map<std::string, NodeCost>& costs, double calls,
                double fma_gflops, double stream_gbps);

/// Op types reported on every workload (the post-pass types of the three
/// graphs), so each traced run prints the same metric set; a type the
/// workload's graph lacks reports 0.
extern const std::vector<std::string> kReportedOpTypes;
bool compute_bound(const std::string& type);

}  // namespace e2e

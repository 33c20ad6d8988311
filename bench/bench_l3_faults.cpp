// Fault- and straggler-injected distributed training: the cost and
// convergence surface of the FaultInjector subsystem (dist/fault.hpp).
// Three sweeps over a fixed MLP on SimMPI worlds:
//
//   1. convergence vs staleness — eager (partial) allreduce DSGD under a
//      fixed lateness schedule at staleness bounds 0/1/2/4: final loss,
//      stale-read counts, and the per-(seed, bound) parameter checksum
//      (the determinism contract test_faults pins down). The schedule's
//      late probability (0.9) gives streaks long enough to reach every
//      bound, so the bounds produce different runs;
//   2. step time vs straggler — synchronous ring DSGD with one scheduled
//      straggler rank at increasing per-send delays: the slowdown is pure
//      timing, so the checksum must stay bit-identical to fault-free;
//   3. retry overhead — drop+retry schedules at increasing drop
//      probability: wire amplification (every attempt is charged) and
//      injected virtual delay, with data still delivered exactly.
//
// Results land in BENCH_faults.json on the provenance-stamped BenchReport
// path; ci-bench-smoke diffs them against bench/baselines/.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/json.hpp"
#include "core/report.hpp"
#include "core/rng.hpp"
#include "dist/dist_optimizer.hpp"
#include "graph/visitor.hpp"
#include "models/builders.hpp"
#include "train/optimizers.hpp"

namespace d500::bench {
namespace {

constexpr std::int64_t kPerRankBatch = 4;
constexpr std::int64_t kInDim = 64;
constexpr int kWorld = 4;

Model fault_model() {
  return models::mlp(kPerRankBatch, kInDim, {48}, 10, bench_seed());
}

TensorMap feeds_for(int rank, int step) {
  Rng rng(bench_seed() + 31 * static_cast<std::uint64_t>(rank) +
          1000 * static_cast<std::uint64_t>(step) + 1);
  TensorMap f;
  Tensor d({kPerRankBatch, kInDim});
  d.fill_uniform(rng, -1, 1);
  f["data"] = std::move(d);
  Tensor l({kPerRankBatch});
  for (std::int64_t i = 0; i < kPerRankBatch; ++i)
    l.at(i) = static_cast<float>(rng.below(10));
  f["labels"] = std::move(l);
  return f;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4)
    s[static_cast<std::size_t>(i)] = digits[v & 0xf];
  return s;
}

struct EagerRow {
  std::int64_t bound = 0;
  float final_loss = 0;
  std::uint64_t stale_events = 0;
  std::int64_t max_staleness = 0;
  std::uint64_t checksum = 0;
  bool finite = true;
};

/// Eager DSGD at one staleness bound under a fixed lateness schedule.
EagerRow run_eager(const Model& model, std::int64_t bound, double late_prob,
                   int steps) {
  EagerRow row;
  row.bound = bound;
  SimMpi mpi(kWorld);
  FaultPlan plan;
  plan.enabled = late_prob > 0.0;
  plan.seed = bench_seed() + 17;
  plan.late_prob = late_prob;
  mpi.set_fault_plan(plan);
  std::mutex mu;
  mpi.run([&](Communicator& comm) {
    ReferenceExecutor exec(build_network(model));
    auto base = std::make_unique<GradientDescentOptimizer>(exec, 0.05);
    EagerDecentralized opt(std::move(base), comm, bound);
    opt.set_loss_value("loss");
    float loss = 0;
    bool finite = true;
    for (int s = 0; s < steps; ++s) {
      loss = opt.train(feeds_for(comm.rank(), s)).at("loss").at(0);
      finite = finite && std::isfinite(loss);
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      row.final_loss = loss;
      row.finite = finite;
      const std::vector<float> params = pack_parameters(exec.network());
      row.checksum = fnv1a(1469598103934665603ull, params.data(),
                           params.size() * sizeof(float));
      // Every rank resolves the same read set: rank 0's counts are the
      // world's.
      row.stale_events = opt.stale_events();
      row.max_staleness = opt.max_staleness_seen();
    }
  });
  return row;
}

struct StragglerRow {
  std::int64_t slow_us = 0;
  SampleSummary step;
  std::uint64_t checksum = 0;
};

/// Synchronous ring DSGD with rank 1 scheduled `slow_us` late per send.
StragglerRow run_straggler(const Model& model, std::int64_t slow_us,
                           int steps) {
  StragglerRow row;
  row.slow_us = slow_us;
  SimMpi mpi(kWorld);
  FaultPlan plan;
  plan.enabled = slow_us > 0;
  plan.seed = 1;
  plan.slow_rank = 1;
  plan.slow_us = slow_us;
  mpi.set_fault_plan(plan);
  std::vector<double> times;
  std::mutex mu;
  mpi.run([&](Communicator& comm) {
    ReferenceExecutor exec(build_network(model));
    auto base = std::make_unique<GradientDescentOptimizer>(exec, 0.05);
    ConsistentDecentralized opt(std::move(base), comm);
    opt.set_loss_value("loss");
    opt.train(feeds_for(comm.rank(), 0));  // warmup
    for (int s = 0; s < steps; ++s) {
      comm.barrier();
      Timer t;
      opt.train(feeds_for(comm.rank(), s + 1));
      comm.barrier();
      if (comm.rank() == 0) times.push_back(t.seconds());
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      const std::vector<float> params = pack_parameters(exec.network());
      row.checksum = fnv1a(1469598103934665603ull, params.data(),
                           params.size() * sizeof(float));
    }
  });
  row.step = summarize(times);
  return row;
}

struct RetryRow {
  double drop_prob = 0;
  double wire_mb_step = 0;
  std::uint64_t drops = 0;
  std::uint64_t delay_us = 0;
  std::uint64_t checksum = 0;
};

/// Ring DSGD under a drop+retry schedule on a 2-rank world.
RetryRow run_retry(const Model& model, double drop_prob, int steps) {
  RetryRow row;
  row.drop_prob = drop_prob;
  SimMpi mpi(2);
  FaultPlan plan;
  plan.enabled = drop_prob > 0.0;
  plan.seed = bench_seed() + 5;
  plan.drop_prob = drop_prob;
  plan.max_retries = 10;  // generous: deliveries always succeed
  plan.retry_timeout_us = 50;
  mpi.set_fault_plan(plan);
  std::mutex mu;
  mpi.run([&](Communicator& comm) {
    ReferenceExecutor exec(build_network(model));
    auto base = std::make_unique<GradientDescentOptimizer>(exec, 0.05);
    ConsistentDecentralized opt(std::move(base), comm);
    opt.set_loss_value("loss");
    for (int s = 0; s < steps; ++s) opt.train(feeds_for(comm.rank(), s));
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      const std::vector<float> params = pack_parameters(exec.network());
      row.checksum = fnv1a(1469598103934665603ull, params.data(),
                           params.size() * sizeof(float));
    }
  });
  row.wire_mb_step =
      static_cast<double>(mpi.total_bytes_sent()) / steps / 1e6;
  row.drops = mpi.fault_injector().drops();
  row.delay_us = mpi.fault_injector().delay_us_injected();
  return row;
}

}  // namespace

int run() {
  const int steps = scale_pick(6, 16, 30);
  print_bench_header(
      "L3 fault/straggler injection: staleness, stragglers, retries",
      bench_seed(),
      "mlp " + std::to_string(kInDim) + "x{48}x10, per-rank batch " +
          std::to_string(kPerRankBatch) + ", world " + std::to_string(kWorld));

  const Model model = fault_model();

  // Sweep 1: convergence vs staleness bound (fixed lateness schedule).
  const std::vector<std::int64_t> bounds{0, 1, 2, 4};
  std::vector<EagerRow> eager;
  for (std::int64_t b : bounds) eager.push_back(run_eager(model, b, 0.9, steps));
  const EagerRow eager_clean = run_eager(model, 0, 0.0, steps);

  Table et({"staleness bound", "final loss", "stale reads", "max staleness",
            "param checksum"});
  for (const auto& r : eager)
    et.add_row({std::to_string(r.bound), Table::num(r.final_loss, 4),
                std::to_string(r.stale_events),
                std::to_string(r.max_staleness), hex(r.checksum)});
  std::cout << et.to_text();

  // Sweep 2: step time vs straggler delay (sync path, timing only).
  const std::vector<std::int64_t> delays{0, 200, 1000};
  std::vector<StragglerRow> strag;
  for (std::int64_t d : delays) strag.push_back(run_straggler(model, d, steps));

  Table st({"straggler delay", "step time", "param checksum"});
  for (const auto& r : strag)
    st.add_row({std::to_string(r.slow_us) + " us", ms(r.step),
                hex(r.checksum)});
  std::cout << "\n" << st.to_text();

  // Sweep 3: wire amplification vs drop probability.
  const std::vector<double> drops{0.0, 0.1, 0.3};
  std::vector<RetryRow> retry;
  for (double p : drops) retry.push_back(run_retry(model, p, steps));

  Table rt({"drop prob", "wire MB/step", "retries", "virtual delay us",
            "param checksum"});
  for (const auto& r : retry)
    rt.add_row({Table::num(r.drop_prob, 2), Table::num(r.wire_mb_step, 3),
                std::to_string(r.drops), std::to_string(r.delay_us),
                hex(r.checksum)});
  std::cout << "\n" << rt.to_text();

  // Invariants (the bench-level echo of test_faults' matrix):
  //  - bound 0 under a lateness schedule == fully synchronous eager run;
  //  - every eager loss is finite and staleness never exceeds its bound;
  //  - every bound >= 1 is reached, so the sweep tells the bounds apart;
  //  - straggler delays and retries never move the sync checksum.
  const bool bound0_sync = eager[0].checksum == eager_clean.checksum;
  bool eager_ok = true;
  bool reaches_bound = true;
  for (const auto& r : eager) {
    eager_ok = eager_ok && r.finite && r.max_staleness <= r.bound;
    if (r.bound >= 1) reaches_bound = reaches_bound && r.max_staleness == r.bound;
  }
  bool sync_identical = true;
  for (const auto& r : strag)
    sync_identical = sync_identical && r.checksum == strag[0].checksum;
  for (const auto& r : retry)
    sync_identical = sync_identical && r.checksum == retry[0].checksum;

  std::cout << "\nbound-0 eager == synchronous: " << (bound0_sync ? "yes" : "NO")
            << "\neager losses finite, staleness <= bound: "
            << (eager_ok ? "yes" : "NO")
            << "\neager staleness reaches every bound: "
            << (reaches_bound ? "yes" : "NO")
            << "\nsync checksum invariant under timing faults: "
            << (sync_identical ? "yes" : "NO") << "\n";

  BenchReport report("l3_faults");
  for (const auto& r : eager) {
    const std::string p = "staleness.b" + std::to_string(r.bound);
    report.add_scalar(p + ".final_loss", r.final_loss, "", Better::kLower);
    report.add_scalar(p + ".stale_reads", static_cast<double>(r.stale_events),
                      "", Better::kNone);
  }
  for (const auto& r : strag)
    report.add_summary("straggler.us" + std::to_string(r.slow_us) + ".step_s",
                       r.step, "s");
  for (const auto& r : retry) {
    const std::string p = "retry.p" + std::to_string(
        static_cast<int>(r.drop_prob * 100));
    report.add_scalar(p + ".wire_mb_per_step", r.wire_mb_step, "MB",
                      Better::kLower);
    report.add_scalar(p + ".virtual_delay_us",
                      static_cast<double>(r.delay_us), "us", Better::kNone);
  }
  report.add_flag("eager_bound0_matches_sync", bound0_sync);
  report.add_flag("eager_finite_and_bounded", eager_ok);
  report.add_flag("eager_staleness_reaches_bound", reaches_bound);
  report.add_flag("sync_checksum_fault_invariant", sync_identical);

  JsonWriter extra;
  extra.begin_object();
  extra.kv("steps", steps);
  extra.key("staleness_sweep");
  extra.begin_array();
  for (const auto& r : eager) {
    extra.begin_object();
    extra.kv("bound", r.bound);
    extra.kv("final_loss", r.final_loss);
    extra.kv("stale_reads", r.stale_events);
    extra.kv("max_staleness", r.max_staleness);
    extra.kv("param_checksum", std::string_view(hex(r.checksum)));
    extra.end_object();
  }
  extra.end_array();
  extra.end_object();
  report.set_extra_json(extra.take());
  report.write_file("BENCH_faults.json");

  return (bound0_sync && eager_ok && reaches_bound && sync_identical) ? 0 : 1;
}

}  // namespace d500::bench

int main() { return d500::bench::run(); }

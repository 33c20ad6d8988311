// End-to-end benchmark: one data-parallel training step and one
// served request, timed whole (--trace 0) and split into per-layer times
// (--trace 1).
//
//   e2e --workload <train-resnet-dp|train-mlp-dp|serve-mlp-open>
//       --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Prints the pinned environment, per-run checks and one "metric" line per
// metric, then as its last line a JSON object {correct, attempted, failed,
// metrics}. Every run prints the same metric names -- the end-to-end set
// untraced, the per-layer set traced -- so each end-to-end metric has a
// definition on every workload:
//   samples_per_s  training: samples trained per second;
//                  serving: requests completed per second while the
//                  overload phase's backlog drains (the pool's capacity)
//   step_p50_ms    training: synchronous world step, median and p95;
//   step_p95_ms    serving: request latency from scheduled arrival to
//                  done_ns in the high phase
//                  (both as medians over consecutive windows of the run)
//   final_loss     training: mean training loss of the steps up to update
//                  200; serving: mean cross-entropy of every reply served
//   setup_s        median of 9 set-ups spread over the run: network
//                  build, passes, plan compile, prepack and the warm-up
//                  step (training) or pool construction, session warm-up
//                  and worker start (serving)
//   peak_rss_mb    ru_maxrss of the process after the first timing window
//                  (training) or round (serving), before the discarded
//                  set-ups add a second model
// A per-layer metric of a layer the workload bypasses (the data layer on
// train-mlp-dp, collectives on serve-mlp-open, ...) reads 0.
#include <iostream>
#include <set>

#include "workloads.hpp"

namespace {

const std::vector<std::string> kEndToEnd = {
    "samples_per_s", "step_p50_ms", "step_p95_ms", "final_loss",
    "setup_s",       "peak_rss_mb"};

std::vector<std::pair<std::string, std::string>> per_layer_names() {
  std::vector<std::pair<std::string, std::string>> v = {
      {"data.wait_ms", "ms"},           {"data.produce_ms", "ms"},
      {"exec.forward_ms", "ms"},        {"exec.backward_ms", "ms"},
      {"exec.first_step_ms", "ms"},     {"graph.planned_mb", "MB"},
      {"graph.naive_mb", "MB"},         {"graph.rewrites", "count"},
      {"train.update_ms", "ms"},        {"dist.exposed_comm_ms", "ms"},
      {"dist.wire_mb_per_step", "MB"},  {"dist.app_mb_per_step", "MB"},
      {"dist.calls_per_step", "count"}, {"dist.hook_launch_frac", "fraction"},
      {"dist.rank_skew_ms", "ms"},      {"serve.batch_us.b1", "us"},
      {"serve.batch_us.b8", "us"},      {"serve.batch_us.b32", "us"},
      {"core.allocs_per_step", "count"}, {"trace.overhead_frac", "fraction"},
      {"unattributed_frac", "fraction"}, {"host.fma_peak_gflops", "GFLOP/s"},
      {"host.stream_gbps", "GB/s"}};
  for (const std::string& t : e2e::kReportedOpTypes) {
    v.push_back({"ops.fwd_ms." + t, "ms"});
    if (e2e::compute_bound(t)) v.push_back({"ops.gflops." + t, "GFLOP/s"});
    v.push_back({"ops.roofline_frac." + t, "fraction"});
  }
  for (const char* ph : {"low", "high", "overload"}) {
    const std::string p = ph;
    v.push_back({"serve.gen_late_us.p99." + p, "us"});
    v.push_back({"serve.sojourn_ms.p50." + p, "ms"});
    v.push_back({"serve.sojourn_ms.p99." + p, "ms"});
    v.push_back({"serve.mean_batch." + p, "count"});
    v.push_back({"serve.pad_frac." + p, "fraction"});
    v.push_back({"serve.deadline_frac." + p, "fraction"});
  }
  return v;
}

int run(int argc, char** argv) {
  const e2e::Args args = e2e::parse_args(argc, argv);
  const bool train = args.workload == "train-resnet-dp" ||
                     args.workload == "train-mlp-dp";
  D500_CHECK_MSG(train || args.workload == "serve-mlp-open",
                 "unknown workload '" << args.workload << "'");
  std::cout << "workload " << args.workload << " seed " << args.seed
            << " seconds " << args.seconds << " trace " << args.trace << "\n";
  // One busy thread per SimMPI rank and per prefetch loader (training), or
  // per serving session plus the generator: kernels run serially inside
  // each, so at most 4 threads are busy on a 4-core host.
  e2e::pin_environment({
      {"D500_THREADS", "1"},
      {"D500_PASSES", "all"},
      {"D500_KERNEL", "auto"},
      {"D500_GEMM", "packed"},
      {"D500_GEMM_EPILOGUE", "fused"},
      {"D500_ARENA", "arena"},
      {"D500_OVERLAP", "1"},
      {"D500_BUCKET_KB", "1024"},
      {"D500_SERVE_POLICY", "adaptive"},
      {"D500_SERVE_SESSIONS", "2"},
      {"D500_SERVE_DEADLINE_US", "2000"},
      {"D500_SERVE_MAX_BATCH", "32"},
      {"D500_SERVE_BUCKETS", "1,2,4,8,16,32"},
      {"D500_METRICS", "1"},
      {"D500_PERF", "off"},
      {"D500_SEED", std::to_string(args.seed)},
      {"D500_TMPDIR", args.workdir},
  });

  e2e::Result r;
  if (train) e2e::run_train(args, r);
  else e2e::run_serve(args, r);

  std::set<std::string> expected;
  if (args.trace) {
    for (const auto& [name, unit] : per_layer_names()) {
      expected.insert(name);
      if (!r.has(name)) r.set(name, 0.0, unit);
    }
  } else {
    expected.insert(kEndToEnd.begin(), kEndToEnd.end());
  }
  D500_CHECK_MSG(r.names() == expected, "metric set does not match the "
                                        "benchmark's declared metrics");
  r.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2e: " << e.what() << "\n";
    return 1;
  }
}

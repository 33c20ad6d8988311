// E2 / Fig. 6b — Level 0 matrix-multiplication benchmark, same protocol as
// bench_l0_conv over the DeepBench GEMM size list; highlighted size
// M=K=2560, N=64 (scaled 1/4 in M and K). Also sweeps every GEMM backend
// under both kernel-dispatch modes (D500_KERNEL scalar vs simd) plus the
// pre-packed-panel path, reporting GFLOP/s with hardware counters (IPC,
// cache MPKI) per leg, plus the batch-4 training Linear under each B
// packing strategy against the host's measured streaming bandwidth, and
// writes BENCH_kernels.json.
#include <cstring>
#include <iostream>

#include "common.hpp"
#include "core/json.hpp"
#include "core/metrics.hpp"
#include "core/perf.hpp"
#include "core/report.hpp"
#include "core/rng.hpp"
#include "core/simd.hpp"
#include "frameworks/framework.hpp"
#include "ops/gemm.hpp"

namespace d500::bench {
namespace {

struct GemmData {
  Tensor a, b, c;
};

GemmData make_data(const GemmSize& s, Rng& rng) {
  GemmData d;
  d.a = Tensor({s.M, s.K});
  d.b = Tensor({s.K, s.N});
  d.c = Tensor({s.M, s.N});
  d.a.fill_uniform(rng, -1, 1);
  d.b.fill_uniform(rng, -1, 1);
  return d;
}

/// Best-of-5 memcpy bandwidth over 32 MiB buffers (read + write bytes per
/// second, in GB/s): the host's streaming ceiling for memory-bound legs.
double measure_stream_gbps() {
  const std::size_t n = std::size_t{8} << 20;
  std::vector<float> src(n, 1.0f), dst(n, 0.0f);
  double best = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    Timer t;
    std::memcpy(dst.data(), src.data(), n * sizeof(float));
    const double s = t.seconds();
    src[static_cast<std::size_t>(trial)] = dst[n - 1] + 1.0f;
    best = std::max(best, 2.0 * static_cast<double>(n * sizeof(float)) / s * 1e-9);
  }
  return best;
}

struct Series {
  std::vector<double> medians;
  void add(const SampleSummary& s) { medians.push_back(s.median * 1e3); }
  std::string distribution() const {
    const auto s = summarize(medians);
    return Table::num(s.p25, 3) + " / " + Table::num(s.median, 3) + " / " +
           Table::num(s.p75, 3);
  }
};

}  // namespace

int run() {
  print_bench_header("L0 GEMM (Fig. 6b)", bench_seed(),
                     "sizes=DeepBench-derived (dims scaled 1/4)");
  Rng rng(bench_seed());
  const auto sizes = deepbench_gemm_sizes();
  const int reruns = bench_reruns();
  const int sweep_reruns = scale_pick(3, 7, 15);

  Series deepbench_series;
  std::map<std::string, Series> native_series, wrapped_series;
  std::map<std::string, double> worst_linf;

  for (const GemmSize& s : sizes) {
    GemmData d = make_data(s, rng);
    const ConstTensors in{&d.a, &d.b};
    const MutTensors out{&d.c};

    // Reference: naive triple loop (Deep500 reference implementation).
    auto ref_op = OperatorRegistry::instance().create(
        "MatMul", Attrs{{"backend", std::string("naive")}});
    Tensor ref_c(d.c.shape());
    ref_op->forward(in, {&ref_c});
    const std::vector<float> reference(ref_c.data(),
                                       ref_c.data() + ref_c.elements());

    auto db = deepbench_kernel("MatMul", {});
    deepbench_series.add(time_operator(*db, in, out, sweep_reruns));

    for (const Framework* fw : all_frameworks()) {
      auto native = fw->native_operator("MatMul", {});
      native_series[fw->name()].add(
          time_operator(*native, in, out, sweep_reruns));
      NormMetric linf(reference, NormKind::kLInf);
      linf.observe(d.c.span());
      worst_linf[fw->name()] =
          std::max(worst_linf[fw->name()], linf.summary());

      auto wrapped = custom_op_from_native(*fw, "MatMul", {});
      wrapped_series[fw->name()].add(
          time_operator(*wrapped, in, out, sweep_reruns));
    }
  }

  std::cout << "\n-- All kernels (per-size medians, ms: p25 / median / p75) --\n";
  Table dist({"framework", "native", "deep500-wrapped"});
  dist.add_row({"deepbench", deepbench_series.distribution(), "-"});
  for (const Framework* fw : all_frameworks())
    dist.add_row({fw->name(), native_series[fw->name()].distribution(),
                  wrapped_series[fw->name()].distribution()});
  std::cout << dist.to_text();

  std::cout << "\n-- Highlighted size M=K=640, N=64 (paper: 2560 scaled 1/4), "
            << reruns << " runs --\n";
  const GemmSize hs = highlighted_gemm_size();
  GemmData d = make_data(hs, rng);
  const ConstTensors in{&d.a, &d.b};
  const MutTensors out{&d.c};
  auto db = deepbench_kernel("MatMul", {});
  const SampleSummary db_time = time_operator(*db, in, out, reruns);

  Table high({"configuration", "median [95% CI]", "vs native"});
  high.add_row({"deepbench (bare kernel)", ms(db_time), "-"});
  for (const Framework* fw : all_frameworks()) {
    auto native = fw->native_operator("MatMul", {});
    auto wrapped = custom_op_from_native(*fw, "MatMul", {});
    const SampleSummary tn = time_operator(*native, in, out, reruns);
    const SampleSummary tw = time_operator(*wrapped, in, out, reruns);
    high.add_row({fw->name() + " native", ms(tn), "-"});
    high.add_row({fw->name() + " deep500", ms(tw),
                  ci_overlap(tn, tw) ? "within CI (indistinguishable)"
                                     : "outside CI"});
  }
  std::cout << high.to_text();

  std::cout << "\n-- Correctness: worst L-inf vs Deep500 reference --\n";
  Table norms({"framework", "linf"});
  for (const auto& [name, v] : worst_linf)
    norms.add_row({name, Table::num(v, 6)});
  std::cout << norms.to_text();

  // -- Backend x dispatch GFLOP/s sweep (highlighted size) ------------------
  // Measures the raw gemm() entry points (no operator wrapper) under both
  // runtime dispatch modes, plus the pre-packed-panel path the PlanExecutor
  // weight cache uses. The kernels-vs-scalar ratio is the SIMD speedup; the
  // packed-vs-blocked ratio is the microkernel's win over cache blocking.
  std::cout << "\n-- GEMM backend x dispatch, M=" << hs.M << " N=" << hs.N
            << " K=" << hs.K << " (isa: " << simd::isa_name() << ") --\n";
  const double flops = static_cast<double>(gemm_flops(hs.M, hs.N, hs.K));
  const simd::KernelDispatch saved = simd::kernel_dispatch();
  struct KernelLeg {
    std::string name;
    double gflops = 0.0;
    double median_s = 0.0;
    PerfCounts hw;
  };
  std::vector<KernelLeg> legs;
  PerfRegion perf;  // one counter group reused across legs
  auto time_leg = [&](const std::string& label, auto&& call) {
    call();  // warmup
    std::vector<double> ts;
    ts.reserve(static_cast<std::size_t>(reruns));
    // Counters bracket the whole timed loop: per-leg IPC / miss rates over
    // `reruns` identical kernel calls.
    perf.begin();
    for (int r = 0; r < reruns; ++r) {
      Timer t;
      call();
      ts.push_back(t.seconds());
    }
    const PerfCounts hw = perf.end();
    const SampleSummary s = summarize(ts);
    legs.push_back({label, flops / s.median * 1e-9, s.median, hw});
  };
  const struct {
    GemmBackend backend;
    const char* name;
  } backends[] = {{GemmBackend::kNaive, "naive"},
                  {GemmBackend::kBlocked, "blocked"},
                  {GemmBackend::kPacked, "packed"}};
  for (const auto dm : {simd::KernelDispatch::kScalar,
                        simd::KernelDispatch::kSimd}) {
    simd::set_kernel_dispatch(dm);
    const std::string suffix =
        std::string("/") + simd::kernel_dispatch_name(dm);
    for (const auto& bk : backends) {
      if (bk.backend == GemmBackend::kNaive &&
          dm == simd::KernelDispatch::kSimd)
        continue;  // naive has no vector path; the scalar leg covers it
      time_leg(bk.name + suffix, [&] {
        gemm(bk.backend, hs.M, hs.N, hs.K, 1.0f, d.a.data(), d.b.data(), 0.0f,
             d.c.data());
      });
    }
    // Pre-packed panels: what a warm PlanExecutor step pays per GEMM.
    std::vector<float> pa(
        static_cast<std::size_t>(gemm_packed_a_elems(hs.M, hs.K)));
    std::vector<float> pb(
        static_cast<std::size_t>(gemm_packed_b_elems(hs.K, hs.N)));
    gemm_pack_a(hs.M, hs.K, d.a.data(), pa.data());
    gemm_pack_b(hs.K, hs.N, d.b.data(), pb.data());
    time_leg("packed+prepack" + suffix, [&] {
      gemm_packed_ex(hs.M, hs.N, hs.K, 1.0f, d.a.data(), pa.data(),
                     d.b.data(), pb.data(), false, 0.0f, d.c.data());
    });
  }
  simd::set_kernel_dispatch(saved);

  // -- Epilogue fusion sweep ------------------------------------------------
  // Linear-shaped GEMM (Y = X W^T + bias, then an activation chain) with the
  // epilogue fused into the tile store (one kernel launch) vs the post-GEMM
  // sweeps (D500_GEMM_EPILOGUE=post, the pre-fusion path). Two regimes:
  // the deep-K highlighted size (compute-bound — the epilogue is a small
  // fraction of the work, so fusion is roughly neutral there) and a
  // shallow-K/large-output shape where every post sweep is a DRAM round
  // trip over Y — the regime tile-store fusion targets.
  // Pre-packed weights, native dispatch.
  std::cout << "\n-- GEMM epilogue: fused tile-store vs post sweeps "
            << "(Linear fwd, prepacked W) --\n";
  struct EpiLeg {
    std::string name;
    double median_s = 0.0;
    double gflops = 0.0;
  };
  std::vector<EpiLeg> epi_legs;
  const GemmSize epi_sizes[] = {
      hs,                  // deep-K, compute-bound
      {4096, 64, 64},      // shallow-K: 1 MB output, sweeps hit DRAM
  };
  const EpilogueMode saved_mode = gemm_epilogue_mode();
  for (const GemmSize& es : epi_sizes) {
    const std::string size_tag = "M" + std::to_string(es.M) + "N" +
                                 std::to_string(es.N) + "K" +
                                 std::to_string(es.K);
    const double eflops = static_cast<double>(gemm_flops(es.M, es.N, es.K));
    Tensor X({es.M, es.K}), Wt({es.N, es.K}), bias({es.N}), Y({es.M, es.N});
    X.fill_uniform(rng, -1, 1);
    Wt.fill_uniform(rng, -1, 1);
    bias.fill_uniform(rng, -1, 1);
    std::vector<float> panels(
        static_cast<std::size_t>(gemm_packed_b_elems(es.K, es.N)));
    gemm_pack_bt(es.N, es.K, Wt.data(), panels.data());
    const struct {
      const char* name;
      std::vector<Activation> chain;
    } chains[] = {
        {"bias", {}},
        {"bias+relu", {Activation::kReLU}},
        {"bias+chain4",
         {Activation::kTanh, Activation::kSigmoid, Activation::kReLU,
          Activation::kTanh}},
    };
    for (const auto& cs : chains) {
      for (const EpilogueMode mode :
           {EpilogueMode::kFused, EpilogueMode::kPost}) {
        set_gemm_epilogue_mode(mode);
        LinearOp op(GemmBackend::kPacked);
        for (const Activation a : cs.chain) op.try_fuse_epilogue(a);
        op.set_prepacked_w(panels.data(), Wt.data());
        const ConstTensors lin{&X, &Wt, &bias};
        op.forward(lin, {&Y});  // warmup
        std::vector<double> ts;
        ts.reserve(static_cast<std::size_t>(reruns));
        for (int r = 0; r < reruns; ++r) {
          Timer t;
          op.forward(lin, {&Y});
          ts.push_back(t.seconds());
        }
        const SampleSummary s = summarize(ts);
        epi_legs.push_back({size_tag + "." + cs.name + "/" +
                                epilogue_mode_name(mode),
                            s.median, eflops / s.median * 1e-9});
      }
    }
  }
  set_gemm_epilogue_mode(saved_mode);
  Table et({"size.epilogue/mode", "median", "GFLOP/s", "fused vs post"});
  for (std::size_t i = 0; i < epi_legs.size(); i += 2) {
    const EpiLeg& f = epi_legs[i];
    const EpiLeg& p = epi_legs[i + 1];
    et.add_row({f.name, Table::num(f.median_s * 1e3, 3) + " ms",
                Table::num(f.gflops, 2),
                Table::num(p.median_s / f.median_s, 2) + "x"});
    et.add_row({p.name, Table::num(p.median_s * 1e3, 3) + " ms",
                Table::num(p.gflops, 2), "-"});
  }
  std::cout << et.to_text();

  // -- Training Linear: where per-call packing goes ------------------------
  // A batch-4 training step meets each weight once per parameter version,
  // so its Linear GEMMs (M = 4, one microkernel row block) get nothing back
  // from packing all of W first. Forward (Y = X W^T, B transposed): the
  // prepacked panels a serving session holds, the per-call workspace (pack
  // every panel, then compute) and the streamed path (each panel packed
  // into a cache-resident tile right before its one use). Input gradient
  // (dX = dY W, B row-major): workspace vs reading W in place. Every leg
  // reads the 4 MiB weight at least once, so each is also quoted as that
  // traffic over the measured streaming bandwidth (W may partly stay in
  // the last-level cache between repetitions, which can lift the fraction).
  const double stream_gbps = measure_stream_gbps();
  const std::int64_t tb = 4, tin = 1024, tout = 1024;
  std::cout << "\n-- Training Linear M=" << tb << ", " << tout << "x" << tin
            << " (stream " << Table::num(stream_gbps, 1) << " GB/s) --\n";
  Tensor TX({tb, tin}), TW({tout, tin}), TY({tb, tout}), TdY({tb, tout}),
      TdX({tb, tin});
  TX.fill_uniform(rng, -1, 1);
  TW.fill_uniform(rng, -1, 1);
  TdY.fill_uniform(rng, -1, 1);
  std::vector<float> wt_panels(
      static_cast<std::size_t>(gemm_packed_b_elems(tin, tout)));
  std::vector<float> w_panels(
      static_cast<std::size_t>(gemm_packed_b_elems(tout, tin)));
  gemm_pack_bt(tout, tin, TW.data(), wt_panels.data());
  struct TrainLeg {
    std::string name;
    double median_s = 0.0;
  };
  std::vector<TrainLeg> train_legs;
  auto time_train = [&](const std::string& label, auto&& call) {
    call();  // warmup: grows the per-thread workspaces and tiles
    std::vector<double> ts;
    ts.reserve(static_cast<std::size_t>(reruns));
    for (int r = 0; r < reruns; ++r) {
      Timer t;
      call();
      ts.push_back(t.seconds());
    }
    train_legs.push_back({label, summarize(ts).median});
  };
  time_train("fwd.prepacked", [&] {
    gemm_packed_ex(tb, tout, tin, 1.0f, TX.data(), nullptr, TW.data(),
                   wt_panels.data(), true, 0.0f, TY.data());
  });
  time_train("fwd.workspace", [&] {
    gemm_pack_bt(tout, tin, TW.data(), wt_panels.data());
    gemm_packed_ex(tb, tout, tin, 1.0f, TX.data(), nullptr, TW.data(),
                   wt_panels.data(), true, 0.0f, TY.data());
  });
  time_train("fwd.streamed", [&] {
    gemm_packed_ex(tb, tout, tin, 1.0f, TX.data(), nullptr, TW.data(),
                   nullptr, true, 0.0f, TY.data());
  });
  time_train("dx.workspace", [&] {
    gemm_pack_b(tout, tin, TW.data(), w_panels.data());
    gemm_packed_ex(tb, tin, tout, 1.0f, TdY.data(), nullptr, TW.data(),
                   w_panels.data(), false, 0.0f, TdX.data());
  });
  time_train("dx.direct", [&] {
    gemm_packed_ex(tb, tin, tout, 1.0f, TdY.data(), nullptr, TW.data(),
                   nullptr, false, 0.0f, TdX.data());
  });
  const double train_flops = static_cast<double>(gemm_flops(tb, tout, tin));
  const double w_bytes = static_cast<double>(TW.bytes());
  Table tt({"leg", "median", "GFLOP/s", "W bytes / stream bw"});
  for (const TrainLeg& leg : train_legs)
    tt.add_row({leg.name, Table::num(leg.median_s * 1e3, 3) + " ms",
                Table::num(train_flops / leg.median_s * 1e-9, 2),
                Table::num(w_bytes / leg.median_s * 1e-9 / stream_gbps, 2)});
  std::cout << tt.to_text();

  const bool hw_live = perf.perf_available();
  Table kt(hw_live
               ? std::vector<std::string>{"kernel/dispatch", "median",
                                          "GFLOP/s", "ipc", "c-mpki"}
               : std::vector<std::string>{"kernel/dispatch", "median",
                                          "GFLOP/s"});
  double blocked_simd = 0.0, packed_simd = 0.0;
  for (const KernelLeg& leg : legs) {
    std::vector<std::string> row{leg.name,
                                 Table::num(leg.median_s * 1e3, 3) + " ms",
                                 Table::num(leg.gflops, 2)};
    if (hw_live) {
      row.push_back(Table::num(leg.hw.ipc(), 2));
      row.push_back(Table::num(leg.hw.cache_mpki(), 2));
    }
    kt.add_row(std::move(row));
    if (leg.name == "blocked/simd") blocked_simd = leg.gflops;
    if (leg.name == "packed/simd") packed_simd = leg.gflops;
  }
  std::cout << kt.to_text();
  if (!hw_live)
    std::cout << "(hardware counters unavailable; D500_PERF/"
                 "perf_event_paranoid — wall-clock only)\n";
  if (blocked_simd > 0.0)
    std::cout << "packed vs blocked (simd): " << Table::num(
                     packed_simd / blocked_simd, 2) << "x\n";

  BenchReport report("l0_gemm");
  report.add_summary("highlight.deepbench_s", db_time, "s");
  for (const KernelLeg& leg : legs) {
    report.add_scalar("gemm." + leg.name + ".gflops", leg.gflops, "GFLOP/s",
                      Better::kHigher);
    report.add_perf("gemm." + leg.name, leg.hw);
  }
  for (const EpiLeg& leg : epi_legs)
    report.add_scalar("epilogue." + leg.name + ".gflops", leg.gflops,
                      "GFLOP/s", Better::kHigher);
  report.add_scalar("host.stream_gbps", stream_gbps, "GB/s", Better::kHigher);
  for (const TrainLeg& leg : train_legs) {
    report.add_scalar("train_linear." + leg.name + ".gflops",
                      train_flops / leg.median_s * 1e-9, "GFLOP/s",
                      Better::kHigher);
    report.add_scalar("train_linear." + leg.name + ".stream_frac",
                      w_bytes / leg.median_s * 1e-9 / stream_gbps, "fraction",
                      Better::kHigher);
  }
  for (const auto& [name, v] : worst_linf)
    report.add_scalar("linf." + name, v, "abs");
  JsonWriter extra;
  extra.begin_object();
  extra.kv("isa", std::string_view(simd::isa_name()));
  extra.kv("native_width", simd::kNativeWidth);
  extra.key("size");
  extra.begin_object();
  extra.kv("M", static_cast<std::int64_t>(hs.M));
  extra.kv("N", static_cast<std::int64_t>(hs.N));
  extra.kv("K", static_cast<std::int64_t>(hs.K));
  extra.end_object();
  extra.end_object();
  report.set_extra_json(extra.take());
  report.write_file("BENCH_kernels.json");
  return 0;
}

}  // namespace d500::bench

int main() { return d500::bench::run(); }

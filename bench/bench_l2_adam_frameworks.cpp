// E9 / Fig. 10 — Adam across frameworks: native Adam vs. Deep500 reference
// Adam over both the TFSim and CF2Sim executors (four configurations, as
// in the paper's "Adam TF / Adam CF2 / Adam TF Deep500 / Adam CF2
// Deep500"). All must converge to comparable accuracy; the composed TF
// native pays for temporaries and extra memory passes. The fused CF2
// native and the Deep500 reference Adam run the same in-place kernel
// (train/update_kernels), so the reference is no slower than the fused
// native: the isolated-update table reports each optimizer's bytes moved
// and achieved bandwidth.
#include <iostream>
#include <map>

#include "common.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "frameworks/framework.hpp"
#include "models/builders.hpp"
#include "train/optimizers.hpp"
#include "train/trainer.hpp"

namespace d500::bench {

int run() {
  const std::int64_t batch = 16;
  const std::int64_t epochs = scale_pick<std::int64_t>(2, 3, 8);
  print_bench_header("L2 Adam across frameworks (Fig. 10)", bench_seed(),
                     std::to_string(epochs) + " epochs");

  DatasetSpec spec = cifar10_like_spec();
  spec.height = spec.width = 16;
  spec.train_size = scale_pick<std::int64_t>(256, 512, 2048);
  ProceduralImageDataset train(spec, bench_seed());
  ProceduralImageDataset test(spec, bench_seed(), 0.25f, 1 << 20);
  const Model model = models::resnet(batch, 3, 16, 16, spec.classes, 8, 1,
                                     bench_seed());

  struct Config {
    std::string label;
    const Framework* fw;
    bool reference;
  };
  const std::vector<Config> configs = {
      {"Adam TF (native)", &tfsim(), false},
      {"Adam CF2 (native)", &cf2sim(), false},
      {"Adam TF Deep500", &tfsim(), true},
      {"Adam CF2 Deep500", &cf2sim(), true},
  };

  Table t({"configuration", "final acc", "final loss", "train time [s]"});
  std::map<std::string, double> times, accs;
  for (const Config& cfg : configs) {
    auto exec = cfg.fw->compile(model);
    std::unique_ptr<Optimizer> opt;
    if (cfg.reference)
      opt = std::make_unique<AdamOptimizer>(*exec, 0.005);
    else
      opt = cfg.fw->native_adam(*exec, 0.005);
    opt->set_loss_value("loss");
    ShuffleSampler sampler(train.size(), batch, bench_seed());
    Runner runner(*opt, train, test, sampler, batch);
    const RunStats stats = runner.run(epochs);
    times[cfg.label] = stats.epochs.back().cumulative_seconds;
    accs[cfg.label] = stats.final_test_accuracy();
    t.add_row({cfg.label, Table::num(accs[cfg.label], 3),
               Table::num(stats.epochs.back().train_loss, 3),
               Table::num(times[cfg.label], 2)});
  }
  std::cout << "\n" << t.to_text();

  // Isolated update cost: on a parameter-dominated model (2.4M-element
  // layer, batch 1) the fused-vs-composed difference is not drowned by
  // forward/backward. This is the Use Case 1 effect (Caffe2's single
  // fused kernel vs TensorFlow's operator composition) at C++ speed; the
  // paper's 5x reference gap additionally includes Python dispatch, which
  // this reproduction models in the Level 3 reference-path cost model.
  //
  // The three optimizers and a forward/backward-only executor step round
  // robin, 20 rounds; update [ms] is the median over rounds of the step
  // minus that round's forward/backward-only step. bytes moved is the
  // streaming traffic of the update per parameter element: 28 B for the
  // one-pass kernel (read g, m, v, p; write m, v, p) and 120 B for the
  // composed chain (15 whole-array passes: four zero-filled temporaries, a
  // copy, four scales, two adds, a square, the denominator and quotient
  // loops and the final axpy).
  std::cout << "\n-- Isolated update cost (2.4M params, batch 1, median of "
               "20 interleaved rounds) --\n";
  std::map<std::string, double> step_ms;
  {
    const Model big = models::mlp(1, 1200, {2000}, 10, bench_seed());
    Rng rng(bench_seed());
    TensorMap feeds;
    Tensor d({1, 1200});
    d.fill_uniform(rng, -1, 1);
    feeds["data"] = std::move(d);
    feeds["labels"] = Tensor({1});

    struct UCfg {
      std::string label;
      double bytes_per_param;
      std::function<std::unique_ptr<Optimizer>(GraphExecutor&)> make;
    };
    const std::vector<UCfg> cfgs = {
        {"fused Adam (CF2-style)", 28.0,
         [](GraphExecutor& e) { return cf2sim().native_adam(e, 1e-3); }},
        {"composed Adam (TF-style)", 120.0,
         [](GraphExecutor& e) { return tfsim().native_adam(e, 1e-3); }},
        {"reference Adam (Deep500)", 28.0,
         [](GraphExecutor& e) {
           return std::make_unique<AdamOptimizer>(e, 1e-3);
         }}};
    struct URun {
      std::unique_ptr<GraphExecutor> exec;
      std::unique_ptr<Optimizer> opt;
      std::vector<double> step, update;
    };
    std::vector<URun> runs(cfgs.size());
    auto fwd_exec = cf2sim().compile(big);
    const double params =
        static_cast<double>(fwd_exec->network().parameter_count());
    fwd_exec->inference_and_backprop(feeds, "loss");  // warmup
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      runs[i].exec = cf2sim().compile(big);
      runs[i].opt = cfgs[i].make(*runs[i].exec);
      runs[i].opt->set_loss_value("loss");
      runs[i].opt->train(feeds);  // warmup
    }
    std::vector<double> fwd_bwd;
    for (int r = 0; r < 20; ++r) {
      Timer tf;
      fwd_exec->inference_and_backprop(feeds, "loss");
      fwd_bwd.push_back(tf.seconds() * 1e3);
      for (URun& run : runs) {
        Timer tm;
        run.opt->train(feeds);
        run.step.push_back(tm.seconds() * 1e3);
        run.update.push_back(run.step.back() - fwd_bwd.back());
      }
    }

    Table u({"optimizer", "step [ms]", "update [ms]", "bytes moved [MB]",
             "update [GB/s]"});
    u.add_row({"forward/backward only", Table::num(median(fwd_bwd), 2), "-",
               "-", "-"});
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      const UCfg& c = cfgs[i];
      step_ms[c.label] = median(runs[i].step);
      const double update_ms = median(runs[i].update);
      const double mb = c.bytes_per_param * params / 1e6;
      u.add_row({c.label, Table::num(step_ms[c.label], 2),
                 Table::num(update_ms, 2), Table::num(mb, 1),
                 update_ms > 0 ? Table::num(mb / update_ms, 1) : "-"});
    }
    std::cout << u.to_text();
  }

  double min_acc = 1.0, max_acc = 0.0;
  for (const auto& [_, a] : accs) {
    min_acc = std::min(min_acc, a);
    max_acc = std::max(max_acc, a);
  }
  std::cout << "\nshape checks (paper Fig. 10):\n"
            << "  all four configurations reach comparable accuracy "
               "(spread "
            << Table::num(max_acc - min_acc, 3) << " <= 0.15): "
            << (max_acc - min_acc <= 0.15 ? "yes" : "NO") << "\n"
            << "  Deep500 reference achieves high accuracy even where "
               "implementations differ: "
            << (min_acc > 0.5 ? "yes" : "NO") << "\n"
            << "  fused CF2 native faster than composed TF native "
               "(end-to-end): "
            << (times["Adam CF2 (native)"] < times["Adam TF (native)"]
                    ? "yes"
                    : "NO")
            << "\n  fused beats composed on the isolated update: "
            << (step_ms["fused Adam (CF2-style)"] <
                        step_ms["composed Adam (TF-style)"]
                    ? "yes"
                    : "NO")
            << "\n";
  return 0;
}

}  // namespace d500::bench

int main() { return d500::bench::run(); }

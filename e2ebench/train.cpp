// Synchronous data-parallel training over a 2-rank SimMPI world with
// BucketedDecentralized (bucketed ring allreduce, overlap from the
// grad-ready hook).
//
//   train-resnet-dp  small ResNet on 3x32x32 d5j records decoded through
//                    RecordPipeline behind a PrefetchLoader per rank, with
//                    momentum SGD: conv/BN compute and the data layer.
//   train-mlp-dp     wide MLP (~2.6M parameters) at per-rank batch 4 on
//                    fixed in-memory feeds, with Adam: gradient exchange
//                    and the optimizer; conv and the data layer are
//                    bypassed.
//
// A step is timed from the barrier that releases both ranks to the barrier
// both reach after BucketedDecentralized::train returns, so a world step
// is what the slower rank took. The untraced run reports the end-to-end
// metrics; the traced run splits the same step into layers with a
// StepProbe on each rank's executor and timers around the loader and the
// producer.
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <thread>

#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "data/codec.hpp"
#include "data/container.hpp"
#include "data/dataset.hpp"
#include "data/pipeline.hpp"
#include "dist/dist_optimizer.hpp"
#include "frameworks/plan_executor.hpp"
#include "graph/visitor.hpp"
#include "models/builders.hpp"
#include "train/optimizers.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using d500::Batch;
using d500::Communicator;
using d500::Model;
using d500::PlanExecutor;
using d500::SimMpi;
using d500::Tensor;
using d500::TensorMap;

// The timed loop runs in kWindows windows; throughput and step quantiles
// are medians over the windows. setup_s is the median of one set-up before
// the first window and kSetupsPerGap between each pair of windows.
constexpr std::size_t kWindows = 5;
constexpr int kSetupsPerGap = 2;
// final_loss is the mean training loss of the steps up to update
// kLossSteps; the parameter checksum is taken after that update.
constexpr int kLossSteps = 200;
constexpr std::int64_t kRecordsPerRank = 256;
// The task -- initial weights and the data distribution -- is fixed; the
// run's seed picks the training samples and their order.
constexpr std::uint64_t kTaskSeed = 500;

struct TrainSpec {
  bool resnet = false;
  std::int64_t batch = 0;  // per rank
  std::int64_t in_dim = 0; // mlp only
  std::int64_t classes = 10;
};

TrainSpec spec_for(const std::string& workload) {
  if (workload == "train-resnet-dp") return {true, 8, 0, 10};
  return {false, 4, 1024, 10};
}

Model build_model(const TrainSpec& s) {
  if (s.resnet)
    return d500::models::resnet(s.batch, 3, 32, 32, s.classes,
                                /*base_width=*/8, /*blocks_per_stage=*/1,
                                kTaskSeed);
  return d500::models::mlp(s.batch, s.in_dim, {1024, 1024, 512}, s.classes,
                           kTaskSeed);
}

d500::DatasetSpec image_spec() {
  d500::DatasetSpec spec = d500::cifar10_like_spec();
  spec.train_size = kRecordsPerRank;
  return spec;
}

/// FNV-1a over raw bytes.
std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Calls ThreadPool::notify() every millisecond while alive.
///
/// Workaround for a lost wakeup in the library: a nonblocking allreduce's
/// completion task stores `done` and then calls ThreadPool::notify(), which
/// signals the pool's condition variable without taking the pool mutex. A
/// rank that has just found `done` false inside help_while() and is about
/// to block can miss that signal and sleep forever, hanging the world (seen
/// about once in fifteen traced train-resnet-dp runs). The periodic notify
/// bounds such a stall to about a millisecond instead.
class PoolWaker {
 public:
  PoolWaker()
      : thread_([this] {
          while (!stop_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            d500::ThreadPool::instance().notify();
          }
        }) {}
  ~PoolWaker() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  PoolWaker(const PoolWaker&) = delete;
  PoolWaker& operator=(const PoolWaker&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after stop_ exists
};

/// Writes each rank's shard of d5j-encoded records under `dir` (fixture
/// generation, not part of set-up).
std::vector<std::string> write_fixture(const std::string& dir, int rank,
                                       std::uint64_t seed) {
  const auto first = static_cast<std::int64_t>(
      (seed % 1'000'000) * 2 + static_cast<std::uint64_t>(rank));
  d500::ProceduralImageDataset ds(image_spec(), kTaskSeed, 0.25f,
                                  first * kRecordsPerRank);
  std::vector<d500::Record> records;
  for (std::int64_t i = 0; i < kRecordsPerRank; ++i) {
    d500::Record r;
    const d500::RawImage img = ds.raw(i, r.label);
    r.payload = d500::encode_image(img, 75);
    records.push_back(std::move(r));
  }
  return d500::write_sharded_record_files(
      dir + "/rank" + std::to_string(rank), records, 2);
}

/// Fixed in-memory minibatches for the MLP: class means (part of the task)
/// plus noise drawn from the seed, so the loss falls steadily.
std::vector<TensorMap> mlp_feeds(const TrainSpec& s, int rank,
                                 std::uint64_t seed) {
  d500::Rng means_rng(kTaskSeed);
  std::vector<std::vector<float>> means(static_cast<std::size_t>(s.classes));
  for (auto& m : means) {
    m.resize(static_cast<std::size_t>(s.in_dim));
    for (float& x : m) x = means_rng.uniform(-0.3f, 0.3f);
  }
  d500::Rng rng(seed + 7919ull * static_cast<std::uint64_t>(rank + 1));
  std::vector<TensorMap> feeds(256);
  for (auto& f : feeds) {
    Tensor d({s.batch, s.in_dim});
    Tensor l({s.batch});
    for (std::int64_t b = 0; b < s.batch; ++b) {
      const auto c = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(s.classes)));
      l.at(b) = static_cast<float>(c);
      for (std::int64_t k = 0; k < s.in_dim; ++k)
        d.at(b * s.in_dim + k) =
            means[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)] +
            rng.normal();
    }
    f["data"] = std::move(d);
    f["labels"] = std::move(l);
  }
  return feeds;
}

/// One rank's data source. The ResNet path times the producer (inside the
/// loader thread) and the consumer's wait separately.
class RankData {
 public:
  RankData(const TrainSpec& s, int rank, std::uint64_t seed,
           const std::vector<std::string>& shards) {
    if (!s.resnet) {
      fixed_ = mlp_feeds(s, rank, seed);
      return;
    }
    pipeline_ = std::make_unique<d500::RecordPipeline>(
        shards, image_spec(), /*shuffle_buffer=*/64,
        d500::DecoderKind::kTurboSim, seed + static_cast<std::uint64_t>(rank));
    const std::int64_t batch = s.batch;
    loader_ = std::make_unique<d500::PrefetchLoader>(
        [this, batch] {
          const std::int64_t t0 = now_ns();
          Batch b = pipeline_->next_batch(batch);
          produce_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
          produced_.fetch_add(1, std::memory_order_relaxed);
          return b;
        },
        /*depth=*/2);
  }
  /// Next minibatch; valid until the following call.
  const TensorMap& next() {
    if (!loader_) return fixed_[pos_++ % fixed_.size()];
    Batch b = loader_->next();
    staged_["data"] = std::move(b.data);
    staged_["labels"] = std::move(b.labels);
    return staged_;
  }

  std::int64_t produce_ns() const { return produce_ns_.load(); }
  std::int64_t produced() const { return produced_.load(); }

 private:
  std::vector<TensorMap> fixed_;
  std::size_t pos_ = 0;
  std::unique_ptr<d500::RecordPipeline> pipeline_;
  std::atomic<std::int64_t> produce_ns_{0};
  std::atomic<std::int64_t> produced_{0};
  TensorMap staged_;
  std::unique_ptr<d500::PrefetchLoader> loader_;  // last: stops first
};

/// Everything one rank trains with.
struct RankState {
  RankState(const TrainSpec& s, const Model& model, Communicator& comm,
            std::uint64_t seed, const std::vector<std::string>& shards)
      : exec(d500::build_network(model), "plan", d500::ExecOptions{}),
        probe(std::make_shared<StepProbe>(exec.network())),
        data(s, comm.rank(), seed, shards) {
    std::unique_ptr<d500::ThreeStepOptimizer> base;
    if (s.resnet)
      base = std::make_unique<d500::MomentumOptimizer>(exec, 0.01, 0.9);
    else
      base = std::make_unique<d500::AdamOptimizer>(exec, 3e-4);
    opt = std::make_unique<d500::BucketedDecentralized>(std::move(base), comm);
    opt->set_loss_value("loss");
  }
  /// Listeners are attached only for traced phases: an executor with any
  /// event pays the dispatch cost on every operator.
  void trace() {
    exec.add_event(probe);
    probe->enabled = true;
  }
  PlanExecutor exec;
  std::shared_ptr<StepProbe> probe;
  RankData data;
  std::unique_ptr<d500::BucketedDecentralized> opt;
};

/// Phase control shared by the ranks of one world. Every rank calls
/// start() to enter a phase and finish() after each step; the barrier's
/// completion step (run once per round, while every rank waits) records
/// the world step time and decides whether another step runs.
class StepClock {
 public:
  explicit StepClock(int ranks)
      : finish_(static_cast<std::size_t>(ranks)),
        barrier_(ranks, Completion{this}) {}

  /// Rank 0's arguments configure the phase: it runs while fewer than
  /// `min_steps` steps ran or less than `seconds` passed, and never more
  /// than `max_steps` steps.
  void start(int rank, double seconds, int min_steps, int max_steps) {
    if (rank == 0) {
      pending_seconds_ = seconds;
      pending_min_ = min_steps;
      pending_max_ = max_steps;
      pending_ = true;
    }
    barrier_.arrive_and_wait();
  }
  void finish(int rank) {
    finish_[static_cast<std::size_t>(rank)] = now_ns();
    barrier_.arrive_and_wait();
  }
  bool go() const { return go_; }
  std::int64_t step_start() const { return t_start_; }

  std::vector<double> step_ms;   // world step times of the current phase
  std::vector<double> skew_ms;   // spread of rank finish times per step
  /// Called in the completion step at the start and end of every phase
  /// (byte counters are read there while no rank runs).
  std::function<void(bool begin)> on_phase;

 private:
  struct Completion {
    StepClock* c;
    void operator()() noexcept { c->complete(); }
  };
  void complete() {
    const std::int64_t t = now_ns();
    if (launched_) {
      step_ms.push_back(static_cast<double>(t - t_start_) / 1e6);
      const auto [lo, hi] = std::minmax_element(finish_.begin(), finish_.end());
      skew_ms.push_back(static_cast<double>(*hi - *lo) / 1e6);
      ++steps_;
    }
    if (pending_) {
      pending_ = false;
      step_ms.clear();
      skew_ms.clear();
      steps_ = 0;
      deadline_ = t + static_cast<std::int64_t>(pending_seconds_ * 1e9);
      min_steps_ = pending_min_;
      max_steps_ = pending_max_;
      if (on_phase) on_phase(true);
      go_ = true;
    }
    if (go_ && steps_ >= max_steps_) go_ = false;
    if (go_ && steps_ >= min_steps_ && t >= deadline_) go_ = false;
    if (!go_ && launched_ && on_phase) on_phase(false);
    launched_ = go_;
    t_start_ = now_ns();
  }

  std::vector<std::int64_t> finish_;
  std::barrier<Completion> barrier_;
  bool pending_ = false;
  double pending_seconds_ = 0;
  int pending_min_ = 0, pending_max_ = 0;
  bool go_ = false, launched_ = false;
  int steps_ = 0, min_steps_ = 0, max_steps_ = 0;
  std::int64_t deadline_ = 0, t_start_ = 0;
};

/// Per-rank per-step breakdown (traced phases).
struct Breakdown {
  std::vector<double> wait_ms, fwd_ms, bwd_ms, after_ms, own_ms;
  std::vector<double> loss;
  std::int64_t nonfinite = 0;
};

/// Runs one step on `st` and records its loss, plus its layer times when
/// the probe is enabled.
void train_step(RankState& st, StepClock& clock, Breakdown& bd) {
  const std::int64_t t0 = now_ns();
  const TensorMap& feeds = st.data.next();
  const std::int64_t t1 = now_ns();
  StepProbe& p = *st.probe;
  const std::int64_t f0 = p.forward_ns, b0 = p.backward_ns;
  const TensorMap out = st.opt->train(feeds);
  const std::int64_t t2 = now_ns();
  const double loss = out.at("loss").at(0);
  if (!std::isfinite(loss)) ++bd.nonfinite;
  bd.loss.push_back(loss);
  if (p.enabled) {
    bd.wait_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    bd.fwd_ms.push_back(static_cast<double>(p.forward_ns - f0) / 1e6);
    bd.bwd_ms.push_back(static_cast<double>(p.backward_ns - b0) / 1e6);
    bd.after_ms.push_back(static_cast<double>(t2 - p.after_backprop_at) / 1e6);
    bd.own_ms.push_back(static_cast<double>(t2 - clock.step_start()) / 1e6);
  }
}

std::uint64_t param_checksum(PlanExecutor& exec) {
  const std::vector<float> params = d500::pack_parameters(exec.network());
  return fnv1a(params.data(), params.size() * sizeof(float));
}

// ---- untraced run: end-to-end metrics ----------------------------------

void run_untraced(const TrainSpec& spec, const Args& args,
                  const std::vector<std::vector<std::string>>& shards,
                  Result& r) {
  const Model model = build_model(spec);
  SimMpi mpi(2);
  StepClock clock(2);
  std::vector<double> setup_s;
  std::vector<Breakdown> bd(2);
  std::vector<std::uint64_t> sum_at_loss(2), sum_final(2);
  std::vector<std::vector<double>> windows;  // world step times per window
  int step_index = 0;                        // rank 0: timed steps so far
  double rss_mb = 0;
  mpi.run([&](Communicator& comm) {
    const int rank = comm.rank();
    const auto ri = static_cast<std::size_t>(rank);
    // One set-up: build the rank's network, executor, optimizer and data
    // source, then run the warm-up step (update 1).
    auto setup = [&] {
      clock.start(rank, 0.0, 1, 1);
      auto fresh = std::make_unique<RankState>(spec, model, comm, args.seed, shards[ri]);
      Breakdown warm;
      train_step(*fresh, clock, warm);
      clock.finish(rank);
      if (rank == 0) setup_s.push_back(clock.step_ms.back() / 1e3);
      return fresh;
    };
    // The first set-up trains; the others are discarded at once. They run
    // between the timing windows so the set-up median spans the run.
    const std::unique_ptr<RankState> st = setup();
    Breakdown& mine = bd[ri];
    int updates = 1;
    for (std::size_t w = 0; w < kWindows; ++w) {
      clock.start(rank, args.seconds / kWindows,
                  (kLossSteps + static_cast<int>(kWindows) - 1) / static_cast<int>(kWindows),
                  1 << 30);
      while (clock.go()) {
        train_step(*st, clock, mine);
        if (++updates == kLossSteps) sum_at_loss[ri] = param_checksum(st->exec);
        clock.finish(rank);
      }
      if (rank == 0) {
        // The step that also took the checksum is not a representative step.
        windows.emplace_back();
        for (double ms : clock.step_ms)
          if (step_index++ != kLossSteps - 2) windows.back().push_back(ms);
        // Before any discarded set-up adds a second model to the process.
        if (w == 0) rss_mb = peak_rss_mb();
      }
      for (int k = 0; w + 1 < kWindows && k < kSetupsPerGap; ++k) setup();
    }
    sum_final[ri] = param_checksum(st->exec);
  });

  r.attempted = step_index;
  r.failed = bd[0].nonfinite + bd[1].nonfinite;

  // Mean training loss of the loop steps up to update kLossSteps (loop
  // step j runs its forward pass after j+1 updates), over both ranks.
  double loss = 0;
  for (const auto& b : bd)
    for (int j = 0; j < kLossSteps - 1; ++j) loss += b.loss[static_cast<std::size_t>(j)];
  loss /= 2.0 * (kLossSteps - 1);
  const bool ranks_agree = sum_at_loss[0] == sum_at_loss[1] &&
                           sum_final[0] == sum_final[1];
  std::cout << "check param_checksum_update" << kLossSteps << " "
            << hex(sum_at_loss[0]) << " ranks_agree "
            << (ranks_agree ? "yes" : "NO") << "\n";
  std::cout.precision(9);
  std::cout << "check final_loss " << loss << "\n";
  r.correct = ranks_agree && r.failed == 0 && std::isfinite(loss);

  // Throughput and step quantiles are medians over the timing windows.
  const double global_batch = 2.0 * static_cast<double>(spec.batch);
  std::vector<double> thr, p50, p95;
  for (const auto& w : windows) {
    thr.push_back(global_batch * 1e3 / mean(w));
    p50.push_back(median(w));
    p95.push_back(quantile(w, 0.95));
  }
  r.set("samples_per_s", median(thr), "1/s");
  r.set("step_p50_ms", median(p50), "ms");
  r.set("step_p95_ms", median(p95), "ms");
  r.set("final_loss", loss, "nats");
  r.set("setup_s", median(setup_s), "s");
  r.set("peak_rss_mb", rss_mb, "MB");
}

// ---- traced run: per-layer metrics -------------------------------------

/// Mean of per-rank per-step means.
double avg(const std::vector<Breakdown>& bd,
           std::vector<double> Breakdown::*field) {
  double s = 0;
  std::size_t n = 0;
  for (const auto& b : bd) {
    for (double x : b.*field) s += x;
    n += (b.*field).size();
  }
  return n ? s / static_cast<double>(n) : 0.0;
}

void run_traced(const TrainSpec& spec, const Args& args,
                const std::vector<std::vector<std::string>>& shards,
                Result& r) {
  const double fma = measure_fma_peak_gflops();
  const double stream = measure_stream_gbps();
  r.set("host.fma_peak_gflops", fma, "GFLOP/s");
  r.set("host.stream_gbps", stream, "GB/s");

  const Model model = build_model(spec);
  // Two phases on the same 2-rank world, then a 1-rank world for the
  // single-worker update baseline.
  const double untraced_s = 0.35 * args.seconds;
  const double traced_s = 0.45 * args.seconds;
  const double single_s = 0.20 * args.seconds;

  SimMpi mpi(2);
  StepClock clock(2);
  std::vector<Breakdown> bd(2);
  double first_step_ms = 0;
  std::vector<double> untraced_steps, traced_skew;
  std::uint64_t allocs = 0, wire0 = 0, wire = 0;
  std::vector<std::uint64_t> app(2), calls(2), hooks(2);
  std::vector<std::int64_t> produce_ns(2), produced(2);
  std::size_t buckets = 0;
  double planned_mb = 0, naive_mb = 0, rewrites = 0;
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> op_ns;
  std::map<std::string, NodeCost> costs;
  std::int64_t traced_steps = 0;

  clock.on_phase = [&](bool begin) {
    if (begin) wire0 = mpi.total_bytes_sent();
    else wire = mpi.total_bytes_sent() - wire0;
  };
  mpi.run([&](Communicator& comm) {
    const int rank = comm.rank();
    const auto ri = static_cast<std::size_t>(rank);
    clock.start(rank, 0.0, 1, 1);
    RankState st(spec, model, comm, args.seed, shards[ri]);
    Breakdown warm;
    const std::int64_t t0 = now_ns();
    train_step(st, clock, warm);
    if (rank == 0) first_step_ms = static_cast<double>(now_ns() - t0) / 1e6;
    clock.finish(rank);

    // Untraced: step time without listeners, and allocations per step,
    // after a few steps that let the loader queue and caches settle.
    Breakdown ignore;
    clock.start(rank, 0.0, 10, 10);
    while (clock.go()) {
      train_step(st, clock, ignore);
      clock.finish(rank);
    }
    const std::uint64_t a0 = allocations();
    if (rank == 0) count_allocations(true);
    clock.start(rank, untraced_s, 10, 1 << 30);
    while (clock.go()) {
      train_step(st, clock, ignore);
      clock.finish(rank);
    }
    if (rank == 0) {
      count_allocations(false);
      allocs = allocations() - a0;
      untraced_steps = clock.step_ms;
    }

    // Traced: listeners on, per-layer breakdown.
    st.trace();
    const std::uint64_t app0 = st.opt->app_bytes(), calls0 = st.opt->comm_calls(),
                        hooks0 = st.opt->hook_launches();
    const std::int64_t prod0 = st.data.produce_ns(), prodn0 = st.data.produced();
    clock.start(rank, traced_s, 10, 1 << 30);
    while (clock.go()) {
      train_step(st, clock, bd[ri]);
      clock.finish(rank);
    }
    st.probe->enabled = false;
    app[ri] = st.opt->app_bytes() - app0;
    calls[ri] = st.opt->comm_calls() - calls0;
    hooks[ri] = st.opt->hook_launches() - hooks0;
    produce_ns[ri] = st.data.produce_ns() - prod0;
    produced[ri] = st.data.produced() - prodn0;
    if (rank == 0) {
      traced_steps = static_cast<std::int64_t>(clock.step_ms.size());
      traced_skew = clock.skew_ms;
      buckets = st.opt->buckets().size();
      planned_mb = static_cast<double>(st.exec.planned_bytes()) / 1e6;
      naive_mb = static_cast<double>(st.exec.plan_naive_bytes()) / 1e6;
      rewrites = st.exec.pass_stats().total_rewrites();
      op_ns = st.probe->op_ns;
      costs = node_costs(st.exec.network());
    }
  });
  const std::vector<double> traced_steps_ms = clock.step_ms;

  // Single-worker baseline: the same step on a 1-rank world.
  std::vector<Breakdown> single(1);
  {
    SimMpi solo(1);
    StepClock c1(1);
    solo.run([&](Communicator& comm) {
      c1.start(0, 0.0, 1, 1);
      RankState st(spec, model, comm, args.seed, shards[0]);
      Breakdown warm;
      train_step(st, c1, warm);
      c1.finish(0);
      st.trace();
      c1.start(0, single_s, 10, 1 << 30);
      while (c1.go()) {
        train_step(st, c1, single[0]);
        c1.finish(0);
      }
    });
  }

  const double steps = static_cast<double>(traced_steps);
  const double untraced_p50 = median(untraced_steps);
  const double traced_p50 = median(traced_steps_ms);
  const double update_ms = avg(single, &Breakdown::after_ms);
  const double after_ms = avg(bd, &Breakdown::after_ms);

  r.attempted = static_cast<std::int64_t>(untraced_steps.size() + traced_steps_ms.size());
  r.failed = bd[0].nonfinite + bd[1].nonfinite;

  r.set("data.wait_ms", avg(bd, &Breakdown::wait_ms), "ms");
  const std::int64_t np = produced[0] + produced[1];
  r.set("data.produce_ms",
        np ? static_cast<double>(produce_ns[0] + produce_ns[1]) / 1e6 / static_cast<double>(np) : 0.0,
        "ms");
  r.set("exec.forward_ms", avg(bd, &Breakdown::fwd_ms), "ms");
  r.set("exec.backward_ms", avg(bd, &Breakdown::bwd_ms), "ms");
  r.set("exec.first_step_ms", first_step_ms, "ms");
  report_ops(r, kReportedOpTypes, op_ns, costs, steps, fma, stream);
  r.set("graph.planned_mb", planned_mb, "MB");
  r.set("graph.naive_mb", naive_mb, "MB");
  r.set("graph.rewrites", rewrites, "count");
  r.set("train.update_ms", update_ms, "ms");
  r.set("dist.exposed_comm_ms", after_ms - update_ms, "ms");
  r.set("dist.wire_mb_per_step", static_cast<double>(wire) / 1e6 / steps, "MB");
  r.set("dist.app_mb_per_step",
        static_cast<double>(app[0] + app[1]) / 2.0 / 1e6 / steps, "MB");
  r.set("dist.calls_per_step",
        static_cast<double>(calls[0] + calls[1]) / 2.0 / steps, "count");
  r.set("dist.hook_launch_frac",
        buckets ? static_cast<double>(hooks[0] + hooks[1]) /
                      (2.0 * steps * static_cast<double>(buckets))
                : 0.0,
        "fraction");
  r.set("dist.rank_skew_ms", mean(traced_skew), "ms");
  r.set("core.allocs_per_step",
        static_cast<double>(allocs) / static_cast<double>(untraced_steps.size()),
        "count");
  r.set("trace.overhead_frac", (traced_p50 - untraced_p50) / untraced_p50,
        "fraction");

  // Coverage: every rank-step's time from release to its own finish is
  // split into data wait, forward, backward and post-backprop exchange +
  // update; the slower rank's lead is the skew. What is left (loop
  // overhead, the optimizer prologue, the gap between forward and
  // backward) is unattributed.
  double world = 0, covered = 0;
  for (const auto& b : bd)
    for (std::size_t k = 0; k < b.own_ms.size(); ++k)
      covered += b.wait_ms[k] + b.fwd_ms[k] + b.bwd_ms[k] + b.after_ms[k] +
                 (traced_steps_ms[k] - b.own_ms[k]);
  for (double s : traced_steps_ms) world += 2.0 * s;
  const double unattributed = 1.0 - covered / world;
  r.set("unattributed_frac", unattributed, "fraction");
  const bool covered_ok = unattributed <= 0.05;
  std::cout << "check coverage " << (1.0 - unattributed)
            << (covered_ok ? " >= 0.95 ok" : " < 0.95 LOW") << "\n";
  r.correct = r.failed == 0 && covered_ok;
}

}  // namespace

void run_train(const Args& args, Result& r) {
  const TrainSpec spec = spec_for(args.workload);
  const PoolWaker waker;
  std::vector<std::vector<std::string>> shards(2);
  if (spec.resnet)
    for (int rank = 0; rank < 2; ++rank)
      shards[static_cast<std::size_t>(rank)] =
          write_fixture(args.workdir, rank, args.seed);
  if (args.trace) run_traced(spec, args, shards, r);
  else run_untraced(spec, args, shards, r);
}

}  // namespace e2e

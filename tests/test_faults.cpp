// The fault/straggler determinism matrix (ROADMAP item 5's headline test).
//
// Mode by mode, this suite pins down exactly which training configurations
// are bitwise reproducible under injected faults — and which are
// deliberately not:
//
//   mode                  | faults                | reproducible?
//   ----------------------|-----------------------|---------------------------
//   sync ring DSGD        | drops+retries, slow   | yes — and bit-identical
//                         |                       | to the fault-free run
//                         |                       | (retries never touch data)
//   bucketed overlap DSGD | straggler slowdown    | yes — identical to the
//                         |                       | fault-free run
//   eager DSGD            | lateness schedule     | yes per (seed, bound) —
//                         |                       | same checksum at every
//                         |                       | thread count and rerun
//   PS, bound = 0         | —                     | yes — pushes buffered and
//                         |                       | applied in rank order
//   PS, bound >= 1        | —                     | no — arrival-order apply;
//                         |                       | only finiteness/bound
//                         |                       | invariants hold
//   PS, bound 0 / 1 / inf | scheduled abort       | n/a — run() rethrows
//                         |                       | RankFailure, never hangs
//   eager, bound 0 / 1 / 2| scheduled abort       | n/a — run() rethrows
//                         |                       | RankFailure, never hangs
//
// Plus the two recovery contracts: the synchronous path is bit-identical
// with the injector compiled in but disabled (and with an enabled-but-
// empty schedule), and a rank killed mid-collective by a scheduled abort
// restores from its checkpoint and finishes bitwise-identical to the
// uninterrupted run.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/metrics_registry.hpp"
#include "core/threadpool.hpp"
#include "dist/dist_optimizer.hpp"
#include "frameworks/plan_executor.hpp"
#include "graph/visitor.hpp"
#include "models/builders.hpp"
#include "train/checkpoint.hpp"
#include "train/optimizers.hpp"

namespace d500 {
namespace {

constexpr std::int64_t kInDim = 12;
constexpr std::int64_t kClasses = 3;
constexpr double kLr = 0.1;

TensorMap global_feeds(std::int64_t batch, std::uint64_t seed) {
  Rng rng(seed);
  TensorMap feeds;
  Tensor d({batch, kInDim});
  d.fill_uniform(rng, -1, 1);
  feeds["data"] = std::move(d);
  Tensor l({batch});
  for (std::int64_t i = 0; i < batch; ++i)
    l.at(i) = static_cast<float>(rng.below(kClasses));
  feeds["labels"] = std::move(l);
  return feeds;
}

TensorMap rank_slice(const TensorMap& global, int rank, int world) {
  const std::int64_t batch = global.at("labels").elements();
  const std::int64_t per = batch / world;
  TensorMap feeds;
  Tensor d({per, kInDim});
  Tensor l({per});
  for (std::int64_t i = 0; i < per; ++i) {
    const std::int64_t src = rank * per + i;
    for (std::int64_t k = 0; k < kInDim; ++k)
      d.at(i * kInDim + k) = global.at("data").at(src * kInDim + k);
    l.at(i) = global.at("labels").at(src);
  }
  feeds["data"] = std::move(d);
  feeds["labels"] = std::move(l);
  return feeds;
}

Model model_for(std::int64_t batch) {
  return models::mlp(batch, kInDim, {8}, kClasses, /*seed=*/501);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t param_checksum(const Network& net) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& pname : net.parameters()) {
    const Tensor& p = net.fetch_tensor(pname);
    h = fnv1a(h, p.data(), p.bytes());
  }
  return h;
}

/// A drops+straggler schedule that perturbs timing and wire traffic but —
/// by construction — never data: the sync rows of the matrix must shrug
/// it off bitwise.
FaultPlan timing_only_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  plan.drop_prob = 0.2;
  plan.max_retries = 8;  // generous: no message becomes undeliverable here
  plan.retry_timeout_us = 5;
  plan.slow_rank = 1;
  plan.slow_us = 30;
  return plan;
}

FaultPlan lateness_plan(std::uint64_t seed, double late_prob) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  plan.late_prob = late_prob;
  return plan;
}

struct RunResult {
  std::uint64_t checksum = 0;
  std::vector<float> losses;
  std::uint64_t wire_bytes = 0;
};

enum class Mode { kSyncRing, kBucketedOverlap };

/// Synchronous data-parallel run under an arbitrary fault plan; returns
/// rank 0's parameter checksum (sync schemes leave ranks identical).
RunResult sync_run(Mode mode, int world, int steps, const FaultPlan& plan,
                   bool set_plan = true) {
  const std::int64_t batch = 8;
  SimMpi mpi(world);
  if (set_plan) mpi.set_fault_plan(plan);
  RunResult result;
  std::mutex mu;
  mpi.run([&](Communicator& comm) {
    const std::int64_t per = batch / world;
    std::unique_ptr<GraphExecutor> exec;
    std::unique_ptr<DistributedOptimizer> dist;
    if (mode == Mode::kSyncRing) {
      exec = std::make_unique<ReferenceExecutor>(build_network(model_for(per)));
      auto base = std::make_unique<GradientDescentOptimizer>(*exec, kLr);
      dist = std::make_unique<ConsistentDecentralized>(std::move(base), comm);
    } else {
      ExecOptions opts;
      opts.overlap_comm = true;
      exec = std::make_unique<PlanExecutor>(build_network(model_for(per)),
                                            "plan", opts);
      auto base = std::make_unique<GradientDescentOptimizer>(*exec, kLr);
      BucketOptions bopts;
      bopts.cap_bytes = 128;  // several buckets
      bopts.overlap = 1;
      dist = std::make_unique<BucketedDecentralized>(std::move(base), comm,
                                                     bopts);
    }
    dist->set_loss_value("loss");
    std::vector<float> losses;
    for (int s = 0; s < steps; ++s) {
      const TensorMap global = global_feeds(batch, 900 + s);
      losses.push_back(
          dist->train(rank_slice(global, comm.rank(), world)).at("loss").at(0));
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      result.checksum = param_checksum(exec->network());
      result.losses = std::move(losses);
    }
  });
  result.wire_bytes = mpi.total_bytes_sent();
  return result;
}

struct EagerStats {
  std::int64_t rounds = 0;
  std::uint64_t stale_events = 0;
  std::int64_t max_staleness = 0;
};

/// Eager DSGD: one fused allgather per step, so eager rounds == steps.
/// The stats are rank 0's; every rank resolves the same read set.
RunResult eager_run(SimMpi& mpi, int steps, std::int64_t bound,
                    EagerStats* out_stats = nullptr) {
  const std::int64_t batch = 8;
  const int world = mpi.size();
  RunResult result;
  std::mutex mu;
  mpi.run([&](Communicator& comm) {
    const std::int64_t per = batch / world;
    ReferenceExecutor exec(build_network(model_for(per)));
    auto base = std::make_unique<GradientDescentOptimizer>(exec, kLr);
    EagerDecentralized dist(std::move(base), comm, bound);
    dist.set_loss_value("loss");
    std::vector<float> losses;
    for (int s = 0; s < steps; ++s) {
      const TensorMap global = global_feeds(batch, 900 + s);
      losses.push_back(
          dist.train(rank_slice(global, comm.rank(), world)).at("loss").at(0));
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      result.checksum = param_checksum(exec.network());
      result.losses = std::move(losses);
      if (out_stats) {
        out_stats->rounds = dist.rounds();
        out_stats->stale_events = dist.stale_events();
        out_stats->max_staleness = dist.max_staleness_seen();
      }
    }
  });
  result.wire_bytes = mpi.total_bytes_sent();
  return result;
}

RunResult eager_run(int world, int steps, const FaultPlan& plan,
                    std::int64_t bound, EagerStats* out_stats = nullptr) {
  SimMpi mpi(world);
  mpi.set_fault_plan(plan);
  return eager_run(mpi, steps, bound, out_stats);
}

/// Bounded-staleness parameter server: rank 0 serves, ranks 1..n-1 work.
/// The checksum is of the server's (authoritative) parameters.
RunResult ps_run(SimMpi& mpi, int steps, std::int64_t bound,
                 PsStats* out_stats = nullptr) {
  const std::int64_t batch = 8;
  const int world = mpi.size();
  RunResult result;
  std::mutex mu;
  mpi.run([&](Communicator& comm) {
    const int workers = world - 1;
    const std::int64_t per = batch / workers;
    if (comm.rank() == 0) {
      ReferenceExecutor exec(build_network(model_for(per)));
      GradientDescentOptimizer update(exec, kLr);
      const PsStats stats = run_parameter_server(comm, update, bound);
      std::lock_guard<std::mutex> lock(mu);
      result.checksum = param_checksum(exec.network());
      if (out_stats) *out_stats = stats;
      return;
    }
    ReferenceExecutor exec(build_network(model_for(per)));
    auto base = std::make_unique<GradientDescentOptimizer>(exec, kLr);
    BoundedStalenessWorker dist(std::move(base), comm);
    dist.set_loss_value("loss");
    for (int s = 0; s < steps; ++s) {
      const TensorMap global = global_feeds(batch, 900 + s);
      const auto out = dist.train(rank_slice(global, comm.rank() - 1, workers));
      ASSERT_TRUE(std::isfinite(out.at("loss").at(0)));
    }
    dist.finish();
  });
  result.wire_bytes = mpi.total_bytes_sent();
  return result;
}

RunResult ps_run(int world, int steps, std::int64_t bound,
                 PsStats* out_stats = nullptr) {
  SimMpi mpi(world);
  return ps_run(mpi, steps, bound, out_stats);
}

// ---- injector unit properties ----------------------------------------------

TEST(FaultInjector, ScheduleIsPureInSeedAndEventIndex) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 42;
  plan.drop_prob = 0.4;
  plan.max_retries = 10;
  FaultInjector a(plan, 2), b(plan, 2);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.on_send(0, 1, 7, 64), b.on_send(0, 1, 7, 64)) << "send " << i;
  EXPECT_EQ(a.drops(), b.drops());
  EXPECT_EQ(a.sends_seen(0), 100u);
}

TEST(FaultInjector, StalenessClampsAtBound) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 7;
  plan.late_prob = 0.9;  // long streaks without the clamp
  for (const std::int64_t bound : {std::int64_t{1}, std::int64_t{3}}) {
    FaultInjector inj(plan, 4);
    bool hit_bound = false;
    for (int rank = 0; rank < 4; ++rank) {
      for (std::int64_t round = 0; round < 300; ++round) {
        const std::int64_t s = inj.staleness(rank, round, bound);
        ASSERT_GE(s, 0);
        ASSERT_LE(s, bound) << "rank " << rank << " round " << round;
        if (s == bound) {
          hit_bound = true;
          // A streak at the bound forces the next round on time.
          EXPECT_EQ(inj.staleness(rank, round + 1, bound), 0);
        }
      }
    }
    EXPECT_TRUE(hit_bound) << "late_prob 0.9 never reached bound " << bound;
  }
}

TEST(FaultInjector, MixedBoundsRejected) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 7;
  plan.late_prob = 0.5;
  FaultInjector inj(plan, 2);
  (void)inj.staleness(0, 5, 2);
  EXPECT_THROW((void)inj.staleness(0, 6, 3), Error);
}

TEST(FaultInjector, DisabledPlanIsInert) {
  FaultInjector inj(FaultPlan{}, 4);
  EXPECT_FALSE(inj.enabled());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(inj.on_send(0, 1, 0, 1 << 20), 0);
  EXPECT_FALSE(inj.effective_late(0, 3, 5));
  EXPECT_FALSE(inj.restart_due(0, 3));
  EXPECT_EQ(inj.drops(), 0u);
  EXPECT_EQ(inj.delay_us_injected(), 0u);
}

TEST(FaultInjector, OrphanKnobWithoutMasterSwitchFailsLoudly) {
  // Satellite: D500_FAULT_* without D500_FAULTS must not silently run
  // fault-free. The ci-faults workflow preset arms the injector for the
  // whole suite, so save and clear the ambient knobs before probing the
  // orphan path and restore them on the way out.
  static const char* const kKnobs[] = {
      "D500_FAULTS",           "D500_FAULT_SEED",      "D500_FAULT_DROP",
      "D500_FAULT_RETRIES",    "D500_FAULT_TIMEOUT_US", "D500_FAULT_SLOW_RANK",
      "D500_FAULT_SLOW_US",    "D500_FAULT_LATE"};
  std::vector<std::pair<std::string, std::string>> saved;
  for (const char* k : kKnobs) {
    if (const char* v = std::getenv(k)) {
      saved.emplace_back(k, v);
      ::unsetenv(k);
    }
  }
  ::setenv("D500_FAULT_DROP", "0.5", 1);
  EXPECT_THROW((void)fault_plan_from_env(), Error);
  ::unsetenv("D500_FAULT_DROP");
  ::setenv("D500_FAULTS", "1", 1);
  ::setenv("D500_FAULT_DROP", "0.25", 1);
  const FaultPlan plan = fault_plan_from_env();
  EXPECT_TRUE(plan.enabled);
  EXPECT_DOUBLE_EQ(plan.drop_prob, 0.25);
  ::unsetenv("D500_FAULT_DROP");
  ::unsetenv("D500_FAULTS");
  EXPECT_FALSE(fault_plan_from_env().enabled);
  for (const auto& [k, v] : saved) ::setenv(k.c_str(), v.c_str(), 1);
}

// ---- the determinism matrix -------------------------------------------------

TEST(Matrix, SyncRingBitIdenticalUnderTimingFaults) {
  const int steps = 3;
  for (const int world : {2, 4}) {
    const RunResult clean = sync_run(Mode::kSyncRing, world, steps,
                                     FaultPlan{}, /*set_plan=*/false);
    for (const int threads : {1, 2, 4}) {
      ThreadPool::instance().reset(threads);
      const RunResult faulty =
          sync_run(Mode::kSyncRing, world, steps, timing_only_plan(11));
      EXPECT_EQ(faulty.checksum, clean.checksum)
          << "world " << world << " threads " << threads;
      EXPECT_EQ(faulty.losses, clean.losses);
      // Dropped attempts went on the wire: traffic must exceed fault-free.
      EXPECT_GT(faulty.wire_bytes, clean.wire_bytes);
    }
  }
  ThreadPool::instance().reset(1);
}

TEST(Matrix, BucketedOverlapBitIdenticalUnderStraggler) {
  const int steps = 3;
  FaultPlan slow;
  slow.enabled = true;
  slow.seed = 3;
  slow.slow_rank = 1;
  slow.slow_us = 40;
  for (const int world : {2, 4}) {
    const RunResult clean = sync_run(Mode::kBucketedOverlap, world, steps,
                                     FaultPlan{}, /*set_plan=*/false);
    for (const int threads : {1, 2, 4}) {
      ThreadPool::instance().reset(threads);
      const RunResult faulty =
          sync_run(Mode::kBucketedOverlap, world, steps, slow);
      EXPECT_EQ(faulty.checksum, clean.checksum)
          << "world " << world << " threads " << threads;
      EXPECT_EQ(faulty.losses, clean.losses);
      EXPECT_EQ(faulty.wire_bytes, clean.wire_bytes);  // delays only
    }
  }
  ThreadPool::instance().reset(1);
}

TEST(Matrix, EagerReproduciblePerScheduleAcrossThreadsAndReruns) {
  const int world = 4, steps = 6;
  const std::int64_t bound = 1;
  EagerStats stats;
  const RunResult base =
      eager_run(world, steps, lateness_plan(21, 0.5), bound, &stats);
  EXPECT_EQ(stats.rounds, steps);
  EXPECT_GT(stats.stale_events, 0u) << "schedule injected no staleness";
  EXPECT_LE(stats.max_staleness, bound);
  for (float l : base.losses) EXPECT_TRUE(std::isfinite(l));
  for (const int threads : {1, 2, 4}) {
    ThreadPool::instance().reset(threads);
    const RunResult again =
        eager_run(world, steps, lateness_plan(21, 0.5), bound);
    EXPECT_EQ(again.checksum, base.checksum) << "threads " << threads;
    EXPECT_EQ(again.losses, base.losses);
  }
  // A different fault seed is a different (valid) schedule.
  const RunResult other = eager_run(world, steps, lateness_plan(22, 0.5), bound);
  for (float l : other.losses) EXPECT_TRUE(std::isfinite(l));
  ThreadPool::instance().reset(1);
}

TEST(Matrix, EagerBoundZeroIsFullySynchronous) {
  // At bound 0 the lateness schedule cannot apply: the run is bit-identical
  // to the same optimizer under a disabled injector.
  const int world = 2, steps = 3;
  EagerStats stats;
  const RunResult scheduled =
      eager_run(world, steps, lateness_plan(5, 0.8), /*bound=*/0, &stats);
  const RunResult clean = eager_run(world, steps, FaultPlan{}, /*bound=*/0);
  EXPECT_EQ(scheduled.checksum, clean.checksum);
  EXPECT_EQ(scheduled.losses, clean.losses);
  EXPECT_EQ(stats.stale_events, 0u);
  EXPECT_EQ(stats.max_staleness, 0);
  // The wire carries the real ring allgather: every rank ships its packed
  // gradient to each of its world-1 peers once per step.
  Network net = build_network(model_for(8 / world));
  const std::uint64_t grad_bytes = pack_parameters(net).size() * sizeof(float);
  EXPECT_EQ(clean.wire_bytes,
            static_cast<std::uint64_t>(world * (world - 1) * steps) * grad_bytes);
}

TEST(Matrix, EagerNegativeBoundRejected) {
  SimMpi mpi(2);
  EXPECT_THROW(mpi.run([&](Communicator& comm) {
                 ReferenceExecutor exec(build_network(model_for(4)));
                 EagerDecentralized dist(
                     std::make_unique<GradientDescentOptimizer>(exec, kLr),
                     comm, /*bound=*/-1);
               }),
               Error);
}

TEST(Matrix, PsBoundZeroReproducible) {
  const int world = 3, steps = 4;
  PsStats stats;
  const RunResult base = ps_run(world, steps, /*bound=*/0, &stats);
  EXPECT_EQ(stats.max_staleness_served, 0);
  for (int r = 1; r < world; ++r)
    EXPECT_EQ(stats.applied[static_cast<std::size_t>(r)], steps);
  for (const int threads : {1, 2, 4}) {
    ThreadPool::instance().reset(threads);
    const RunResult again = ps_run(world, steps, /*bound=*/0);
    EXPECT_EQ(again.checksum, base.checksum) << "threads " << threads;
  }
  ThreadPool::instance().reset(1);
}

TEST(Matrix, PsBoundedStalenessHoldsInvariantsOnly) {
  // bound >= 1 applies pushes in arrival order — deliberately NOT
  // reproducible, so the matrix asserts the staleness bound and progress
  // invariants and nothing about checksums.
  const int world = 4, steps = 5;
  for (const std::int64_t bound : {std::int64_t{1}, std::int64_t{2}}) {
    PsStats stats;
    const RunResult run = ps_run(world, steps, bound, &stats);
    EXPECT_NE(run.checksum, 0u);
    EXPECT_LE(stats.max_staleness_served, bound) << "bound " << bound;
    for (int r = 1; r < world; ++r)
      EXPECT_EQ(stats.applied[static_cast<std::size_t>(r)], steps);
  }
}

/// Runs `body` on its own thread under a no-progress watchdog (the one of
/// ThreadPool.NotifyIsNeverLostByAHelpWhileWaiter) and rethrows what it
/// threw. `progress` is sampled every 10 ms; if it stays unchanged for 5 s
/// while `body` has not returned, the world is hung. A rank blocked
/// forever cannot be rescued from outside its world, so the watchdog
/// records the failure and ends the process — a hang fails the test
/// instead of stalling ctest.
template <typename Body, typename Progress>
void run_with_watchdog(const Body& body, const Progress& progress) {
  std::atomic<bool> finished{false};
  std::exception_ptr error;
  std::thread runner([&] {
    try {
      body();
    } catch (...) {
      error = std::current_exception();
    }
    finished.store(true, std::memory_order_release);
  });
  auto last = progress();
  auto last_change = std::chrono::steady_clock::now();
  while (!finished.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto now = progress();
    const auto t = std::chrono::steady_clock::now();
    if (now != last) {
      last = now;
      last_change = t;
    } else if (t - last_change > std::chrono::seconds(5)) {
      ADD_FAILURE() << "no progress for 5 s: the world is hung";
      std::fflush(stdout);
      std::_Exit(EXIT_FAILURE);
    }
  }
  runner.join();
  if (error) std::rethrow_exception(error);
}

TEST(Matrix, PsRankFailureSurfacesAtEveryBound) {
  // A worker dies mid-run at send #4 — its pull for step 2 — and the
  // server plus the surviving worker must wake through revocation: run()
  // rethrows RankFailure at the synchronous, SSP and ASGD bounds alike.
  const int world = 3, steps = 5;
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 1;
  plan.abort_sends.emplace_back(/*rank=*/2, /*send=*/4);
  Counter& revocations =
      MetricsRegistry::instance().counter("fault.revocations");
  for (const std::int64_t bound :
       {std::int64_t{0}, std::int64_t{1}, kUnboundedStaleness}) {
    SimMpi mpi(world);
    mpi.set_fault_plan(plan);
    const std::uint64_t revoked_before = revocations.value();
    EXPECT_THROW(run_with_watchdog([&] { ps_run(mpi, steps, bound); },
                                   [&] { return mpi.total_bytes_sent(); }),
                 RankFailure)
        << "bound " << bound;
    EXPECT_EQ(revocations.value(), revoked_before + 1) << "bound " << bound;
  }
}

TEST(Matrix, EagerRankFailureSurfacesAtEveryBound) {
  // Rank 2 dies at send #5, the second send of its round-2 allgather; its
  // peers must wake through revocation at every staleness bound, with a
  // lateness schedule armed.
  const int world = 3, steps = 5;
  FaultPlan plan = lateness_plan(1, 0.5);
  plan.abort_sends.emplace_back(/*rank=*/2, /*send=*/5);
  Counter& revocations =
      MetricsRegistry::instance().counter("fault.revocations");
  for (const std::int64_t bound :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{2}}) {
    SimMpi mpi(world);
    mpi.set_fault_plan(plan);
    const std::uint64_t revoked_before = revocations.value();
    EXPECT_THROW(run_with_watchdog([&] { eager_run(mpi, steps, bound); },
                                   [&] { return mpi.total_bytes_sent(); }),
                 RankFailure)
        << "bound " << bound;
    EXPECT_EQ(revocations.value(), revoked_before + 1) << "bound " << bound;
  }
}

TEST(PsProtocol, MalformedControlMessagesRejected) {
  // A hand-written worker sends one bad control message; the server must
  // reject it with a d500 Error (not a revocation, not UB on the cast).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<std::vector<float>> bad = {
      {5.0f, 0.0f},                  // unknown opcode
      {kPsOpPull, nan},              // NaN step
      {kPsOpPull, -1.0f},            // negative step
      {kPsOpPull, 0.5f},             // fractional step
      {kPsOpPull, 16777216.0f},      // 2^24: past the exact float range
      {kPsOpPull, std::numeric_limits<float>::infinity()},
      {kPsOpPull, 3.0f},             // out of sequence (nothing pushed yet)
      {kPsOpPush, 0.0f},             // push without its gradient payload
      {kPsOpDone, 0.0f, 1.0f},       // DONE with a trailing payload
      {kPsOpPull},                   // no step field
      {},                            // empty
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    SimMpi mpi(2);
    std::string what;
    try {
      mpi.run([&](Communicator& comm) {
        if (comm.rank() == 1) {
          comm.send(0, bad[i], kPsCtrlTag);
          return;
        }
        ReferenceExecutor exec(build_network(model_for(4)));
        GradientDescentOptimizer update(exec, kLr);
        run_parameter_server(comm, update, /*bound=*/1);
      });
    } catch (const RankFailure& e) {
      ADD_FAILURE() << "message " << i << ": revocation, not the root cause: "
                    << e.what();
    } catch (const Error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("parameter server"), std::string::npos)
        << "message " << i << " was accepted";
  }
}

TEST(Matrix, DisabledInjectorBitIdenticalToEmptyEnabledSchedule) {
  // The injector compiled in but disabled must cost nothing semantically:
  // same bits and same wire traffic as an enabled plan with no faults
  // scheduled — the all-no-op path every straggler-free collective uses.
  const int steps = 3;
  FaultPlan empty;
  empty.enabled = true;
  empty.seed = 99;
  for (const int world : {2, 3}) {
    const RunResult off = sync_run(Mode::kSyncRing, world, steps, FaultPlan{},
                                   /*set_plan=*/false);
    const RunResult on = sync_run(Mode::kSyncRing, world, steps, empty);
    EXPECT_EQ(on.checksum, off.checksum) << "world " << world;
    EXPECT_EQ(on.losses, off.losses);
    EXPECT_EQ(on.wire_bytes, off.wire_bytes);
  }
}

// ---- restart-from-checkpoint recovery ---------------------------------------

/// Synchronous DSGD with a scheduled mid-collective abort of rank 1 and
/// checkpoint-based recovery: rank 0 snapshots after every completed step;
/// when the RankFailure surfaces, clear the mailboxes and replay from the
/// last snapshot. Returns the final checksum and restart count.
RunResult restart_run(int world, int steps, std::int64_t abort_send,
                      int* restarts_out) {
  const std::int64_t batch = 8;
  SimMpi mpi(world);
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 1;
  if (abort_send >= 0) plan.abort_sends.emplace_back(1, abort_send);
  mpi.set_fault_plan(plan);

  // The consistent state: sync DSGD applies a step's update only after all
  // of that step's allreduces finished, and a scheduled abort always fires
  // inside a collective — so rank 0's snapshot after step s is global
  // truth for every rank.
  std::vector<std::uint8_t> ckpt;
  {
    Network init = build_network(model_for(batch / world));
    ckpt = snapshot_parameters(init, 0);
  }
  std::mutex ckpt_mu;

  RunResult result;
  std::mutex mu;
  int restarts = 0;
  for (;;) {
    try {
      mpi.run([&](Communicator& comm) {
        ReferenceExecutor exec(build_network(model_for(batch / world)));
        std::int64_t start;
        {
          std::lock_guard<std::mutex> lock(ckpt_mu);
          start = restore_parameters(exec.network(), ckpt);
        }
        auto base = std::make_unique<GradientDescentOptimizer>(exec, kLr);
        ConsistentDecentralized dist(std::move(base), comm);
        dist.set_loss_value("loss");
        for (std::int64_t s = start; s < steps; ++s) {
          const TensorMap global =
              global_feeds(batch, 900 + static_cast<std::uint64_t>(s));
          dist.train(rank_slice(global, comm.rank(), world));
          if (comm.rank() == 0) {
            std::lock_guard<std::mutex> lock(ckpt_mu);
            ckpt = snapshot_parameters(exec.network(), s + 1);
          }
        }
        if (comm.rank() == 0) {
          std::lock_guard<std::mutex> lock(mu);
          result.checksum = param_checksum(exec.network());
        }
      });
      break;
    } catch (const RankFailure&) {
      // The scheduled crash: drop in-flight messages and replay from the
      // last completed step. The per-rank send counters keep advancing, so
      // the abort fires exactly once.
      mpi.clear_mailboxes();
      if (++restarts > 3) throw;  // recovery failed; surface to the test
    }
  }
  if (restarts_out) *restarts_out = restarts;
  result.wire_bytes = mpi.total_bytes_sent();
  return result;
}

TEST(Restart, CheckpointRecoveryBitIdenticalToUninterruptedRun) {
  const int world = 2, steps = 6;
  int restarts = 0;
  const RunResult clean =
      restart_run(world, steps, /*abort_send=*/-1, &restarts);
  ASSERT_EQ(restarts, 0);
  // mlp {8} has 4 parameter tensors; per-tensor ring allreduce on 2 ranks
  // is 2 sends per rank per tensor, so step s spans rank 1's sends
  // [8s, 8s+8). Send #20 kills rank 1 inside step 2's third allreduce —
  // mid-epoch, before any rank applied step 2's update.
  int faulted_restarts = 0;
  const RunResult recovered =
      restart_run(world, steps, /*abort_send=*/20, &faulted_restarts);
  EXPECT_EQ(faulted_restarts, 1);
  EXPECT_EQ(recovered.checksum, clean.checksum);
  // The replayed step re-sends its traffic: strictly more wire bytes.
  EXPECT_GT(recovered.wire_bytes, clean.wire_bytes);
}

}  // namespace
}  // namespace d500

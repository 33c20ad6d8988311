// Level 3 functional tests over SimMPI: synchronous data-parallel variants
// must match sequential training on the combined batch; asynchronous and
// gossip variants must satisfy their own invariants; communication volume
// accounting must reflect each scheme's structure (the Fig. 12 caption
// ratios DSGD : PSSGD : DPSGD = 1 : 2 : 2 at app level).
#include <gtest/gtest.h>

#include <cmath>

#include "dist/dist_optimizer.hpp"
#include "frameworks/plan_executor.hpp"
#include "graph/visitor.hpp"
#include "models/builders.hpp"
#include "train/optimizers.hpp"

namespace d500 {
namespace {

constexpr std::int64_t kInDim = 12;
constexpr std::int64_t kClasses = 3;
constexpr double kLr = 0.1;

/// Global deterministic batch of size B; rank r of n uses rows
/// [r*B/n, (r+1)*B/n).
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

/// Sequential baseline: SGD on the full batch.
std::vector<float> sequential_params(std::int64_t batch, int steps) {
  ReferenceExecutor exec(build_network(model_for(batch)));
  GradientDescentOptimizer opt(exec, kLr);
  opt.set_loss_value("loss");
  for (int s = 0; s < steps; ++s) opt.train(global_feeds(batch, 900 + s));
  return pack_parameters(exec.network());
}

using MakeDistFn = std::function<std::unique_ptr<DistributedOptimizer>(
    std::unique_ptr<ThreeStepOptimizer>, Communicator&)>;

/// Runs `steps` distributed steps on `world` ranks; returns rank 0's final
/// parameters (all synchronous schemes leave ranks identical).
std::vector<float> distributed_params(int world, std::int64_t batch,
                                      int steps, const MakeDistFn& make,
                                      std::uint64_t* out_app_bytes = nullptr) {
  SimMpi mpi(world);
  std::vector<float> result;
  std::mutex result_mu;
  mpi.run([&](Communicator& comm) {
    const std::int64_t per = batch / world;
    ReferenceExecutor exec(build_network(model_for(per)));
    auto base = std::make_unique<GradientDescentOptimizer>(exec, kLr);
    auto dist = make(std::move(base), comm);
    dist->set_loss_value("loss");
    for (int s = 0; s < steps; ++s) {
      const TensorMap global = global_feeds(batch, 900 + s);
      dist->train(rank_slice(global, comm.rank(), world));
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(result_mu);
      result = pack_parameters(exec.network());
      if (out_app_bytes) *out_app_bytes = dist->app_bytes();
    }
  });
  return result;
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_NEAR(a[i], b[i], tol) << "i=" << i;
}

/// Bucketed DSGD over a PlanExecutor (the executor with the grad-ready
/// hook); returns rank 0's final parameters.
std::vector<float> bucketed_params(int world, std::int64_t batch, int steps,
                                   bool overlap, std::size_t cap_bytes,
                                   std::uint64_t* out_launches = nullptr,
                                   std::size_t* out_buckets = nullptr) {
  SimMpi mpi(world);
  std::vector<float> result;
  std::mutex result_mu;
  mpi.run([&](Communicator& comm) {
    const std::int64_t per = batch / world;
    ExecOptions opts;
    opts.overlap_comm = overlap;
    PlanExecutor exec(build_network(model_for(per)), "plan", opts);
    auto base = std::make_unique<GradientDescentOptimizer>(exec, kLr);
    BucketOptions bopts;
    bopts.cap_bytes = cap_bytes;
    bopts.overlap = overlap ? 1 : 0;
    BucketedDecentralized dist(std::move(base), comm, bopts);
    dist.set_loss_value("loss");
    for (int s = 0; s < steps; ++s) {
      const TensorMap global = global_feeds(batch, 900 + s);
      dist.train(rank_slice(global, comm.rank(), world));
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(result_mu);
      result = pack_parameters(exec.network());
      if (out_launches) *out_launches = dist.hook_launches();
      if (out_buckets) *out_buckets = dist.buckets().size();
    }
  });
  return result;
}

TEST(Bucketed, MatchesSequentialTraining) {
  const std::int64_t batch = 8;
  const auto seq = sequential_params(batch, 3);
  for (int world : {2, 4}) {
    for (bool overlap : {false, true}) {
      const auto dist =
          bucketed_params(world, batch, 3, overlap, /*cap_bytes=*/1 << 20);
      expect_close(dist, seq, 1e-4f);
    }
  }
}

TEST(Bucketed, OverlapOnOffBitIdentical) {
  // The tentpole guarantee: launching bucket allreduces mid-backprop must
  // not move a single bit relative to blocking allreduces afterwards —
  // for one fused bucket and for many small ones.
  const std::int64_t batch = 8;
  for (int world : {2, 3, 4}) {
    for (std::size_t cap : {std::size_t{128}, std::size_t{1} << 20}) {
      const auto off = bucketed_params(world, batch, 3, false, cap);
      const auto on = bucketed_params(world, batch, 3, true, cap);
      ASSERT_EQ(off.size(), on.size());
      for (std::size_t i = 0; i < off.size(); ++i)
        ASSERT_EQ(off[i], on[i])
            << "world " << world << " cap " << cap << " i=" << i;
    }
  }
}

TEST(Bucketed, HookLaunchesEveryBucket) {
  const std::int64_t batch = 8;
  const int steps = 3;
  std::uint64_t launches = 0;
  std::size_t buckets = 0;
  bucketed_params(2, batch, steps, /*overlap=*/true, /*cap_bytes=*/128,
                  &launches, &buckets);
  EXPECT_GT(buckets, 1u) << "cap too large to exercise multiple buckets";
  EXPECT_EQ(launches, buckets * static_cast<std::size_t>(steps));
}

TEST(Bucketed, BucketBuildRespectsCapAndReadyOrder) {
  Network net = build_network(model_for(4));
  const auto ready = backward_ready_param_order(net);
  ASSERT_EQ(ready.size(), net.parameters().size());
  for (const std::size_t cap : {std::size_t{1}, std::size_t{128},
                                std::size_t{1} << 20}) {
    const auto buckets = build_gradient_buckets(net, cap);
    std::vector<std::string> flattened;
    for (const auto& b : buckets) {
      ASSERT_FALSE(b.params.empty());
      std::size_t elems = 0;
      for (std::size_t k = 0; k < b.params.size(); ++k) {
        EXPECT_EQ(b.offsets[k], elems);
        elems += static_cast<std::size_t>(
            net.fetch_tensor(b.params[k]).elements());
        flattened.push_back(b.params[k]);
      }
      EXPECT_EQ(b.elements, elems);
      // Cap only binds for multi-tensor buckets (singletons may exceed it).
      if (b.params.size() > 1) EXPECT_LE(elems * sizeof(float), cap);
    }
    EXPECT_EQ(flattened, ready);
  }
  // A generous cap fuses everything into one bucket.
  EXPECT_EQ(build_gradient_buckets(net, std::size_t{1} << 20).size(), 1u);
}

TEST(Bucketed, FallsBackToBlockingWithoutHookSupport) {
  // ReferenceExecutor has no grad-ready hook: overlap requests degrade to
  // the blocking bucketed path and training still matches sequential.
  const std::int64_t batch = 8;
  const auto seq = sequential_params(batch, 2);
  SimMpi mpi(2);
  std::vector<float> result;
  std::uint64_t launches = 99;
  std::mutex mu;
  mpi.run([&](Communicator& comm) {
    ReferenceExecutor exec(build_network(model_for(batch / 2)));
    auto base = std::make_unique<GradientDescentOptimizer>(exec, kLr);
    BucketOptions bopts;
    bopts.overlap = 1;
    BucketedDecentralized dist(std::move(base), comm, bopts);
    dist.set_loss_value("loss");
    for (int s = 0; s < 2; ++s) {
      const TensorMap global = global_feeds(batch, 900 + s);
      dist.train(rank_slice(global, comm.rank(), 2));
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      result = pack_parameters(exec.network());
      launches = dist.hook_launches();
    }
  });
  expect_close(result, seq, 1e-4f);
  EXPECT_EQ(launches, 0u);
}

TEST(DSGD, MatchesSequentialTraining) {
  const std::int64_t batch = 8;
  const auto seq = sequential_params(batch, 3);
  for (int world : {2, 4}) {
    const auto dist = distributed_params(
        world, batch, 3, [](auto base, Communicator& c) {
          return std::make_unique<ConsistentDecentralized>(std::move(base), c);
        });
    expect_close(dist, seq, 1e-4f);
  }
}

TEST(DSGD, StagingCopiesPathIsEquivalent) {
  const std::int64_t batch = 8;
  const auto seq = sequential_params(batch, 2);
  DsgdOptions opts;
  opts.staging_copies = true;
  const auto dist = distributed_params(
      2, batch, 2, [&](auto base, Communicator& c) {
        return std::make_unique<ConsistentDecentralized>(std::move(base), c,
                                                         opts);
      });
  expect_close(dist, seq, 1e-4f);
}

TEST(HorovodLike, FusedBuffersMatchSequential) {
  const std::int64_t batch = 8;
  const auto seq = sequential_params(batch, 3);
  const auto dist = distributed_params(
      4, batch, 3, [](auto base, Communicator& c) {
        return make_horovod_like(std::move(base), c);
      });
  expect_close(dist, seq, 1e-4f);
}

TEST(PSSGD, MatchesSequentialTraining) {
  const std::int64_t batch = 8;
  const auto seq = sequential_params(batch, 3);
  const auto dist = distributed_params(
      4, batch, 3, [](auto base, Communicator& c) {
        return std::make_unique<ConsistentCentralized>(std::move(base), c);
      });
  expect_close(dist, seq, 1e-4f);
}

TEST(TFPS, ShardedServerMatchesSequential) {
  const std::int64_t batch = 8;
  const auto seq = sequential_params(batch, 3);
  const auto dist = distributed_params(
      4, batch, 3, [](auto base, Communicator& c) {
        return std::make_unique<ShardedParameterServer>(std::move(base), c);
      });
  expect_close(dist, seq, 1e-4f);
}

TEST(CommVolume, AppLevelRatiosMatchPaperStructure) {
  // Fig. 12 caption: per-node app-level volume DSGD : PSSGD : DPSGD
  // = 1 : 2 : 2 (allreduce counts its buffer once; PS and neighbor schemes
  // move gradients up and parameters down / to both sides).
  const std::int64_t batch = 8;
  const int world = 4, steps = 2;
  std::uint64_t dsgd = 0, pssgd = 0, dpsgd = 0;
  distributed_params(world, batch, steps,
                     [](auto base, Communicator& c) {
                       return std::make_unique<ConsistentDecentralized>(
                           std::move(base), c);
                     },
                     &dsgd);
  distributed_params(world, batch, steps,
                     [](auto base, Communicator& c) {
                       return std::make_unique<ConsistentCentralized>(
                           std::move(base), c);
                     },
                     &pssgd);
  distributed_params(world, batch, steps,
                     [](auto base, Communicator& c) {
                       return std::make_unique<NeighborDecentralized>(
                           std::move(base), c);
                     },
                     &dpsgd);
  EXPECT_EQ(pssgd, 2 * dsgd);
  EXPECT_EQ(dpsgd, 2 * dsgd);
}

TEST(DPSGD, RanksMixTowardConsensus) {
  // Gossip averaging shrinks cross-rank parameter disagreement over time
  // even though ranks never globally synchronize.
  const std::int64_t batch = 8;
  const int world = 4;
  SimMpi mpi(world);
  std::vector<std::vector<float>> params_after(world);
  std::mutex mu;
  mpi.run([&](Communicator& comm) {
    const std::int64_t per = batch / world;
    // Different seeds per rank: start from different data ordering.
    ReferenceExecutor exec(build_network(model_for(per)));
    auto base = std::make_unique<GradientDescentOptimizer>(exec, kLr);
    NeighborDecentralized dist(std::move(base), comm);
    dist.set_loss_value("loss");
    for (int s = 0; s < 5; ++s) {
      const TensorMap global =
          global_feeds(batch, 1700 + s * (comm.rank() + 1));
      dist.train(rank_slice(global, comm.rank(), world));
    }
    std::lock_guard<std::mutex> lock(mu);
    params_after[static_cast<std::size_t>(comm.rank())] =
        pack_parameters(exec.network());
  });
  // All ranks hold finite, mixed parameters.
  for (int r = 1; r < world; ++r) {
    ASSERT_EQ(params_after[0].size(), params_after[static_cast<std::size_t>(r)].size());
    for (float v : params_after[static_cast<std::size_t>(r)])
      ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(MAVG, RanksAgreeAfterEveryStep) {
  const std::int64_t batch = 8;
  const int world = 4;
  SimMpi mpi(world);
  std::vector<std::vector<float>> params(world);
  std::mutex mu;
  mpi.run([&](Communicator& comm) {
    const std::int64_t per = batch / world;
    ReferenceExecutor exec(build_network(model_for(per)));
    auto base = std::make_unique<GradientDescentOptimizer>(exec, kLr);
    ModelAveraging dist(std::move(base), comm);
    dist.set_loss_value("loss");
    for (int s = 0; s < 3; ++s)
      dist.train(rank_slice(global_feeds(batch, 333 + s), comm.rank(), world));
    std::lock_guard<std::mutex> lock(mu);
    params[static_cast<std::size_t>(comm.rank())] =
        pack_parameters(exec.network());
  });
  for (int r = 1; r < world; ++r)
    expect_close(params[static_cast<std::size_t>(r)], params[0], 1e-5f);
}

/// Parameter server at `bound` on rank 0 with world-1 workers, each
/// training on its slice of a batch split over the workers (the server is
/// not a worker, so `batch` must divide by world-1).
struct PsRun {
  std::vector<float> initial;
  std::vector<float> final_params;  // the server's, after every DONE
  PsStats stats;
};

PsRun ps_params(int world, std::int64_t batch, int steps, std::int64_t bound,
                std::uint64_t seed) {
  const int workers = world - 1;
  const std::int64_t per = batch / workers;
  EXPECT_EQ(per * workers, batch) << "batch must split over the workers";
  PsRun run;
  {
    Network init = build_network(model_for(per));
    run.initial = pack_parameters(init);
  }
  SimMpi mpi(world);
  std::mutex mu;
  mpi.run([&](Communicator& comm) {
    ReferenceExecutor exec(build_network(model_for(per)));
    if (comm.rank() == 0) {
      GradientDescentOptimizer update(exec, kLr);
      const PsStats stats = run_parameter_server(comm, update, bound);
      std::lock_guard<std::mutex> lock(mu);
      run.stats = stats;
      run.final_params = pack_parameters(exec.network());
      return;
    }
    auto base = std::make_unique<GradientDescentOptimizer>(exec, kLr);
    BoundedStalenessWorker dist(std::move(base), comm);
    dist.set_loss_value("loss");
    for (int s = 0; s < steps; ++s) {
      const TensorMap global = global_feeds(batch, seed + s);
      const auto out = dist.train(rank_slice(global, comm.rank() - 1, workers));
      // EXPECT, not ASSERT: a worker that skipped finish() would leave the
      // server waiting for its DONE.
      EXPECT_TRUE(std::isfinite(out.at("loss").at(0)));
    }
    dist.finish();
  });
  return run;
}

TEST(ASGD, MakesProgressWithoutBarriers) {
  // ASGD is the parameter server with no staleness bound: no pull is ever
  // deferred, and every push still lands.
  const int world = 4, steps = 4;
  const PsRun run = ps_params(world, /*batch=*/12, steps, kUnboundedStaleness,
                              /*seed=*/444);
  ASSERT_EQ(run.stats.applied.size(), static_cast<std::size_t>(world));
  EXPECT_EQ(run.stats.applied[0], 0);  // the server is not a worker
  std::int64_t applied = 0;
  for (const std::int64_t a : run.stats.applied) applied += a;
  EXPECT_EQ(applied, (world - 1) * steps);
  // The server's parameters moved away from the initial point.
  ASSERT_EQ(run.final_params.size(), run.initial.size());
  double dist2 = 0;
  for (std::size_t i = 0; i < run.initial.size(); ++i) {
    const double d = run.final_params[i] - run.initial[i];
    dist2 += d * d;
  }
  EXPECT_GT(std::sqrt(dist2), 1e-4);
}

TEST(SSP, StalenessBoundHolds) {
  // SSP is the same server at bound k: no pull is served more than k
  // steps ahead of the slowest worker's applied pushes.
  const int world = 3, steps = 6;
  const std::int64_t bound = 1;
  const PsRun run = ps_params(world, /*batch=*/4, steps, bound,
                              /*seed=*/555);
  EXPECT_LE(run.stats.max_staleness_served, bound);
  for (int r = 1; r < world; ++r)
    EXPECT_EQ(run.stats.applied[static_cast<std::size_t>(r)], steps)
        << "rank " << r;
  for (const float v : run.final_params) ASSERT_TRUE(std::isfinite(v));
}

TEST(PackUnpack, RoundTrip) {
  Network net = build_network(model_for(4));
  auto packed = pack_parameters(net);
  for (auto& v : packed) v += 1.0f;
  unpack_parameters(net, packed);
  const auto packed2 = pack_parameters(net);
  expect_close(packed2, packed, 0.0f);
  EXPECT_THROW(unpack_parameters(net, std::vector<float>(3)), Error);
}

}  // namespace
}  // namespace d500

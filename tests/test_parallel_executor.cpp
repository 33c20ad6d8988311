// Shared thread pool + inter-op parallel execution tests: parallel_for
// decomposition/exceptions, run_task_graph scheduling, help_while/notify
// wakeups, and PlanExecutor's parallel mode matching its serial walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/threadpool.hpp"
#include "frameworks/plan_executor.hpp"
#include "graph/executor.hpp"
#include "graph/visitor.hpp"
#include "models/builders.hpp"

namespace d500 {
namespace {

TEST(ParallelFor, EmptyRangeNeverCallsBody) {
  int calls = 0;
  parallel_for(0, 0, 4, [&](std::int64_t, std::int64_t) { ++calls; });
  parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  parallel_for(7, 3, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, GrainLargerThanRangeRunsOneChunk) {
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  parallel_for(2, 7, 100, [&](std::int64_t lo, std::int64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::int64_t, std::int64_t>{2, 7}));
}

TEST(ParallelFor, ChunkingIsAPureFunctionOfTheRange) {
  // The decomposition must not depend on the thread count: same chunk set
  // at 1, 2 and 4 threads.
  auto decompose = [](int threads) {
    ThreadPool::instance().reset(threads);
    std::mutex mu;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    parallel_for(0, 103, 10, [&](std::int64_t lo, std::int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto one = decompose(1);
  ASSERT_EQ(one.size(), 11u);  // ceil(103/10)
  EXPECT_EQ(one.back(), (std::pair<std::int64_t, std::int64_t>{100, 103}));
  EXPECT_EQ(decompose(2), one);
  EXPECT_EQ(decompose(4), one);
}

TEST(ParallelFor, EveryIterationRunsExactlyOnce) {
  ThreadPool::instance().reset(4);
  std::vector<int> hits(1000, 0);
  parallel_for(0, 1000, 7, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  ThreadPool::instance().reset(4);
  EXPECT_THROW(
      parallel_for(0, 100, 1,
                   [&](std::int64_t lo, std::int64_t) {
                     if (lo == 42) throw std::runtime_error("chunk failed");
                   }),
      std::runtime_error);
  // The pool must stay usable after an exception drains.
  int sum = 0;
  std::mutex mu;
  parallel_for(0, 10, 1, [&](std::int64_t lo, std::int64_t) {
    std::lock_guard<std::mutex> lock(mu);
    sum += static_cast<int>(lo);
  });
  EXPECT_EQ(sum, 45);
}

TEST(ParallelFor, NestedLoopsDoNotDeadlock) {
  ThreadPool::instance().reset(4);
  std::vector<int> out(64, 0);
  parallel_for(0, 8, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i)
      parallel_for(0, 8, 1, [&](std::int64_t jlo, std::int64_t jhi) {
        for (std::int64_t j = jlo; j < jhi; ++j)
          out[static_cast<std::size_t>(i * 8 + j)] = static_cast<int>(i + j);
      });
  });
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) EXPECT_EQ(out[i * 8 + j], i + j);
}

TEST(RunTaskGraph, RespectsDependencies) {
  ThreadPool::instance().reset(4);
  // Diamond: 0 -> {1, 2} -> 3.
  std::vector<std::vector<int>> unblocks{{1, 2}, {3}, {3}, {}};
  std::vector<int> deps{0, 1, 1, 2};
  std::mutex mu;
  std::vector<int> done;
  run_task_graph(unblocks, deps, [&](int t) {
    std::lock_guard<std::mutex> lock(mu);
    done.push_back(t);
  });
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done.front(), 0);
  EXPECT_EQ(done.back(), 3);
}

TEST(RunTaskGraph, CycleIsReportedNotDeadlocked) {
  ThreadPool::instance().reset(2);
  // 1 and 2 wait on each other; only 0 can run.
  std::vector<std::vector<int>> unblocks{{1}, {2}, {1}};
  std::vector<int> deps{0, 2, 1};
  EXPECT_THROW(run_task_graph(unblocks, deps, [&](int) {}), Error);
}

TEST(RunTaskGraph, ExceptionPropagatesToCaller) {
  ThreadPool::instance().reset(4);
  std::vector<std::vector<int>> unblocks{{1}, {2}, {}};
  std::vector<int> deps{0, 1, 1};
  EXPECT_THROW(run_task_graph(unblocks, deps,
                              [&](int t) {
                                if (t == 1) throw std::runtime_error("task");
                              }),
               std::runtime_error);
}

TEST(ThreadPool, NotifyIsNeverLostByAHelpWhileWaiter) {
  // A completer stores the flag help_while polls and calls notify() with no
  // lock held, racing the waiter's check-then-block. A lost wakeup leaves
  // the waiter asleep with its condition already true; the watchdog turns
  // that into a test failure (and rescues the waiter) instead of a hang.
  ThreadPool::instance().reset(2);
  ThreadPool& pool = ThreadPool::instance();
  constexpr int kIters = 100000;
  std::atomic<int> requested{0};  // iteration the setter should complete
  std::atomic<int> completed{0};  // iteration the setter has completed
  std::atomic<bool> stop{false};
  std::atomic<bool> stalled{false};

  std::thread setter([&] {
    int seen = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const int want = requested.load(std::memory_order_acquire);
      if (want == seen) continue;
      seen = want;
      completed.store(want, std::memory_order_release);
      pool.notify();
    }
  });
  std::thread watchdog([&] {
    int last = -1;
    auto last_change = std::chrono::steady_clock::now();
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const int now = completed.load(std::memory_order_acquire);
      const auto t = std::chrono::steady_clock::now();
      if (now != last) {
        last = now;
        last_change = t;
      } else if (t - last_change > std::chrono::seconds(2)) {
        stalled.store(true, std::memory_order_release);
        pool.notify();  // the waiter's condition holds: wake it to report
      }
    }
  });

  int i = 1;
  for (; i <= kIters && !stalled.load(std::memory_order_acquire); ++i) {
    requested.store(i, std::memory_order_release);
    pool.help_while(
        [&] { return completed.load(std::memory_order_acquire) == i; });
  }
  stop.store(true, std::memory_order_release);
  setter.join();
  watchdog.join();
  EXPECT_FALSE(stalled.load()) << "help_while slept through notify() after "
                               << i - 1 << " iterations";
}

// ---------------------------------------------------------------------------
// Inter-op scheduling: PlanExecutor's parallel mode runs the compiled step
// table through run_task_graph. Plan vs. reference at every builder, thread
// count and planner setting lives in test_memory_plan (MemoryPlanExecutor.*);
// here the parallel schedule must match the serial walk and fire events.

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.bytes()), 0)
      << what << ": payload differs";
}

TensorMap model_feeds(const Model& m, std::uint64_t seed) {
  // Feed every declared input: image-like data uniform in [-1, 1], labels
  // as small class ids.
  Network net = build_network(m);
  Rng rng(seed);
  TensorMap feeds;
  for (const auto& iname : net.inputs()) {
    Tensor t(net.input_shape(iname));
    if (iname == "labels") {
      for (std::int64_t i = 0; i < t.elements(); ++i)
        t.at(i) = static_cast<float>(rng.below(4));
    } else {
      t.fill_uniform(rng, -1, 1);
    }
    feeds[iname] = std::move(t);
  }
  return feeds;
}

TEST(PlanExecutor, ParallelInferenceMatchesSerialPlanAndFiresEvents) {
  struct Counter : Event {
    int before_op = 0, after_op = 0, before_inf = 0, after_inf = 0;
    bool on_event(const EventInfo& info) override {
      switch (info.point) {
        case EventPoint::kBeforeOperator: ++before_op; break;
        case EventPoint::kAfterOperator: ++after_op; break;
        case EventPoint::kBeforeInference: ++before_inf; break;
        case EventPoint::kAfterInference: ++after_inf; break;
        default: break;
      }
      return true;
    }
  };
  const Model m = models::lenet(2, 1, 12, 12, 4, 21);
  const TensorMap feeds = model_feeds(m, 5);

  ThreadPool::instance().reset(1);
  PlanExecutor serial(build_network(m), "plan-serial", ExecOptions{});
  const TensorMap expected = serial.inference(feeds);

  ThreadPool::instance().reset(4);
  ExecOptions par_opts;
  par_opts.parallel = true;
  PlanExecutor par(build_network(m), "plan-parallel", par_opts);
  auto counter = std::make_shared<Counter>();
  par.add_event(counter);
  const TensorMap got = par.inference(feeds);
  ASSERT_EQ(got.size(), expected.size());
  for (const auto& [oname, t] : expected)
    expect_bitwise_equal(got.at(oname), t, "inference output " + oname);
  const int n_nodes = static_cast<int>(par.network().nodes().size());
  EXPECT_EQ(counter->before_op, n_nodes);
  EXPECT_EQ(counter->after_op, n_nodes);
  EXPECT_EQ(counter->before_inf, 1);
  EXPECT_EQ(counter->after_inf, 1);
}

}  // namespace
}  // namespace d500

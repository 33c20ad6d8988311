#include "core/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "core/error.hpp"
#include "core/metrics_registry.hpp"
#include "core/trace.hpp"

namespace d500 {

namespace {

int env_thread_count() {
  if (const char* v = std::getenv("D500_THREADS")) {
    const long n = std::strtol(v, nullptr, 10);
    if (n >= 1) return static_cast<int>(std::min(n, 1024L));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(env_thread_count());
  return pool;
}

ThreadPool::ThreadPool(int threads) { start_workers(threads); }

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::start_workers(int threads) {
  D500_CHECK_MSG(threads >= 1, "thread pool needs >= 1 thread");
  // threads counts the calling thread; workers are the rest.
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  stopping_ = false;
  queue_.clear();
}

void ThreadPool::reset(int threads) {
  stop_workers();
  start_workers(threads);
}

void ThreadPool::enqueue(std::function<void()> job) {
  // Stamp the enqueue time only when someone will look at it: the
  // dequeue side samples "pool.queue_wait_ns" from the delta.
  const std::int64_t enq =
      metrics_enabled() ? metrics_detail::now_ns() : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(Job{std::move(job), enq});
  }
  cv_.notify_one();
}

void ThreadPool::record_queue_wait(std::int64_t enq_ns) {
  if (enq_ns == 0 || !metrics_enabled()) return;
  static Histogram& h =
      MetricsRegistry::instance().histogram("pool.queue_wait_ns");
  h.record(static_cast<double>(metrics_detail::now_ns() - enq_ns));
}

void ThreadPool::notify() {
  // Empty critical section: help_while evaluates done() under mu_, so a
  // completer that flipped its flag without the lock would otherwise be
  // able to notify between a waiter's failed check and its block on cv_ —
  // a lost wakeup. Taking mu_ orders this notify after any check in
  // progress: the waiter either sees the new state or is already waiting.
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_all();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job job;
    {
      // The idle span brackets the cv wait; declared before the lock so its
      // end record is emitted after the unlock (off the contended path).
      TraceSpan idle("threadpool", "idle");
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    record_queue_wait(job.enq_ns);
    D500_TRACE_SCOPE("threadpool", "task");
    job.fn();
  }
}

void ThreadPool::help_while(const std::function<bool()>& done) {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || done() || !queue_.empty(); });
      if (stopping_ || done()) {
        // Pass the baton: if jobs remain, make sure a worker (or another
        // helper) is woken to take the one our notify consumed.
        if (!queue_.empty()) cv_.notify_one();
        return;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    record_queue_wait(job.enq_ns);
    D500_TRACE_SCOPE("threadpool", "task");
    job.fn();
  }
}

namespace {

/// Shared state of one parallel_for call. Chunks are claimed under the
/// mutex; the decomposition itself (nchunks, bounds) is fixed up front.
struct LoopState {
  std::mutex mu;
  std::condition_variable cv;
  std::int64_t next = 0;  // next unclaimed chunk
  std::int64_t nchunks = 0;
  int in_flight = 0;  // chunks currently executing
  bool error = false;
  std::exception_ptr eptr;
};

/// Claims and runs chunks until none remain (or an error aborts the loop).
/// Takes `fn` by pointer: stale helper jobs may run after the owning
/// parallel_for call returned, and must not even bind a dangling reference
/// (they find no chunks left and never dereference it).
void run_chunks(LoopState& st, std::int64_t begin, std::int64_t end,
                std::int64_t grain,
                const std::function<void(std::int64_t, std::int64_t)>* fn) {
  for (;;) {
    std::int64_t c;
    {
      std::lock_guard<std::mutex> lock(st.mu);
      if (st.error || st.next >= st.nchunks) return;
      c = st.next++;
      ++st.in_flight;
    }
    try {
      const std::int64_t lo = begin + c * grain;
      (*fn)(lo, std::min(lo + grain, end));
    } catch (...) {
      std::lock_guard<std::mutex> lock(st.mu);
      if (!st.error) {
        st.error = true;
        st.eptr = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(st.mu);
      --st.in_flight;
      if (st.in_flight == 0 && (st.error || st.next >= st.nchunks))
        st.cv.notify_all();
    }
  }
}

}  // namespace

void detail::parallel_for_impl(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  // The template wrapper (threadpool.hpp) handled the empty and serial
  // cases; here the range is non-empty, grain >= 1, and the pool has
  // workers to fan out to.
  const std::int64_t g = grain;
  const std::int64_t nchunks = (end - begin + g - 1) / g;
  ThreadPool& pool = ThreadPool::instance();
  auto st = std::make_shared<LoopState>();
  st->nchunks = nchunks;
  const int helpers = static_cast<int>(std::min<std::int64_t>(
      nchunks - 1, pool.num_threads() - 1));
  const auto* fnp = &fn;
  for (int h = 0; h < helpers; ++h)
    pool.enqueue([st, begin, end, g, fnp]() {
      // `*fnp` stays alive while chunks remain: the caller blocks below
      // until every claimed chunk finishes; helpers that arrive after that
      // find no chunks to claim and never dereference fnp.
      run_chunks(*st, begin, end, g, fnp);
    });

  run_chunks(*st, begin, end, g, &fn);
  {
    std::unique_lock<std::mutex> lock(st->mu);
    st->cv.wait(lock, [&] {
      return st->in_flight == 0 && (st->error || st->next >= st->nchunks);
    });
    if (st->eptr) std::rethrow_exception(st->eptr);
  }
}

namespace {

struct GraphState {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> deps;
  const std::vector<std::vector<int>>* unblocks = nullptr;
  const std::function<void(int)>* fn = nullptr;
  std::size_t completed = 0;
  std::size_t total = 0;
  int outstanding = 0;  // enqueued task closures not yet finished
  bool error = false;
  std::exception_ptr eptr;
  std::atomic<bool> finished{false};
};

void run_graph_task(const std::shared_ptr<GraphState>& st, int i);

void launch_graph_tasks(const std::shared_ptr<GraphState>& st,
                        const std::vector<int>& ready) {
  for (int r : ready)
    ThreadPool::instance().enqueue([st, r] { run_graph_task(st, r); });
}

void run_graph_task(const std::shared_ptr<GraphState>& st, int i) {
  bool skip;
  {
    std::lock_guard<std::mutex> lock(st->mu);
    skip = st->error;
  }
  if (!skip) {
    try {
      (*st->fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(st->mu);
      if (!st->error) {
        st->error = true;
        st->eptr = std::current_exception();
      }
    }
  }

  std::vector<int> ready;
  bool finished = false;
  {
    std::lock_guard<std::mutex> lock(st->mu);
    ++st->completed;
    if (!st->error)
      for (int c : (*st->unblocks)[static_cast<std::size_t>(i)])
        if (--st->deps[static_cast<std::size_t>(c)] == 0) ready.push_back(c);
    st->outstanding += static_cast<int>(ready.size()) - 1;
    if (st->outstanding == 0) {
      // Nothing running or queued: either the DAG is done, aborted on
      // error, or (defensively) stalled on a cycle.
      if (!st->error && st->completed != st->total) {
        st->error = true;
        st->eptr = std::make_exception_ptr(
            Error("run_task_graph: dependency graph stalled (cycle?)"));
      }
      finished = true;
    }
  }
  launch_graph_tasks(st, ready);
  if (finished) {
    st->finished.store(true, std::memory_order_release);
    st->cv.notify_all();
    ThreadPool::instance().notify();
  }
}

}  // namespace

void run_task_graph(const std::vector<std::vector<int>>& unblocks,
                    std::vector<int> deps,
                    const std::function<void(int)>& fn) {
  const std::size_t n = deps.size();
  D500_CHECK_MSG(unblocks.size() == n,
                 "run_task_graph: unblocks/deps size mismatch");
  if (n == 0) return;

  ThreadPool& pool = ThreadPool::instance();
  if (pool.num_threads() == 1) {
    // Serial path: FIFO over ready tasks, seeded in index order — a fixed,
    // deterministic topological schedule.
    std::deque<int> ready;
    for (std::size_t i = 0; i < n; ++i)
      if (deps[i] == 0) ready.push_back(static_cast<int>(i));
    std::size_t completed = 0;
    while (!ready.empty()) {
      const int i = ready.front();
      ready.pop_front();
      fn(i);
      ++completed;
      for (int c : unblocks[static_cast<std::size_t>(i)])
        if (--deps[static_cast<std::size_t>(c)] == 0) ready.push_back(c);
    }
    D500_CHECK_MSG(completed == n,
                   "run_task_graph: dependency graph stalled (cycle?)");
    return;
  }

  auto st = std::make_shared<GraphState>();
  st->deps = std::move(deps);
  st->unblocks = &unblocks;
  st->fn = &fn;
  st->total = n;
  std::vector<int> roots;
  for (std::size_t i = 0; i < n; ++i)
    if (st->deps[i] == 0) roots.push_back(static_cast<int>(i));
  D500_CHECK_MSG(!roots.empty(),
                 "run_task_graph: no ready tasks (cycle?)");
  st->outstanding = static_cast<int>(roots.size());
  launch_graph_tasks(st, roots);

  // The calling thread works the pool queue (graph tasks and any nested
  // parallel_for helpers) until the DAG drains.
  pool.help_while(
      [&] { return st->finished.load(std::memory_order_acquire); });
  std::lock_guard<std::mutex> lock(st->mu);
  if (st->eptr) std::rethrow_exception(st->eptr);
}

}  // namespace d500

// Shared thread-pool runtime: the single owner of all compute threads.
//
// The paper's executors (§IV-D) assume the host engine exploits hardware
// parallelism; this subsystem provides it without sacrificing the
// reproducibility pillar. One persistent pool serves every parallel site —
// kernels (intra-op), graph executors (inter-op), and the data pipeline —
// replacing the former ad-hoc OpenMP regions that forked a fresh team per
// call and composed badly with the PrefetchLoader worker.
//
// Determinism contract: parallel work is decomposed as a pure function of
// the *problem* (range and grain; dependency structure), never of the
// thread count. Chunks write disjoint state and reductions combine chunk
// partials in fixed chunk order, so results are bit-identical at any
// D500_THREADS setting — including fully serial execution.
//
// Knob: D500_THREADS = total compute threads (workers + the calling
// thread). Default: hardware concurrency. 1 = fully serial, no workers.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace d500 {

class ThreadPool {
 public:
  /// The process-wide pool, created on first use with D500_THREADS threads.
  static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total compute threads: workers plus the calling thread.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Tears down the workers and restarts the pool with `threads` total
  /// compute threads (>= 1). Test hook backing the determinism contract
  /// (results must not change with the thread count). Must not be called
  /// while parallel work is in flight.
  void reset(int threads);

  /// Enqueues a job for a worker (or a help_while caller) to run. Jobs must
  /// not block waiting for other jobs — schedulers built on the pool keep
  /// the submitting thread working instead (see parallel_for).
  void enqueue(std::function<void()> job);

  /// Runs queued jobs on the calling thread until `done()` returns true,
  /// sleeping while the queue is empty. `done` is evaluated under the pool
  /// lock and must be cheap and lock-free (read atomics only). Wake a
  /// blocked caller whose condition changed with notify().
  void help_while(const std::function<bool()>& done);

  /// Wakes help_while callers so they re-evaluate their condition. Safe to
  /// call right after storing the state `done()` reads, without holding
  /// any lock: the wakeup cannot fall between a caller's check and block.
  void notify();

 private:
  explicit ThreadPool(int threads);
  void start_workers(int threads);
  void stop_workers();
  void worker_loop();

  /// Queue entry: the job plus its enqueue timestamp, feeding the
  /// "pool.queue_wait_ns" histogram (0 when metrics are off — not sampled).
  struct Job {
    std::function<void()> fn;
    std::int64_t enq_ns = 0;
  };
  static void record_queue_wait(std::int64_t enq_ns);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

namespace detail {
/// Multi-chunk, multi-thread body of parallel_for (threadpool.cpp).
void parallel_for_impl(std::int64_t begin, std::int64_t end, std::int64_t grain,
                       const std::function<void(std::int64_t, std::int64_t)>& fn);
}  // namespace detail

/// Deterministic parallel loop over [begin, end). The range is cut into
/// ceil(range/grain) chunks of `grain` iterations (last chunk short) — a
/// pure function of the range, never of the thread count — and
/// fn(chunk_begin, chunk_end) runs exactly once per chunk, possibly
/// concurrently, with the calling thread participating. The caller must
/// ensure chunks touch disjoint state; combine any per-chunk partials in
/// chunk order afterwards to stay deterministic. The first exception thrown
/// by fn is rethrown on the calling thread after in-flight chunks drain.
///
/// Templated so the serial path (one chunk, or a one-thread pool) calls the
/// functor directly: capturing lambdas never convert to std::function — a
/// conversion that heap-allocates past the ~16-byte SBO — keeping warm
/// single-threaded steps allocation-free. The conversion is paid only when
/// work actually fans out to the pool.
template <typename Fn>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  Fn&& fn) {
  if (end <= begin) return;
  const std::int64_t g = grain < 1 ? 1 : grain;
  const std::int64_t nchunks = (end - begin + g - 1) / g;
  if (nchunks == 1 || ThreadPool::instance().num_threads() == 1) {
    // Serial path: identical chunk decomposition, executed in order.
    for (std::int64_t c = 0; c < nchunks; ++c) {
      const std::int64_t lo = begin + c * g;
      const std::int64_t hi = lo + g < end ? lo + g : end;
      fn(lo, hi);
    }
    return;
  }
  detail::parallel_for_impl(begin, end, g, fn);
}

/// Runs tasks 0..deps.size()-1 on the pool respecting a dependency DAG:
/// deps[i] = number of prerequisites of task i; unblocks[i] lists the tasks
/// whose dependency count drops when i completes (one entry per edge).
/// Ready tasks are scheduled concurrently (inter-op parallelism); with a
/// single-thread pool, tasks run inline in deterministic FIFO order. The
/// first exception aborts scheduling of further tasks and is rethrown after
/// in-flight tasks drain. Throws Error on a stalled (cyclic) graph.
void run_task_graph(const std::vector<std::vector<int>>& unblocks,
                    std::vector<int> deps,
                    const std::function<void(int)>& fn);

}  // namespace d500

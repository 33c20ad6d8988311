// SessionPool: N InferenceSessions pulling coalesced batches from one
// RequestQueue under a configurable dynamic-batching policy.
//
// The serving pipeline is: clients submit() single-sample Requests into a
// bounded MPMC ring; each pool worker thread owns one InferenceSession and
// repeatedly pops a batch according to the policy, pads it to the nearest
// plan bucket, and runs it. Workers are dedicated std::threads, not shared
// ThreadPool jobs: they block on the queue, which pool jobs must never do
// ("jobs never block on jobs" contract). Kernels run serially inside each
// session, so serving parallelism scales with the session count.
//
// Batching policies (D500_SERVE_POLICY):
//   none     — no coalescing: every request launches alone (the batch-1
//              baseline the SLO benchmark compares against).
//   fixed    — classic static batching: wait for a full D500_SERVE_MAX_BATCH
//              before launching; stragglers below a full batch only flush
//              at shutdown. Best throughput, unbounded tail latency.
//   deadline — launch at max batch OR when the oldest queued request has
//              waited D500_SERVE_DEADLINE_US, whichever comes first: the
//              latency bound production batchers give.
//   adaptive — deadline policy whose launch threshold tracks observed load
//              (AdaptiveBatcher): the target widens while launches leave a
//              backlog behind (demand exceeds the current batch) and
//              narrows when deadline-expiry launches go out well under
//              target (demand fell). At low rate it behaves like `none`
//              (target 1, no added wait); under load like `fixed` with the
//              deadline as a hard latency backstop.
//
// Shutdown drains: close() rejects new submissions, workers flush every
// accepted request (partial batches included), then exit. Every accepted
// request is therefore always completed — wait() cannot hang.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/session.hpp"

namespace d500 {
class Counter;
class Gauge;
class Histogram;
}  // namespace d500

namespace d500::serve {

enum class Policy { kNone, kFixed, kDeadline, kAdaptive };

/// Parses "none" | "fixed" | "deadline" | "adaptive" (D500_SERVE_POLICY);
/// unknown strings fall back to kAdaptive.
Policy policy_from_string(const std::string& s);
const char* policy_name(Policy p);

/// Load-tracking launch-threshold controller for Policy::kAdaptive.
/// Thread-compatible: SessionPool serializes calls under its policy mutex.
class AdaptiveBatcher {
 public:
  explicit AdaptiveBatcher(std::int64_t max_batch)
      : max_(max_batch < 1 ? 1 : max_batch) {}

  std::int64_t target() const { return target_; }

  /// One observation per launch: `launched` requests went out, `backlog`
  /// remained queued afterwards, `expired` says the launch fired on
  /// deadline expiry rather than a filled target. Backlog at or above the
  /// target means demand outruns the current batch — double the target;
  /// an expiry launch at under half the target means demand fell — halve.
  void observe(std::int64_t launched, std::int64_t backlog, bool expired) {
    if (backlog >= target_) {
      target_ = std::min(target_ * 2, max_);
    } else if (expired && launched * 2 <= target_) {
      target_ = std::max(target_ / 2, std::int64_t{1});
    }
  }

 private:
  std::int64_t max_;
  std::int64_t target_ = 1;
};

/// Bounded MPMC queue of borrowed Request pointers (fixed ring, no
/// allocation after construction). push() blocks while full (backpressure);
/// pop_batch() blocks until a policy launch condition holds.
class RequestQueue {
 public:
  using Request = InferenceSession::Request;

  explicit RequestQueue(std::size_t capacity);

  /// False once closed (the request was NOT accepted and will never
  /// complete); otherwise blocks while the ring is full, then enqueues.
  bool push(Request* r);

  /// Dequeues up to `max_n` requests into `out`. Blocks until `target`
  /// requests are queued, the oldest queued request is older than
  /// `deadline_ns` (sets *expired), or the queue is closed (flushes what
  /// remains). Returns 0 only when closed and drained.
  std::size_t pop_batch(Request** out, std::int64_t max_n, std::int64_t target,
                        std::int64_t deadline_ns, bool* expired);

  /// Rejects further pushes and wakes every waiter; pop_batch keeps
  /// returning batches until the ring is empty.
  void close();

  std::int64_t depth() const;
  bool closed() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<Request*> ring_;
  std::size_t head_ = 0;   // oldest element
  std::size_t count_ = 0;
  bool closed_ = false;
};

struct PoolOptions {
  int sessions = 2;
  Policy policy = Policy::kAdaptive;
  std::int64_t max_batch = 32;          // clamped to the largest bucket
  std::int64_t deadline_us = 2000;
  std::vector<std::int64_t> buckets;    // empty -> parse_buckets default
  std::size_t queue_capacity = 1 << 16;

  /// Defaults resolved from the D500_SERVE_* environment knobs.
  static PoolOptions from_env();
};

class SessionPool {
 public:
  using Request = InferenceSession::Request;

  /// Builds `opts.sessions` InferenceSessions (each precompiling every
  /// bucket) but spawns no threads until start().
  SessionPool(const Model& model, PoolOptions opts);
  ~SessionPool();  // shutdown()

  void start();

  /// Stamps arrival_ns and enqueues. False when the pool is shut down (the
  /// request was not accepted). Blocks while the queue is full.
  bool submit(Request* r);

  /// Blocks until the request completes. Only valid for accepted requests.
  void wait(const Request& r) const;

  /// Closes the queue, drains every accepted request, joins the workers.
  /// Idempotent.
  void shutdown();

  std::int64_t input_elems() const { return sessions_[0]->input_elems(); }
  std::int64_t output_elems() const { return sessions_[0]->output_elems(); }
  const PoolOptions& options() const { return opts_; }
  std::size_t session_count() const { return sessions_.size(); }
  const InferenceSession& session(std::size_t i) const {
    return *sessions_[i];
  }
  std::int64_t queue_depth() const { return queue_.depth(); }

  /// Aggregate launch bookkeeping (atomics; exact once workers quiesce).
  struct Stats {
    std::int64_t requests = 0;
    std::int64_t batches = 0;
    std::int64_t padded_rows = 0;
    std::int64_t deadline_launches = 0;  // launched on expiry or close
    std::int64_t max_batch_launched = 0;
    double mean_batch() const {
      return batches > 0 ? static_cast<double>(requests) /
                               static_cast<double>(batches)
                         : 0.0;
    }
  };
  Stats stats() const;

 private:
  void worker(std::size_t idx);

  PoolOptions opts_;
  std::vector<std::unique_ptr<InferenceSession>> sessions_;
  RequestQueue queue_;
  std::vector<std::thread> threads_;
  bool started_ = false;
  std::atomic<bool> closed_{false};

  std::mutex policy_mu_;  // guards batcher_
  AdaptiveBatcher batcher_;

  mutable std::mutex done_mu_;
  mutable std::condition_variable done_cv_;

  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> batches_{0};
  std::atomic<std::int64_t> deadline_launches_{0};
  std::atomic<std::int64_t> max_batch_launched_{0};

  // Metrics sites resolved once at construction (compile-resolved pattern):
  // per-request service latency (enqueue -> done; the load generator owns
  // the scheduled-arrival clock), per-launch batch size, live queue depth.
  Histogram* lat_hist_ = nullptr;
  Histogram* batch_hist_ = nullptr;
  Gauge* depth_gauge_ = nullptr;
  Counter* req_counter_ = nullptr;
};

}  // namespace d500::serve

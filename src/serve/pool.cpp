#include "serve/pool.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "core/env.hpp"
#include "core/error.hpp"
#include "core/metrics_registry.hpp"

namespace d500::serve {

namespace {

// "No deadline" sentinel: far enough out that arrival_ns + it never fires,
// small enough that the sum cannot overflow int64.
constexpr std::int64_t kNoDeadlineNs =
    std::numeric_limits<std::int64_t>::max() / 4;

std::chrono::steady_clock::time_point to_time_point(std::int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

}  // namespace

Policy policy_from_string(const std::string& s) {
  if (s == "none") return Policy::kNone;
  if (s == "fixed") return Policy::kFixed;
  if (s == "deadline") return Policy::kDeadline;
  return Policy::kAdaptive;
}

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kNone: return "none";
    case Policy::kFixed: return "fixed";
    case Policy::kDeadline: return "deadline";
    case Policy::kAdaptive: return "adaptive";
  }
  return "adaptive";
}

RequestQueue::RequestQueue(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity, nullptr) {}

bool RequestQueue::push(Request* r) {
  std::unique_lock<std::mutex> lk(mu_);
  not_full_.wait(lk, [&] { return closed_ || count_ < ring_.size(); });
  if (closed_) return false;
  ring_[(head_ + count_) % ring_.size()] = r;
  ++count_;
  not_empty_.notify_one();
  return true;
}

std::size_t RequestQueue::pop_batch(Request** out, std::int64_t max_n,
                                    std::int64_t target,
                                    std::int64_t deadline_ns, bool* expired) {
  if (target < 1) target = 1;
  *expired = false;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (closed_ || count_ >= static_cast<std::size_t>(target)) break;
    if (count_ > 0) {
      const std::int64_t oldest_dl = ring_[head_]->arrival_ns + deadline_ns;
      if (serve_now_ns() >= oldest_dl) {
        *expired = true;
        break;
      }
      not_empty_.wait_until(lk, to_time_point(oldest_dl));
    } else {
      not_empty_.wait(lk);
    }
  }
  std::size_t n = std::min(count_, static_cast<std::size_t>(max_n));
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = ring_[head_];
    head_ = (head_ + 1) % ring_.size();
  }
  count_ -= n;
  if (n > 0) not_full_.notify_all();
  return n;  // 0 only when closed and drained
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

std::int64_t RequestQueue::depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<std::int64_t>(count_);
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return closed_;
}

PoolOptions PoolOptions::from_env() {
  PoolOptions o;
  o.sessions = serve_sessions_setting();
  o.policy = policy_from_string(serve_policy_setting());
  o.max_batch = serve_max_batch();
  o.deadline_us = serve_deadline_us();
  o.buckets = parse_buckets(serve_buckets_setting());
  return o;
}

SessionPool::SessionPool(const Model& model, PoolOptions opts)
    : opts_(std::move(opts)),
      queue_(opts_.queue_capacity),
      batcher_(1) {
  D500_CHECK_MSG(opts_.sessions >= 1, "serve: pool needs >= 1 session");
  if (opts_.buckets.empty()) opts_.buckets = parse_buckets("");
  for (int i = 0; i < opts_.sessions; ++i) {
    sessions_.push_back(std::make_unique<InferenceSession>(
        model, opts_.buckets, "serve.s" + std::to_string(i)));
  }
  opts_.max_batch =
      std::clamp<std::int64_t>(opts_.max_batch, 1, sessions_[0]->max_batch());
  batcher_ = AdaptiveBatcher(opts_.max_batch);

  auto& reg = MetricsRegistry::instance();
  lat_hist_ = &reg.histogram("serve.service_latency_ns");
  batch_hist_ = &reg.histogram("serve.batch_size", "requests");
  depth_gauge_ = &reg.gauge("serve.queue_depth");
  req_counter_ = &reg.counter("serve.requests");
}

SessionPool::~SessionPool() { shutdown(); }

void SessionPool::start() {
  D500_CHECK_MSG(!started_, "serve: pool already started");
  started_ = true;
  threads_.reserve(sessions_.size());
  for (std::size_t i = 0; i < sessions_.size(); ++i)
    threads_.emplace_back([this, i] { worker(i); });
}

bool SessionPool::submit(Request* r) {
  if (closed_.load(std::memory_order_acquire)) return false;
  r->arrival_ns = serve_now_ns();
  if (!queue_.push(r)) return false;
  req_counter_->add();
  depth_gauge_->set(static_cast<double>(queue_.depth()));
  return true;
}

void SessionPool::wait(const Request& r) const {
  if (r.done.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lk(done_mu_);
  done_cv_.wait(lk, [&] { return r.done.load(std::memory_order_acquire); });
}

void SessionPool::shutdown() {
  closed_.store(true, std::memory_order_release);
  queue_.close();
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
  threads_.clear();
}

SessionPool::Stats SessionPool::stats() const {
  Stats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.deadline_launches = deadline_launches_.load(std::memory_order_relaxed);
  s.max_batch_launched = max_batch_launched_.load(std::memory_order_relaxed);
  for (const auto& sess : sessions_) s.padded_rows += sess->padded_rows();
  return s;
}

void SessionPool::worker(std::size_t idx) {
  InferenceSession& sess = *sessions_[idx];
  const std::int64_t deadline_ns = opts_.deadline_us * 1000;
  std::vector<Request*> buf(static_cast<std::size_t>(opts_.max_batch));

  for (;;) {
    std::int64_t target = 1;
    std::int64_t max_n = opts_.max_batch;
    std::int64_t dl = kNoDeadlineNs;
    switch (opts_.policy) {
      case Policy::kNone:
        max_n = 1;  // target 1, no deadline: every request launches alone
        break;
      case Policy::kFixed:
        target = opts_.max_batch;  // full batches only (flush at close)
        break;
      case Policy::kDeadline:
        target = opts_.max_batch;
        dl = deadline_ns;
        break;
      case Policy::kAdaptive: {
        std::lock_guard<std::mutex> lk(policy_mu_);
        target = batcher_.target();
        dl = deadline_ns;
        break;
      }
    }

    bool expired = false;
    const std::size_t n =
        queue_.pop_batch(buf.data(), max_n, target, dl, &expired);
    if (n == 0) break;  // closed and drained

    sess.run_batch(buf.data(), static_cast<std::int64_t>(n));

    const std::int64_t launched = static_cast<std::int64_t>(n);
    requests_.fetch_add(launched, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (expired || launched < target)
      deadline_launches_.fetch_add(1, std::memory_order_relaxed);
    std::int64_t seen = max_batch_launched_.load(std::memory_order_relaxed);
    while (launched > seen &&
           !max_batch_launched_.compare_exchange_weak(
               seen, launched, std::memory_order_relaxed)) {
    }

    const std::int64_t backlog = queue_.depth();
    if (opts_.policy == Policy::kAdaptive) {
      std::lock_guard<std::mutex> lk(policy_mu_);
      batcher_.observe(launched, backlog, expired);
    }

    batch_hist_->record(static_cast<double>(launched));
    depth_gauge_->set(static_cast<double>(backlog));
    for (std::size_t i = 0; i < n; ++i)
      lat_hist_->record(static_cast<double>(buf[i]->done_ns -
                                            buf[i]->arrival_ns));

    // Publish completions to waiters. Taking the lock (not just notifying)
    // closes the race where a waiter checks `done`, sees false, and blocks
    // after our notify flew past it.
    { std::lock_guard<std::mutex> lk(done_mu_); }
    done_cv_.notify_all();
  }
}

}  // namespace d500::serve

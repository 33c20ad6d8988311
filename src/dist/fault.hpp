// Fault and straggler injection for SimMPI (ROADMAP item 5; CCL-Bench's
// argument that training-infrastructure claims only hold under realistic
// communication behavior).
//
// A FaultInjector carries one deterministic, seeded schedule per SimMpi
// world. Every fault decision is a pure function of (seed, rank, per-rank
// event counter) — never of wall-clock time — so a given (seed, plan) pair
// replays the exact same fault sequence on every run and at every thread
// count. The injected behaviors:
//
//   * rank slowdown — a scheduled straggler rank sleeps a fixed real delay
//     before each send (and each nonblocking-collective launch), perturbing
//     timing without ever changing data;
//   * delayed/dropped messages — each point-to-point delivery attempt may
//     be dropped (per-attempt hash); the sender retries up to a bound,
//     each failed attempt charging full wire bytes plus one virtual
//     retry-timeout, and throws once the bound is exhausted;
//   * scheduled sender aborts — the nth send of a rank throws RankFailure
//     mid-collective (rank-restart tests recover via checkpoints and
//     SimMpi::clear_mailboxes);
//   * eager lateness — per-(rank, round) schedule deciding whose
//     contribution an eager collective substitutes with the previous
//     round's value, with the consecutive-lateness streak clamped to the
//     staleness bound (EagerDecentralized, dist/dist_optimizer.hpp).
//
// The disabled injector is the universal no-op path: every SimMpi routes
// all sends through it unconditionally, and with `enabled == false` each
// hook is a single branch — so the straggler-free collectives exercise the
// exact code path the fault build uses, and the synchronous suite stays
// bit-identical with the injector compiled in but disabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "core/error.hpp"

namespace d500 {

/// Thrown by a scheduled sender abort: the simulated process crash of a
/// rank mid-collective. Distinct from Error so recovery harnesses can
/// catch exactly the injected failure and restart from a checkpoint.
class RankFailure : public Error {
 public:
  explicit RankFailure(const std::string& what) : Error(what) {}
};

/// One deterministic fault schedule (see fault_plan_from_env for the
/// D500_FAULT_* env encoding).
struct FaultPlan {
  bool enabled = false;
  std::uint64_t seed = 0;

  /// Per-delivery-attempt drop probability for point-to-point messages.
  double drop_prob = 0.0;
  /// Retries after the initial attempt before a send throws.
  int max_retries = 3;
  /// Virtual timeout charged per failed attempt (accumulated in the
  /// injected-delay counter; not slept).
  std::int64_t retry_timeout_us = 50;

  /// Straggler: `slow_rank` sleeps `slow_us` (real) before every send.
  int slow_rank = -1;
  std::int64_t slow_us = 0;

  /// Eager collectives: per-(rank, round) lateness probability.
  double late_prob = 0.0;

  /// Scheduled sender aborts: rank r's nth send (0-based, counted per
  /// rank) throws RankFailure instead of delivering.
  std::vector<std::pair<int, std::int64_t>> abort_sends;

  /// Scheduled rank restarts at step granularity: restart_due(rank, step)
  /// is true exactly for these pairs (training harnesses restore the rank
  /// from its last checkpoint when it fires).
  std::vector<std::pair<int, std::int64_t>> restarts;
};

/// Builds the plan the environment requests: disabled (all-no-op) when
/// D500_FAULTS is unset — in which case any D500_FAULT_* knob D500_CHECKs
/// loudly — else populated from the D500_FAULT_* knobs.
FaultPlan fault_plan_from_env();

/// Deterministic per-world fault injector. Thread-safe: ranks call in
/// parallel; the per-rank event counters are the only mutable state and
/// each is atomic.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, int world_size);

  bool enabled() const { return plan_.enabled; }
  const FaultPlan& plan() const { return plan_; }

  /// Point-to-point send hook. Sleeps the straggler delay when `src` is
  /// the scheduled slow rank, throws RankFailure on a scheduled abort, and
  /// returns the number of dropped delivery attempts for this message
  /// (deterministic in (seed, src, per-src send index)). Throws Error when
  /// the drop count exhausts the retry bound. Disabled: returns 0 after
  /// one branch.
  int on_send(int src, int dst, int tag, std::size_t bytes);

  /// Straggler delay hook for non-p2p paths (nonblocking-collective
  /// launches). Sleeps when `rank` is the slow rank.
  void maybe_slow(int rank);

  /// Eager-collective lateness: true when rank `rank`'s contribution to
  /// round `round` is scheduled late AND its consecutive-lateness streak
  /// stays within `staleness_bound` (a streak at the bound forces the rank
  /// on time, so staleness never exceeds the bound). Pure in
  /// (seed, rank, round, bound); memoized internally.
  bool effective_late(int rank, std::int64_t round,
                      std::int64_t staleness_bound);

  /// Consecutive-lateness streak of `rank` after round `round` — the age,
  /// in rounds, of the contribution an eager collective reads for that
  /// rank (0 = on time; never exceeds `staleness_bound`). The memo assumes
  /// one bound per injector: mixing bounds on the same instance
  /// D500_CHECKs.
  std::int64_t staleness(int rank, std::int64_t round,
                         std::int64_t staleness_bound);

  /// True when the plan schedules a restart of `rank` at `step`.
  bool restart_due(int rank, std::int64_t step) const;

  // Totals across the world (for tests, benches, and metrics).
  std::uint64_t drops() const { return drops_.load(); }
  std::uint64_t retries_charged() const { return drops(); }
  std::uint64_t delay_us_injected() const { return delay_us_.load(); }
  std::uint64_t sends_seen(int rank) const;

 private:
  bool raw_late(int rank, std::int64_t round) const;

  FaultPlan plan_;
  int world_;
  std::vector<std::atomic<std::int64_t>> send_seq_;  // per-rank send index
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> delay_us_{0};

  // Lateness-streak memo: (rank, round) -> streak after that round. The
  // recurrence streak(r, k) = raw_late(r, k) && streak(r, k-1) < bound
  //                           ? streak(r, k-1) + 1 : 0
  // clamps at the bound; memoized so every observer sees one consistent
  // answer.
  std::mutex late_mu_;
  std::int64_t bound_seen_ = -1;
  std::map<std::pair<int, std::int64_t>, std::int64_t> streak_memo_;
};

}  // namespace d500

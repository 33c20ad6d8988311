// Eager (partial) allreduce: an allreduce that does not wait for straggler
// ranks. When a rank's contribution to a round is scheduled late by the
// world's FaultInjector, every reader substitutes that rank's most recent
// on-time contribution instead — up to `staleness_bound` rounds old (the
// injector clamps the consecutive-lateness streak at the bound, so no
// observer ever reads past it; D500_STALENESS=0 degenerates to a fully
// synchronous allreduce).
//
// Determinism contract: lateness is schedule-driven, never timing-driven.
// The last depositor of a round resolves the round's read set once from
// the injector's pure (seed, rank, round) schedule, and every rank sums
// the exact same substituted contributions in rank index order — so the
// result is bit-reproducible for a given (seed, plan, bound) at every
// thread count, which is what test_faults' determinism matrix asserts.
//
// The board is shared state standing in for the network: each rank's
// per-round deposit is charged to SimMpi's wire counters as the (n-1)
// peer messages a flat eager exchange would send.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "dist/simmpi.hpp"

namespace d500 {

/// One shared board per SimMpi world (construct outside run(), pass by
/// reference to every rank).
class EagerAllreduce {
 public:
  EagerAllreduce(int world, std::int64_t staleness_bound);

  /// In-place sum over the world with stale substitution (see file
  /// comment). All ranks must call with equal-sized buffers each round.
  void allreduce(Communicator& comm, std::span<float> data);

  std::int64_t bound() const { return bound_; }
  /// Completed rounds.
  std::int64_t rounds() const;
  /// Total (rank, round) reads served from a stale contribution.
  std::uint64_t stale_events() const;
  /// Largest contribution age (in rounds) any reader consumed.
  std::int64_t max_staleness_seen() const;
  /// Stale reads attributed to `rank`'s contributions.
  std::uint64_t stale_events_for(int rank) const;

 private:
  const int world_;
  const std::int64_t bound_;
  const std::int64_t depth_;  // bound + 1 rounds of history per rank

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::int64_t round_ = 0;
  int arrived_ = 0;
  int departed_ = 0;
  // slots_[rank][round % depth_] holds that rank's deposit for `round`.
  std::vector<std::vector<std::vector<float>>> slots_;
  // Resolved read set for the in-flight round: contribution age per rank.
  std::vector<std::int64_t> age_;

  std::uint64_t stale_events_ = 0;
  std::int64_t max_staleness_ = 0;
  std::vector<std::uint64_t> stale_by_rank_;
};

}  // namespace d500

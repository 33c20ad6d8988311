// Level 3 distributed optimizers (paper §IV-F).
//
// Every variant wraps a Level 2 ThreeStepOptimizer and distributes it over
// a SimMPI communicator, exactly as the paper's MPI-based reference
// optimizers wrap update rules (Listing 9 is ConsistentDecentralized).
// Variants (paper Fig. 5 + §V-E):
//   ConsistentDecentralized  — DSGD: ring gradient allreduce, synchronous.
//                              Options select per-tensor vs. fused-buffer
//                              (HorovodLike) and a staging-copy mode that
//                              mimics the Python reference path's NumPy
//                              conversions (REF-dsgd) vs. the direct-
//                              pointer custom C++ operator (CDSGD).
//   ConsistentCentralized    — PSSGD: gradients reduced to a parameter
//                              server, parameters broadcast back.
//   ShardedParameterServer   — TF-PS-like: parameters sharded over ranks.
//   run_parameter_server +   — ASGD and SSP: a server rank and pull/push
//   BoundedStalenessWorker     workers; the staleness bound picks the
//                              variant (k = SSP, kUnboundedStaleness = ASGD).
//   ModelAveraging           — MAVG: local steps + parameter allreduce.
//   NeighborDecentralized    — DPSGD: parameter averaging with ring
//                              neighbors only.
//
// Byte accounting is two-level: app_bytes() counts MPI-call buffer sizes
// at the caller (what mpiP reports, the paper's Fig. 12 caption numbers);
// SimMpi's counters hold the wire-level traffic of the actual collective
// algorithms.
#pragma once

#include <deque>
#include <limits>
#include <memory>

#include "dist/simmpi.hpp"
#include "train/optimizer.hpp"

namespace d500 {

class DistributedOptimizer : public Optimizer {
 public:
  DistributedOptimizer(std::unique_ptr<ThreeStepOptimizer> base,
                       Communicator& comm);

  /// mpiP-style per-node communication volume: buffer bytes per MPI call.
  std::uint64_t app_bytes() const { return app_bytes_; }
  /// Number of communication calls issued by this rank.
  std::uint64_t comm_calls() const { return comm_calls_; }

 protected:
  /// Runs the three-step structure around a caller-supplied gradient hook.
  TensorMap step_with_gradients(
      const TensorMap& feeds,
      const std::function<void()>& process_gradients);

  void count(std::uint64_t bytes) {
    app_bytes_ += bytes;
    ++comm_calls_;
  }

  std::unique_ptr<ThreeStepOptimizer> base_;
  Communicator& comm_;
  std::uint64_t app_bytes_ = 0;
  std::uint64_t comm_calls_ = 0;
};

struct DsgdOptions {
  bool fuse_buffers = false;    // Horovod-style tensor fusion
  bool staging_copies = false;  // Python-reference NumPy-conversion path
};

/// Paper Listing 9.
class ConsistentDecentralized : public DistributedOptimizer {
 public:
  ConsistentDecentralized(std::unique_ptr<ThreeStepOptimizer> base,
                          Communicator& comm, DsgdOptions options = {});
  std::string name() const override;
  TensorMap train(const TensorMap& feeds) override;

 private:
  DsgdOptions options_;
  std::vector<float> fusion_buffer_;
  std::vector<float> staging_;
};

/// Horovod-like = DSGD with fused buffers (convenience factory).
std::unique_ptr<ConsistentDecentralized> make_horovod_like(
    std::unique_ptr<ThreeStepOptimizer> base, Communicator& comm);

/// One size-capped group of parameter gradients communicated as a unit.
/// Parameters appear in canonical backward_ready_param_order, so a bucket
/// fills up exactly as backprop retires its members.
struct GradientBucket {
  std::vector<std::string> params;
  std::vector<std::string> grads;    // gradient value name of each param
  std::vector<std::size_t> offsets;  // element offset of each param
  std::size_t elements = 0;
};

/// Greedy fill in backward_ready_param_order: a new bucket opens when
/// adding the next gradient would exceed `cap_bytes` (a bucket always
/// holds at least one tensor, so a cap below the largest tensor
/// degenerates to one bucket per tensor — never a split tensor).
std::vector<GradientBucket> build_gradient_buckets(const Network& net,
                                                   std::size_t cap_bytes);

struct BucketOptions {
  std::size_t cap_bytes = 0;  // 0 → D500_BUCKET_KB env (default 1 MiB)
  int overlap = -1;           // -1 → D500_OVERLAP env; 0/1 force off/on
  int tag_base = 900;         // per-bucket iallreduce tag namespace
};

/// DSGD with bucketed gradient allreduce and optional communication/
/// compute overlap. Gradients are grouped into size-capped buckets in the
/// order backprop finishes them; with overlap on (and a PlanExecutor
/// underneath) each bucket's nonblocking allreduce launches from the
/// executor's grad-ready hook the moment the bucket's last gradient is
/// published — while the remaining backward ops still run — and is drained
/// after backprop. With overlap off the same buckets go through blocking
/// ring allreduces after backprop. The two modes are bit-identical: the
/// nonblocking completion reduces with the ring algorithm's exact
/// summation order, the bucket layouts match, and the scale/update code is
/// shared. Executors without the grad-ready hook fall back to the blocking
/// path (still bucketed).
class BucketedDecentralized : public DistributedOptimizer {
 public:
  BucketedDecentralized(std::unique_ptr<ThreeStepOptimizer> base,
                        Communicator& comm, BucketOptions options = {});
  std::string name() const override;
  TensorMap train(const TensorMap& feeds) override;

  /// Bucket partition in launch order (built on first train()).
  const std::vector<GradientBucket>& buckets() const { return buckets_; }
  bool overlap_enabled() const { return overlap_; }
  /// Buckets launched via the grad-ready hook across all steps so far.
  std::uint64_t hook_launches() const { return hook_launches_; }

 private:
  void ensure_buckets();

  BucketOptions options_;
  bool overlap_ = false;
  std::vector<GradientBucket> buckets_;
  std::vector<std::vector<float>> bucket_bufs_;
  std::vector<int> bucket_pending_;
  std::vector<AllreduceRequest> bucket_reqs_;
  std::map<std::string, std::pair<std::size_t, std::size_t>>
      param_site_;  // param -> (bucket index, element offset)
  std::uint64_t hook_launches_ = 0;
  std::uint64_t overlap_bytes_ = 0;
};

/// PSSGD: rank 0 is the parameter server (also a worker, as in the paper's
/// reference implementation).
class ConsistentCentralized : public DistributedOptimizer {
 public:
  ConsistentCentralized(std::unique_ptr<ThreeStepOptimizer> base,
                        Communicator& comm);
  std::string name() const override { return "PSSGD"; }
  TensorMap train(const TensorMap& feeds) override;
};

/// TF-PS-like: parameter tensors sharded round-robin across all ranks;
/// each shard owner reduces, updates, and broadcasts its shard.
class ShardedParameterServer : public DistributedOptimizer {
 public:
  ShardedParameterServer(std::unique_ptr<ThreeStepOptimizer> base,
                         Communicator& comm);
  std::string name() const override { return "TF-PS"; }
  TensorMap train(const TensorMap& feeds) override;
};

/// Eager DSGD (partial allreduce): each step's packed gradient travels in
/// an ordinary ring allgather, and a contribution the world's FaultInjector
/// schedules late is substituted with that rank's most recent on-time one,
/// at most `bound` rounds old (the injector clamps the lateness streak at
/// the bound; bound 0 is fully synchronous).
///
/// Determinism contract: lateness is schedule-driven, never timing-driven.
/// Every rank keeps a bound+1-deep history of the gathered deposits,
/// resolves the read set from the injector's pure (seed, rank, round)
/// schedule, and sums the substituted contributions in rank index order.
/// All ranks therefore consume the identical sum, parameters stay
/// replicated, and the run is bit-reproducible for a given (fault seed,
/// bound) at every thread count.
class EagerDecentralized : public DistributedOptimizer {
 public:
  /// Throws Error when `bound` is negative.
  EagerDecentralized(std::unique_ptr<ThreeStepOptimizer> base,
                     Communicator& comm, std::int64_t bound);
  std::string name() const override { return "Eager-DSGD"; }
  TensorMap train(const TensorMap& feeds) override;

  /// Completed eager rounds (one per train() call).
  std::int64_t rounds() const { return rounds_; }
  /// (rank, round) contributions read stale. Every rank resolves the same
  /// read set, so this is the world total on every rank.
  std::uint64_t stale_events() const { return stale_events_; }
  /// Largest contribution age, in rounds, consumed so far.
  std::int64_t max_staleness_seen() const { return max_staleness_; }

 private:
  const std::int64_t bound_;
  std::int64_t rounds_ = 0;
  std::uint64_t stale_events_ = 0;
  std::uint64_t own_stale_events_ = 0;  // this rank's contributions only
  std::int64_t max_staleness_ = 0;
  // The last bound+1 rounds of gathered deposits, newest at the back; rank
  // p's contribution sits at offset p * len.
  std::deque<std::vector<float>> history_;
  std::vector<float> fusion_buffer_;
};

/// Wire protocol of the parameter server: one control tag carries
/// [opcode, step, payload...] worker->server; parameter replies come back
/// on the data tag. The float step field is exact below kPsMaxStep = 2^24.
inline constexpr int kPsCtrlTag = 700;
inline constexpr int kPsDataTag = 701;
inline constexpr float kPsOpPull = 0.0f;
inline constexpr float kPsOpPush = 1.0f;
inline constexpr float kPsOpDone = 2.0f;
inline constexpr std::int64_t kPsMaxStep = std::int64_t{1} << 24;
/// The staleness bound at which the server never defers a pull: ASGD.
inline constexpr std::int64_t kUnboundedStaleness =
    std::numeric_limits<std::int64_t>::max();

/// Counters of one parameter-server service run.
struct PsStats {
  /// Gradient pushes applied per rank (index 0 — the server — stays 0).
  std::vector<std::int64_t> applied;
  /// Largest (worker step - slowest worker's applied pushes) served.
  std::int64_t max_staleness_served = 0;
};

/// Runs the dedicated parameter-server service loop on the calling rank
/// (must be rank 0; the server is not a worker). Serves pulls and applies
/// pushes from ranks 1..n-1, through `update`'s update rule, until every
/// worker sends DONE; a pull for worker step t is deferred until t minus
/// the slowest worker's applied pushes is within `bound`. Bound 0 buffers
/// each step's pushes and applies them in rank order once all arrive —
/// bit-deterministic; bound k >= 1 (SSP) and kUnboundedStaleness (ASGD)
/// apply in arrival order, which is deliberately not reproducible (the
/// determinism matrix pins that down). A malformed or out-of-sequence
/// control message throws Error; a dead peer surfaces as RankFailure.
/// Final parameters live in `update.network()` when the loop returns.
PsStats run_parameter_server(Communicator& comm, ThreeStepOptimizer& update,
                             std::int64_t bound);

/// Worker half: pull parameters for the step, compute gradients locally,
/// push them back. Call finish() after the last step so the server's
/// service loop can terminate.
class BoundedStalenessWorker : public DistributedOptimizer {
 public:
  BoundedStalenessWorker(std::unique_ptr<ThreeStepOptimizer> base,
                         Communicator& comm);
  std::string name() const override { return "PS-bounded"; }
  TensorMap train(const TensorMap& feeds) override;
  void finish();

 private:
  std::int64_t step_ = 0;
};

/// MAVG: local optimizer step, then parameter averaging via allreduce.
class ModelAveraging : public DistributedOptimizer {
 public:
  ModelAveraging(std::unique_ptr<ThreeStepOptimizer> base, Communicator& comm);
  std::string name() const override { return "MAVG"; }
  TensorMap train(const TensorMap& feeds) override;
};

/// DPSGD: local step, then average parameters with ring neighbors
/// (rank±1). Constant communication volume w.r.t. world size.
class NeighborDecentralized : public DistributedOptimizer {
 public:
  NeighborDecentralized(std::unique_ptr<ThreeStepOptimizer> base,
                        Communicator& comm);
  std::string name() const override { return "DPSGD"; }
  TensorMap train(const TensorMap& feeds) override;
};

/// Flattens all parameter gradients into one contiguous vector and back
/// (used by fused-buffer variants and SparCML).
std::vector<float> pack_gradients(Network& net);
void unpack_gradients(Network& net, std::span<const float> buffer);
std::vector<float> pack_parameters(Network& net);
void unpack_parameters(Network& net, std::span<const float> buffer);

}  // namespace d500

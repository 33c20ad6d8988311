#include "dist/dist_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/env.hpp"
#include "core/metrics_registry.hpp"
#include "core/trace.hpp"
#include "frameworks/plan_executor.hpp"

namespace d500 {

DistributedOptimizer::DistributedOptimizer(
    std::unique_ptr<ThreeStepOptimizer> base, Communicator& comm)
    : Optimizer(base->executor()), base_(std::move(base)), comm_(comm) {}

TensorMap DistributedOptimizer::step_with_gradients(
    const TensorMap& feeds, const std::function<void()>& process_gradients) {
  base_->new_input();
  for (const auto& pname : network().parameters()) base_->prepare_param(pname);
  TensorMap out = executor().inference_and_backprop(feeds, loss_value());
  process_gradients();
  return out;
}

// ---- pack/unpack -----------------------------------------------------------

std::vector<float> pack_gradients(Network& net) {
  std::vector<float> buf;
  for (const auto& [pname, gname] : net.gradients()) {
    const Tensor& g = net.fetch_tensor(gname);
    buf.insert(buf.end(), g.data(), g.data() + g.elements());
  }
  return buf;
}

void unpack_gradients(Network& net, std::span<const float> buffer) {
  std::size_t off = 0;
  for (const auto& [pname, gname] : net.gradients()) {
    Tensor& g = net.fetch_tensor(gname);
    const auto n = static_cast<std::size_t>(g.elements());
    D500_CHECK_MSG(off + n <= buffer.size(), "unpack_gradients: overrun");
    std::memcpy(g.data(), buffer.data() + off, n * sizeof(float));
    off += n;
  }
  D500_CHECK_MSG(off == buffer.size(), "unpack_gradients: size mismatch");
}

std::vector<float> pack_parameters(Network& net) {
  std::vector<float> buf;
  for (const auto& pname : net.parameters()) {
    const Tensor& p = net.fetch_tensor(pname);
    buf.insert(buf.end(), p.data(), p.data() + p.elements());
  }
  return buf;
}

void unpack_parameters(Network& net, std::span<const float> buffer) {
  std::size_t off = 0;
  for (const auto& pname : net.parameters()) {
    Tensor& p = net.fetch_tensor(pname);
    const auto n = static_cast<std::size_t>(p.elements());
    D500_CHECK_MSG(off + n <= buffer.size(), "unpack_parameters: overrun");
    std::memcpy(p.data(), buffer.data() + off, n * sizeof(float));
    off += n;
  }
  D500_CHECK_MSG(off == buffer.size(), "unpack_parameters: size mismatch");
}

// ---- ConsistentDecentralized (DSGD / CDSGD / Horovod-like) -----------------

ConsistentDecentralized::ConsistentDecentralized(
    std::unique_ptr<ThreeStepOptimizer> base, Communicator& comm,
    DsgdOptions options)
    : DistributedOptimizer(std::move(base), comm), options_(options) {}

std::string ConsistentDecentralized::name() const {
  if (options_.fuse_buffers) return "Horovod-like";
  return options_.staging_copies ? "REF-dsgd" : "CDSGD";
}

TensorMap ConsistentDecentralized::train(const TensorMap& feeds) {
  return step_with_gradients(feeds, [&] {
    const float inv_n = 1.0f / static_cast<float>(comm_.size());
    auto allreduce = [&](std::span<float> data) {
      comm_.allreduce_sum_ring(data);
      count(data.size() * sizeof(float));
    };

    if (options_.fuse_buffers) {
      // Horovod-style: one fused allreduce over all gradients.
      fusion_buffer_ = pack_gradients(network());
      allreduce(fusion_buffer_);
      for (auto& v : fusion_buffer_) v *= inv_n;
      unpack_gradients(network(), fusion_buffer_);
    } else {
      for (const auto& [pname, gname] : network().gradients()) {
        Tensor& g = network().fetch_tensor(gname);
        if (options_.staging_copies) {
          // Python-reference path: convert to a staging array, communicate,
          // convert back (the NumPy round trip of the paper's REF-dsgd).
          staging_.assign(g.data(), g.data() + g.elements());
          allreduce(staging_);
          std::memcpy(g.data(), staging_.data(),
                      staging_.size() * sizeof(float));
        } else {
          // Custom C++ operator path: direct pointers, no conversion.
          allreduce(g.span());
        }
        scale(g, inv_n);
      }
    }
    // Apply the base update rule on the averaged gradients.
    base_->update_parameters();
  });
}

std::unique_ptr<ConsistentDecentralized> make_horovod_like(
    std::unique_ptr<ThreeStepOptimizer> base, Communicator& comm) {
  DsgdOptions opt;
  opt.fuse_buffers = true;
  return std::make_unique<ConsistentDecentralized>(std::move(base), comm, opt);
}

// ---- BucketedDecentralized (bucketed DSGD, optional overlap) ---------------

std::vector<GradientBucket> build_gradient_buckets(const Network& net,
                                                   std::size_t cap_bytes) {
  std::vector<GradientBucket> buckets;
  for (const auto& pname : backward_ready_param_order(net)) {
    const auto elems =
        static_cast<std::size_t>(net.fetch_tensor(pname).elements());
    const std::size_t bytes = elems * sizeof(float);
    if (buckets.empty() ||
        buckets.back().elements * sizeof(float) + bytes > cap_bytes)
      buckets.emplace_back();
    GradientBucket& b = buckets.back();
    b.params.push_back(pname);
    b.grads.push_back(Network::gradient_name(pname));
    b.offsets.push_back(b.elements);
    b.elements += elems;
  }
  return buckets;
}

BucketedDecentralized::BucketedDecentralized(
    std::unique_ptr<ThreeStepOptimizer> base, Communicator& comm,
    BucketOptions options)
    : DistributedOptimizer(std::move(base), comm), options_(options) {
  if (options_.cap_bytes == 0) options_.cap_bytes = bucket_cap_bytes();
  overlap_ = options_.overlap < 0 ? overlap_comm_setting()
                                  : options_.overlap != 0;
}

std::string BucketedDecentralized::name() const {
  return overlap_ ? "Bucketed-DSGD/overlap" : "Bucketed-DSGD";
}

void BucketedDecentralized::ensure_buckets() {
  if (!buckets_.empty()) return;
  buckets_ = build_gradient_buckets(network(), options_.cap_bytes);
  bucket_bufs_.resize(buckets_.size());
  bucket_pending_.resize(buckets_.size());
  bucket_reqs_.resize(buckets_.size());
  param_site_.clear();
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    bucket_bufs_[i].assign(buckets_[i].elements, 0.0f);
    for (std::size_t k = 0; k < buckets_[i].params.size(); ++k)
      param_site_[buckets_[i].params[k]] = {i, buckets_[i].offsets[k]};
  }
}

TensorMap BucketedDecentralized::train(const TensorMap& feeds) {
  ensure_buckets();
  auto* plan = dynamic_cast<PlanExecutor*>(&executor());
  const bool overlap = overlap_ && plan != nullptr;

  base_->new_input();
  for (const auto& pname : network().parameters()) base_->prepare_param(pname);

  // Per-step state lives in members sized once by ensure_buckets; wait()
  // empties each request it drains.
  if (overlap) {
    for (std::size_t i = 0; i < buckets_.size(); ++i)
      bucket_pending_[i] = static_cast<int>(buckets_[i].params.size());
    plan->set_grad_ready_hook([this](const std::string& pname,
                                     const Tensor& g) {
      auto it = param_site_.find(pname);
      if (it == param_site_.end()) return;
      const auto [bi, off] = it->second;
      {
        D500_TRACE_SCOPE("dist", "bucket_pack");
        std::memcpy(bucket_bufs_[bi].data() + off, g.data(), g.bytes());
      }
      if (--bucket_pending_[bi] == 0) {
        // Bucket complete: launch its allreduce while backprop continues.
        bucket_reqs_[bi] = comm_.iallreduce_sum(
            bucket_bufs_[bi], options_.tag_base + static_cast<int>(bi));
        count(bucket_bufs_[bi].size() * sizeof(float));
        ++hook_launches_;
        overlap_bytes_ += bucket_bufs_[bi].size() * sizeof(float);
        trace_counter("dist", "overlap_bytes",
                      static_cast<double>(overlap_bytes_));
      }
    });
  }
  TensorMap out = executor().inference_and_backprop(feeds, loss_value());
  if (overlap) {
    plan->set_grad_ready_hook(nullptr);
    for (std::size_t i = 0; i < buckets_.size(); ++i)
      D500_CHECK_MSG(bucket_pending_[i] == 0,
                     name() << ": bucket " << i << " never completed ("
                            << bucket_pending_[i] << " gradients missing)");
  }

  // Drain (overlap) or run (blocking) the bucket allreduces in launch
  // order, then scale and scatter back — one shared code path, so the two
  // modes do the exact same arithmetic.
  const float inv_n = 1.0f / static_cast<float>(comm_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    std::vector<float>& buf = bucket_bufs_[i];
    if (overlap) {
      comm_.wait(bucket_reqs_[i]);
    } else {
      const GradientBucket& b = buckets_[i];
      for (std::size_t k = 0; k < b.params.size(); ++k) {
        const Tensor& g = network().fetch_tensor(b.grads[k]);
        std::memcpy(buf.data() + b.offsets[k], g.data(), g.bytes());
      }
      comm_.allreduce_sum_ring(buf);
      count(buf.size() * sizeof(float));
    }
    for (auto& v : buf) v *= inv_n;
    const GradientBucket& b = buckets_[i];
    for (std::size_t k = 0; k < b.params.size(); ++k) {
      Tensor& g = network().fetch_tensor(b.grads[k]);
      std::memcpy(g.data(), buf.data() + b.offsets[k], g.bytes());
    }
  }
  // Apply the base update rule on the averaged gradients (declaration
  // order, like every other variant).
  base_->update_parameters();
  return out;
}

// ---- ConsistentCentralized (PSSGD) -----------------------------------------

ConsistentCentralized::ConsistentCentralized(
    std::unique_ptr<ThreeStepOptimizer> base, Communicator& comm)
    : DistributedOptimizer(std::move(base), comm) {}

TensorMap ConsistentCentralized::train(const TensorMap& feeds) {
  return step_with_gradients(feeds, [&] {
    const float inv_n = 1.0f / static_cast<float>(comm_.size());
    for (const auto& [pname, gname] : network().gradients()) {
      Tensor& g = network().fetch_tensor(gname);
      // Workers reduce gradients to the server (rank 0)...
      comm_.reduce_sum(g.span(), /*root=*/0);
      count(g.bytes());
      Tensor& p = network().fetch_tensor(pname);
      if (comm_.rank() == 0) {
        scale(g, inv_n);
        base_->update_rule(g, p, pname);
      }
      // ...and receive the new parameters back.
      comm_.bcast(p.span(), /*root=*/0);
      count(p.bytes());
    }
  });
}

// ---- ShardedParameterServer (TF-PS-like) ----------------------------------

ShardedParameterServer::ShardedParameterServer(
    std::unique_ptr<ThreeStepOptimizer> base, Communicator& comm)
    : DistributedOptimizer(std::move(base), comm) {}

TensorMap ShardedParameterServer::train(const TensorMap& feeds) {
  return step_with_gradients(feeds, [&] {
    const float inv_n = 1.0f / static_cast<float>(comm_.size());
    int shard = 0;
    for (const auto& [pname, gname] : network().gradients()) {
      const int owner = shard % comm_.size();
      ++shard;
      Tensor& g = network().fetch_tensor(gname);
      comm_.reduce_sum(g.span(), owner);
      count(g.bytes());
      Tensor& p = network().fetch_tensor(pname);
      if (comm_.rank() == owner) {
        scale(g, inv_n);
        base_->update_rule(g, p, pname);
      }
      comm_.bcast(p.span(), owner);
      count(p.bytes());
    }
  });
}

// ---- EagerDecentralized (eager DSGD: allgather + stale substitution) -----

namespace {
Counter& stale_counter() {
  static Counter& c = MetricsRegistry::instance().counter("eager.stale_uses");
  return c;
}
}  // namespace

EagerDecentralized::EagerDecentralized(std::unique_ptr<ThreeStepOptimizer> base,
                                       Communicator& comm, std::int64_t bound)
    : DistributedOptimizer(std::move(base), comm), bound_(bound) {
  D500_CHECK_MSG(bound >= 0, "EagerDecentralized: bound must be >= 0");
}

TensorMap EagerDecentralized::train(const TensorMap& feeds) {
  return step_with_gradients(feeds, [&] {
    const int n = comm_.size();
    const float inv_n = 1.0f / static_cast<float>(n);
    const std::int64_t k = rounds_++;
    fusion_buffer_ = pack_gradients(network());
    if (n > 1) {
      D500_TRACE_SCOPE("dist", "eager_allreduce");
      const std::size_t len = fusion_buffer_.size();
      const std::size_t gathered_len = len * static_cast<std::size_t>(n);
      // Once bound+1 rounds are held, recycle the oldest: round k-bound-1
      // is past every read set.
      std::vector<float> gathered;
      if (history_.size() > static_cast<std::uint64_t>(bound_)) {
        gathered = std::move(history_.front());
        history_.pop_front();
      }
      gathered.resize(gathered_len);
      comm_.allgather(fusion_buffer_, gathered);
      history_.push_back(std::move(gathered));
      // Sum in rank index order; a rank with age s contributes its round
      // k-s deposit (s <= min(bound, k), so the history still holds it).
      FaultInjector& inj = comm_.fault_injector();
      for (int p = 0; p < n; ++p) {
        const std::int64_t s = inj.staleness(p, k, bound_);
        if (s > 0) {
          ++stale_events_;
          // Each rank counts only its own stale contributions, so the
          // process-wide counters see every event once, not n times.
          if (p == comm_.rank()) {
            ++own_stale_events_;
            stale_counter().add(1);
            trace_counter("dist", "stale_uses",
                          static_cast<double>(own_stale_events_));
          }
        }
        max_staleness_ = std::max(max_staleness_, s);
        const std::vector<float>& deposits =
            history_[history_.size() - 1 - static_cast<std::size_t>(s)];
        D500_CHECK_MSG(deposits.size() == gathered_len,
                       "EagerDecentralized: buffer size changed across rounds "
                       "(round " << k - s << " gathered " << deposits.size()
                       << " elements, want " << gathered_len << ")");
        const float* contrib =
            deposits.data() + static_cast<std::size_t>(p) * len;
        if (p == 0)
          std::copy(contrib, contrib + len, fusion_buffer_.begin());
        else
          for (std::size_t i = 0; i < len; ++i) fusion_buffer_[i] += contrib[i];
      }
    }
    count(fusion_buffer_.size() * sizeof(float));
    for (auto& v : fusion_buffer_) v *= inv_n;
    unpack_gradients(network(), fusion_buffer_);
    base_->update_parameters();
  });
}

// ---- Parameter server (sync / SSP / ASGD by staleness bound) --------------

PsStats run_parameter_server(Communicator& comm, ThreeStepOptimizer& update,
                             std::int64_t bound) {
  D500_CHECK_MSG(comm.rank() == 0,
                 "run_parameter_server: the service loop runs on rank 0");
  D500_CHECK_MSG(bound >= 0, "run_parameter_server: bound must be >= 0");
  const int n = comm.size();
  const int workers = n - 1;
  PsStats stats;
  stats.applied.assign(static_cast<std::size_t>(n), 0);
  if (workers == 0) return stats;
  Network& net = update.network();
  // The server never runs backprop, so the gradient tensors worker pushes
  // land in do not exist yet — materialize them param-shaped.
  for (const auto& [pname, gname] : net.gradients())
    net.feed_tensor(gname, Tensor(net.fetch_tensor(pname).shape()));

  auto apply_push = [&](int rank, std::span<const float> grads) {
    D500_TRACE_SCOPE("dist", "ps_apply");
    unpack_gradients(net, grads);
    update.update_parameters();
    ++stats.applied[static_cast<std::size_t>(rank)];
  };
  auto slowest = [&] {
    std::int64_t m = stats.applied[1];
    for (int r = 2; r < n; ++r)
      m = std::min(m, stats.applied[static_cast<std::size_t>(r)]);
    return m;
  };

  // Pulls waiting on the staleness window (worker step, or -1).
  std::vector<std::int64_t> pending_pull(static_cast<std::size_t>(n), -1);
  auto service_pulls = [&] {
    for (int r = 1; r < n; ++r) {
      const std::int64_t want = pending_pull[static_cast<std::size_t>(r)];
      if (want < 0 || want - slowest() > bound) continue;
      stats.max_staleness_served =
          std::max(stats.max_staleness_served, std::max<std::int64_t>(
                                                   0, want - slowest()));
      comm.send(r, pack_parameters(net), kPsDataTag);
      pending_pull[static_cast<std::size_t>(r)] = -1;
    }
  };

  // Every control message is validated before it is acted on: a known
  // opcode, a step field that is an exact integer in [0, kPsMaxStep) equal
  // to the pushes the worker has sent so far, and the opcode's size.
  const std::size_t param_elems = pack_parameters(net).size();
  std::vector<std::int64_t> pushed(static_cast<std::size_t>(n), 0);
  std::vector<bool> finished(static_cast<std::size_t>(n), false);

  // Bound 0 buffers each step's pushes and applies them in rank order once
  // every worker has pushed — the deterministic schedule the matrix test
  // pins down. Bound >= 1 applies in arrival order.
  std::map<std::int64_t, std::map<int, std::vector<float>>> step_pushes;
  int done = 0;
  while (done < workers) {
    auto [src, msg] = comm.recv_any(kPsCtrlTag);
    const auto w = static_cast<std::size_t>(src);
    D500_CHECK_MSG(msg.size() >= 2, "parameter server: rank "
                                        << src << " sent " << msg.size()
                                        << " floats, no [opcode, step]");
    const float op = msg[0];
    D500_CHECK_MSG(op == kPsOpPull || op == kPsOpPush || op == kPsOpDone,
                   "parameter server: rank " << src << " sent opcode " << op);
    const float f = msg[1];
    D500_CHECK_MSG(std::isfinite(f) && f >= 0.0f && std::trunc(f) == f &&
                       f < static_cast<float>(kPsMaxStep),
                   "parameter server: rank " << src << " sent step " << f);
    const auto step = static_cast<std::int64_t>(f);
    const std::size_t want = op == kPsOpPush ? 2 + param_elems : 2;
    D500_CHECK_MSG(!finished[w] && step == pushed[w] && msg.size() == want,
                   "parameter server: rank "
                       << src << " sent " << msg.size() << " floats for step "
                       << step << (finished[w] ? " after DONE" : "")
                       << " (expected " << want << " for step " << pushed[w]
                       << ")");
    if (op == kPsOpDone) {
      finished[w] = true;
      ++done;
    } else if (op == kPsOpPull) {
      pending_pull[w] = step;
      service_pulls();
    } else {
      ++pushed[w];
      std::span<const float> grads(msg.data() + 2, msg.size() - 2);
      if (bound == 0) {
        step_pushes[step][src].assign(grads.begin(), grads.end());
        auto it = step_pushes.find(step);
        if (static_cast<int>(it->second.size()) == workers) {
          for (auto& [r, buf] : it->second) apply_push(r, buf);
          step_pushes.erase(it);
        }
      } else {
        apply_push(src, grads);
      }
      service_pulls();
    }
  }
  D500_CHECK_MSG(step_pushes.empty(),
                 "parameter server: workers exited with buffered pushes");
  return stats;
}

BoundedStalenessWorker::BoundedStalenessWorker(
    std::unique_ptr<ThreeStepOptimizer> base, Communicator& comm)
    : DistributedOptimizer(std::move(base), comm) {
  D500_CHECK_MSG(comm.rank() != 0,
                 "BoundedStalenessWorker: rank 0 is the dedicated server");
}

TensorMap BoundedStalenessWorker::train(const TensorMap& feeds) {
  D500_CHECK_MSG(step_ < kPsMaxStep, name() << ": step " << step_
                                            << " does not fit the protocol's "
                                               "float step field");
  // Pull the parameters for this step (the server defers the reply until
  // the staleness window admits us).
  std::vector<float> ctrl = {kPsOpPull, static_cast<float>(step_)};
  comm_.send(0, ctrl, kPsCtrlTag);
  count(ctrl.size() * sizeof(float));
  std::size_t elems = 0;
  for (const auto& pname : network().parameters())
    elems += static_cast<std::size_t>(network().fetch_tensor(pname).elements());
  std::vector<float> params(elems);
  comm_.recv(0, params, kPsDataTag);
  count(params.size() * sizeof(float));
  unpack_parameters(network(), params);

  base_->new_input();
  for (const auto& pname : network().parameters()) base_->prepare_param(pname);
  TensorMap out = executor().inference_and_backprop(feeds, loss_value());

  // Push this step's gradients, step-prefixed so a bound-0 server can
  // batch them per step.
  std::vector<float> push = {kPsOpPush, static_cast<float>(step_)};
  const std::vector<float> grads = pack_gradients(network());
  push.insert(push.end(), grads.begin(), grads.end());
  comm_.send(0, push, kPsCtrlTag);
  count(push.size() * sizeof(float));
  ++step_;
  return out;
}

void BoundedStalenessWorker::finish() {
  std::vector<float> ctrl = {kPsOpDone, static_cast<float>(step_)};
  comm_.send(0, ctrl, kPsCtrlTag);
  count(ctrl.size() * sizeof(float));
}

// ---- ModelAveraging ----------------------------------------------------------

ModelAveraging::ModelAveraging(std::unique_ptr<ThreeStepOptimizer> base,
                               Communicator& comm)
    : DistributedOptimizer(std::move(base), comm) {}

TensorMap ModelAveraging::train(const TensorMap& feeds) {
  return step_with_gradients(feeds, [&] {
    // Local update first...
    base_->update_parameters();
    // ...then average the models.
    const float inv_n = 1.0f / static_cast<float>(comm_.size());
    for (const auto& pname : network().parameters()) {
      Tensor& p = network().fetch_tensor(pname);
      comm_.allreduce_sum_ring(p.span());
      count(p.bytes());
      scale(p, inv_n);
    }
  });
}

// ---- NeighborDecentralized (DPSGD) ------------------------------------------

NeighborDecentralized::NeighborDecentralized(
    std::unique_ptr<ThreeStepOptimizer> base, Communicator& comm)
    : DistributedOptimizer(std::move(base), comm) {}

TensorMap NeighborDecentralized::train(const TensorMap& feeds) {
  return step_with_gradients(feeds, [&] {
    // Local update.
    base_->update_parameters();
    // Mix with the two ring neighbors (constant volume in world size).
    const int n = comm_.size();
    if (n == 1) return;
    const int left = (comm_.rank() - 1 + n) % n;
    const int right = (comm_.rank() + 1) % n;
    for (const auto& pname : network().parameters()) {
      Tensor& p = network().fetch_tensor(pname);
      if (n == 2) {
        // Single neighbor: exchange once, average over 2.
        comm_.send(right, p.span(), /*tag=*/600);
        count(p.bytes());
        Tensor other(p.shape());
        comm_.recv(left, other.span(), /*tag=*/600);
        axpy(1.0f, other, p);
        scale(p, 0.5f);
        continue;
      }
      comm_.send(left, p.span(), /*tag=*/601);
      comm_.send(right, p.span(), /*tag=*/602);
      count(p.bytes());
      count(p.bytes());
      Tensor from_left(p.shape()), from_right(p.shape());
      comm_.recv(left, from_left.span(), /*tag=*/602);    // left's send-right
      comm_.recv(right, from_right.span(), /*tag=*/601);  // right's send-left

      axpy(1.0f, from_left, p);
      axpy(1.0f, from_right, p);
      scale(p, 1.0f / 3.0f);
    }
  });
}

}  // namespace d500

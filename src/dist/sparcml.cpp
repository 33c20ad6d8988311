#include "dist/sparcml.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "core/trace.hpp"
#include "frameworks/plan_executor.hpp"

namespace d500 {

SparseVector sparsify_topk(std::span<const float> dense, std::int64_t k) {
  SparseVector out;
  out.dense_size = static_cast<std::int64_t>(dense.size());
  k = std::min<std::int64_t>(k, out.dense_size);
  if (k <= 0) return out;

  std::vector<std::uint32_t> idx(dense.size());
  std::iota(idx.begin(), idx.end(), 0u);
  std::nth_element(idx.begin(), idx.begin() + (k - 1), idx.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return std::abs(dense[a]) > std::abs(dense[b]);
                   });
  idx.resize(static_cast<std::size_t>(k));
  std::sort(idx.begin(), idx.end());
  out.indices = std::move(idx);
  out.values.reserve(out.indices.size());
  for (auto i : out.indices) out.values.push_back(dense[i]);
  return out;
}

SparseVector sparse_add(const SparseVector& a, const SparseVector& b) {
  D500_CHECK(a.dense_size == b.dense_size);
  SparseVector out;
  out.dense_size = a.dense_size;
  out.indices.reserve(a.indices.size() + b.indices.size());
  out.values.reserve(a.indices.size() + b.indices.size());
  std::size_t i = 0, j = 0;
  while (i < a.indices.size() || j < b.indices.size()) {
    if (j >= b.indices.size() ||
        (i < a.indices.size() && a.indices[i] < b.indices[j])) {
      out.indices.push_back(a.indices[i]);
      out.values.push_back(a.values[i]);
      ++i;
    } else if (i >= a.indices.size() || b.indices[j] < a.indices[i]) {
      out.indices.push_back(b.indices[j]);
      out.values.push_back(b.values[j]);
      ++j;
    } else {
      out.indices.push_back(a.indices[i]);
      out.values.push_back(a.values[i] + b.values[j]);
      ++i;
      ++j;
    }
  }
  return out;
}

void densify(const SparseVector& v, std::span<float> out) {
  D500_CHECK(static_cast<std::int64_t>(out.size()) == v.dense_size);
  std::fill(out.begin(), out.end(), 0.0f);
  for (std::size_t k = 0; k < v.indices.size(); ++k)
    out[v.indices[k]] = v.values[k];
}

namespace {

/// Sparse vectors travel through the float-only Communicator as
/// [nnz, bit-cast indices..., values...]; index bit patterns survive the
/// copy-based transport exactly.
std::vector<float> encode_sparse(const SparseVector& v) {
  std::vector<float> msg(1 + 2 * v.indices.size());
  const auto nnz = static_cast<std::uint32_t>(v.indices.size());
  std::memcpy(msg.data(), &nnz, sizeof(nnz));
  if (nnz > 0) {
    std::memcpy(msg.data() + 1, v.indices.data(),
                nnz * sizeof(std::uint32_t));
    std::memcpy(msg.data() + 1 + nnz, v.values.data(), nnz * sizeof(float));
  }
  return msg;
}

SparseVector decode_sparse(std::span<const float> msg,
                           std::int64_t dense_size) {
  SparseVector v;
  v.dense_size = dense_size;
  std::uint32_t nnz = 0;
  D500_CHECK(!msg.empty());
  std::memcpy(&nnz, msg.data(), sizeof(nnz));
  D500_CHECK(msg.size() >= 1 + 2 * static_cast<std::size_t>(nnz));
  v.indices.resize(nnz);
  v.values.resize(nnz);
  if (nnz > 0) {
    std::memcpy(v.indices.data(), msg.data() + 1, nnz * sizeof(std::uint32_t));
    std::memcpy(v.values.data(), msg.data() + 1 + nnz, nnz * sizeof(float));
  }
  return v;
}

bool is_power_of_two(int n) { return n > 0 && (n & (n - 1)) == 0; }

}  // namespace

SparseAllreduceStats sparse_allreduce(Communicator& comm,
                                      const SparseVector& contribution,
                                      std::span<float> dense_out,
                                      double dense_switch_threshold) {
  const int n = comm.size();
  D500_CHECK_MSG(is_power_of_two(n),
                 "sparse_allreduce requires power-of-two world, got " << n);
  SparseAllreduceStats stats;
  D500_TRACE_SCOPE("dist", "sparse_allreduce");
  SparseVector acc = contribution;
  bool dense_mode = false;

  for (int mask = 1; mask < n; mask <<= 1) {
    const int peer = comm.rank() ^ mask;
    if (!dense_mode && acc.density() > dense_switch_threshold) {
      // Switch: densify once; remaining rounds use dense exchanges.
      densify(acc, dense_out);
      dense_mode = true;
      stats.switched_to_dense = true;
    }
    if (dense_mode) {
      // Dense exchange round (pairwise recursive doubling).
      std::vector<float> incoming(dense_out.size());
      comm.send(peer, dense_out, /*tag=*/700 + mask);
      comm.recv(peer, incoming, /*tag=*/700 + mask);
      stats.bytes_sent += dense_out.size() * sizeof(float);
      for (std::size_t i = 0; i < dense_out.size(); ++i)
        dense_out[i] += incoming[i];
    } else {
      const std::vector<float> msg = encode_sparse(acc);
      comm.send(peer, msg, /*tag=*/700 + mask);
      stats.bytes_sent += acc.wire_bytes();
      // Peer message can be any size; exchange sizes first via a 1-float
      // header message.
      std::vector<float> size_msg(1);
      const float my_len = static_cast<float>(msg.size());
      comm.send(peer, std::span<const float>(&my_len, 1), /*tag=*/800 + mask);
      comm.recv(peer, size_msg, /*tag=*/800 + mask);
      std::vector<float> incoming(static_cast<std::size_t>(size_msg[0]));
      comm.recv(peer, incoming, /*tag=*/700 + mask);
      acc = sparse_add(acc, decode_sparse(incoming, acc.dense_size));
    }
  }
  if (!dense_mode) densify(acc, dense_out);
  stats.final_density = dense_mode ? 1.0 : acc.density();
  trace_counter("dist", "density", stats.final_density);
  return stats;
}

SparCMLOptimizer::SparCMLOptimizer(std::unique_ptr<ThreeStepOptimizer> base,
                                   Communicator& comm, double density,
                                   double dense_switch_threshold)
    : DistributedOptimizer(std::move(base), comm), density_(density),
      switch_threshold_(dense_switch_threshold) {}

TensorMap SparCMLOptimizer::train(const TensorMap& feeds) {
  // Lay out the packed gradient vector (declaration order, matching
  // pack_gradients) once.
  if (pack_offset_.empty()) {
    std::size_t off = 0;
    for (const auto& [pname, gname] : network().gradients()) {
      pack_offset_[pname] = off;
      off += static_cast<std::size_t>(network().fetch_tensor(pname).elements());
    }
    packed_.assign(off, 0.0f);
    residual_.assign(off, 0.0f);
  }

  // Overlap path: fuse the residual re-add into the per-gradient pack and
  // run it from the executor's grad-ready hook, element-for-element the
  // same arithmetic as the batch loop below.
  auto* plan = dynamic_cast<PlanExecutor*>(&executor());
  const bool overlap = plan != nullptr && plan->options().overlap_comm;
  if (overlap) {
    plan->set_grad_ready_hook([this](const std::string& pname,
                                     const Tensor& g) {
      auto it = pack_offset_.find(pname);
      if (it == pack_offset_.end()) return;
      D500_TRACE_SCOPE("dist", "sparse_pack");
      const float* src = g.data();
      float* dst = packed_.data() + it->second;
      const float* res = residual_.data() + it->second;
      for (std::int64_t i = 0; i < g.elements(); ++i) dst[i] = src[i] + res[i];
      ++hook_packs_;
    });
  }

  return step_with_gradients(feeds, [&] {
    if (overlap) {
      plan->set_grad_ready_hook(nullptr);
    } else {
      // Residual feedback: re-add the mass dropped by earlier
      // sparsifications before selecting this step's top-k.
      std::size_t off = 0;
      for (const auto& [pname, gname] : network().gradients()) {
        const Tensor& g = network().fetch_tensor(gname);
        for (std::int64_t i = 0; i < g.elements(); ++i)
          packed_[off + static_cast<std::size_t>(i)] =
              g.data()[i] + residual_[off + static_cast<std::size_t>(i)];
        off += static_cast<std::size_t>(g.elements());
      }
    }
    std::vector<float>& grads = packed_;

    const auto k = static_cast<std::int64_t>(
        density_ * static_cast<double>(grads.size()));
    const SparseVector sparse = sparsify_topk(grads, std::max<std::int64_t>(k, 1));

    // Residual = what top-k dropped.
    std::vector<float> kept(grads.size(), 0.0f);
    densify(sparse, kept);
    for (std::size_t i = 0; i < grads.size(); ++i)
      residual_[i] = grads[i] - kept[i];

    std::vector<float> summed(grads.size(), 0.0f);
    const auto stats =
        sparse_allreduce(comm_, sparse, summed, switch_threshold_);
    app_bytes_ += stats.bytes_sent;
    ++comm_calls_;
    last_density_ = stats.final_density;

    const float inv_n = 1.0f / static_cast<float>(comm_.size());
    for (auto& v : summed) v *= inv_n;
    unpack_gradients(network(), summed);
    base_->update_parameters();
  });
}

}  // namespace d500

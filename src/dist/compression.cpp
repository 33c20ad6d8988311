#include "dist/compression.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace d500 {

QuantizedVector quantize_int8(std::span<const float> values, Rng& rng) {
  QuantizedVector out;
  out.q.resize(values.size());
  float mx = 0.0f;
  for (float v : values) mx = std::max(mx, std::abs(v));
  if (mx == 0.0f) {
    out.scale = 0.0f;
    return out;
  }
  out.scale = mx / 127.0f;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const float x = values[i] / out.scale;  // in [-127, 127]
    const float lo = std::floor(x);
    // Stochastic rounding: unbiased quantization.
    const float frac = x - lo;
    const float r = rng.uniform() < frac ? lo + 1.0f : lo;
    out.q[i] = static_cast<std::int8_t>(
        std::clamp(r, -127.0f, 127.0f));
  }
  return out;
}

void dequantize_int8(const QuantizedVector& v, std::span<float> out) {
  D500_CHECK(out.size() == v.q.size());
  for (std::size_t i = 0; i < v.q.size(); ++i)
    out[i] = static_cast<float>(v.q[i]) * v.scale;
}

std::vector<float> pack_quantized(const QuantizedVector& v) {
  // Layout: [scale, packed int8 x4 per float...].
  std::vector<float> msg(1 + (v.q.size() + 3) / 4, 0.0f);
  msg[0] = v.scale;
  std::memcpy(msg.data() + 1, v.q.data(), v.q.size());
  return msg;
}

QuantizedVector unpack_quantized(std::span<const float> msg,
                                 std::size_t count) {
  D500_CHECK(msg.size() >= 1 + (count + 3) / 4);
  QuantizedVector v;
  v.scale = msg[0];
  v.q.resize(count);
  std::memcpy(v.q.data(), msg.data() + 1, count);
  return v;
}

CompressedCentralized::CompressedCentralized(
    std::unique_ptr<ThreeStepOptimizer> base, Communicator& comm,
    std::uint64_t seed)
    : DistributedOptimizer(std::move(base), comm),
      rng_(Rng(seed).fork(static_cast<std::uint64_t>(comm.rank()) + 77)) {}

TensorMap CompressedCentralized::train(const TensorMap& feeds) {
  return step_with_gradients(feeds, [&] {
    std::vector<float> grads = pack_gradients(network());
    const std::size_t n = grads.size();
    if (grad_residual_.size() != n) grad_residual_.assign(n, 0.0f);

    // Worker: error feedback + quantize + push (1/4 the gradient bytes).
    for (std::size_t i = 0; i < n; ++i) grads[i] += grad_residual_[i];
    const QuantizedVector qg = quantize_int8(grads, rng_);
    std::vector<float> sent(n);
    dequantize_int8(qg, sent);
    for (std::size_t i = 0; i < n; ++i)
      grad_residual_[i] = grads[i] - sent[i];

    const std::vector<float> msg = pack_quantized(qg);
    const std::uint64_t msg_bytes = msg.size() * sizeof(float);

    if (comm_.rank() == 0) {
      if (server_params_.empty()) server_params_ = pack_parameters(network());
      if (delta_residual_.size() != n) delta_residual_.assign(n, 0.0f);
      // Server: own contribution + receive everyone's quantized push.
      std::vector<float> sum = sent;
      std::vector<float> incoming(msg.size());
      std::vector<float> deq(n);
      for (int r = 1; r < comm_.size(); ++r) {
        comm_.recv(r, incoming, /*tag=*/900);
        dequantize_int8(unpack_quantized(incoming, n), deq);
        for (std::size_t i = 0; i < n; ++i) sum[i] += deq[i];
      }
      const float inv = 1.0f / static_cast<float>(comm_.size());
      for (auto& v : sum) v *= inv;

      // Apply the base update rule on the master copy via the network.
      unpack_gradients(network(), sum);
      unpack_parameters(network(), server_params_);
      base_->update_parameters();
      const std::vector<float> new_params = pack_parameters(network());

      // Broadcast the quantized parameter delta (with server-side error
      // feedback), then apply it locally so every rank ends bit-identical.
      std::vector<float> delta(n);
      for (std::size_t i = 0; i < n; ++i)
        delta[i] = new_params[i] - server_params_[i] + delta_residual_[i];
      const QuantizedVector qd = quantize_int8(delta, rng_);
      std::vector<float> applied(n);
      dequantize_int8(qd, applied);
      for (std::size_t i = 0; i < n; ++i)
        delta_residual_[i] = delta[i] - applied[i];
      std::vector<float> dmsg = pack_quantized(qd);
      for (int r = 1; r < comm_.size(); ++r)
        comm_.send(r, dmsg, /*tag=*/901);
      count(msg_bytes);  // server's own push accounting symmetry

      for (std::size_t i = 0; i < n; ++i)
        server_params_[i] += applied[i];
      unpack_parameters(network(), server_params_);
    } else {
      comm_.send(0, msg, /*tag=*/900);
      count(msg_bytes);
      std::vector<float> dmsg(msg.size());
      comm_.recv(0, dmsg, /*tag=*/901);
      count(dmsg.size() * sizeof(float));
      std::vector<float> applied(n);
      dequantize_int8(unpack_quantized(dmsg, n), applied);
      std::vector<float> params = pack_parameters(network());
      for (std::size_t i = 0; i < n; ++i) params[i] += applied[i];
      unpack_parameters(network(), params);
    }
  });
}

}  // namespace d500

// Elementwise optimizer update kernels: the one implementation of each
// dense update rule, shared by the reference optimizers (train/optimizers)
// and the framework-native fused ones (frameworks/native_optimizers).
//
// Every kernel updates the parameter and its state in place, in one pass,
// on simd::lanes over chunks of kUpdateGrain elements (a pure function of
// the element count, so results are bit-identical at any thread count).
// Each multiply that feeds an add is an explicit fma, so the rounding is
// fixed by the source rather than by the compiler's contraction setting
// (GCC contracts under its default -ffp-contract=fast): the scalar and
// SIMD dispatch paths, and every caller, round identically lane for lane.
// The pairings are the ones the original scalar reference loops compiled
// to, which keeps every pinned parameter checksum.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace d500::update {

/// Elements per parallel chunk of every update kernel.
inline constexpr std::int64_t kUpdateGrain = 16384;

/// p = fma(-lr, g, p).
void sgd(const Tensor& g, Tensor& p, float lr);

/// v = fma(-lr, g, v*mu); then p += v, or for Nesterov
/// p = fma(-lr, g, fma(mu, v, p)).
void momentum(const Tensor& g, Tensor& v, Tensor& p, float lr, float mu,
              bool nesterov);

/// acc = fma(g, g, acc); p -= lr*g / (sqrt(acc) + eps).
void adagrad(const Tensor& g, Tensor& acc, Tensor& p, float lr, float eps);

/// ms = fma(decay, ms, ((1-decay)*g)*g); p -= lr*g / (sqrt(ms) + eps).
void rmsprop(const Tensor& g, Tensor& ms, Tensor& p, float lr, float decay,
             float eps);

/// Kingma & Ba, Algorithm 1, at step t >= 1:
///   m = fma(b1, m, (1-b1)*g);  v = fma(b2, v, ((1-b2)*g)*g);
///   p -= lr*(m/bc1) / (sqrt(v/bc2) + eps),  bc_i = 1 - b_i^t in float.
void adam(const Tensor& g, Tensor& m, Tensor& v, Tensor& p, float lr,
          float b1, float b2, float eps, std::int64_t t);

}  // namespace d500::update

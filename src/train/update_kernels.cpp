#include "train/update_kernels.hpp"

#include <cmath>
#include <initializer_list>

#include "core/error.hpp"
#include "core/simd.hpp"
#include "core/threadpool.hpp"

namespace d500::update {

namespace {

void check_sizes(const char* what, const Tensor& g,
                 std::initializer_list<const Tensor*> state) {
  for (const Tensor* t : state)
    D500_CHECK_MSG(g.elements() == t->elements(),
                   "update::" << what << ": gradient has " << g.elements()
                              << " elements, state has " << t->elements());
}

/// Runs body(tag, i) over [0, n): kUpdateGrain chunks on the shared pool,
/// full vector lanes then a Vec1 tail inside each chunk.
template <class F>
void map(std::int64_t n, F&& body) {
  simd::dispatch([&](auto tag) {
    using V = decltype(tag);
    parallel_for(0, n, kUpdateGrain, [&](std::int64_t lo, std::int64_t hi) {
      simd::lanes<V>(lo, hi, body);
    });
  });
}

}  // namespace

void sgd(const Tensor& g, Tensor& p, float lr) {
  check_sizes("sgd", g, {&p});
  const float* gp = g.data();
  float* pp = p.data();
  map(g.elements(), [&](auto tag, std::int64_t i) {
    using W = decltype(tag);
    W::fma(W::broadcast(-lr), W::loadu(gp + i), W::loadu(pp + i))
        .storeu(pp + i);
  });
}

void momentum(const Tensor& g, Tensor& v, Tensor& p, float lr, float mu,
              bool nesterov) {
  check_sizes("momentum", g, {&v, &p});
  const float* gp = g.data();
  float* vp = v.data();
  float* pp = p.data();
  map(g.elements(), [&](auto tag, std::int64_t i) {
    using W = decltype(tag);
    const W gv = W::loadu(gp + i);
    const W vv =
        W::fma(W::broadcast(-lr), gv, W::loadu(vp + i) * W::broadcast(mu));
    vv.storeu(vp + i);
    const W pv = W::loadu(pp + i);
    if (nesterov)
      W::fma(W::broadcast(-lr), gv, W::fma(W::broadcast(mu), vv, pv))
          .storeu(pp + i);
    else
      (pv + vv).storeu(pp + i);
  });
}

void adagrad(const Tensor& g, Tensor& acc, Tensor& p, float lr, float eps) {
  check_sizes("adagrad", g, {&acc, &p});
  const float* gp = g.data();
  float* ap = acc.data();
  float* pp = p.data();
  map(g.elements(), [&](auto tag, std::int64_t i) {
    using W = decltype(tag);
    const W gv = W::loadu(gp + i);
    const W av = W::fma(gv, gv, W::loadu(ap + i));
    av.storeu(ap + i);
    const W upd = W::broadcast(lr) * gv / (W::sqrt(av) + W::broadcast(eps));
    (W::loadu(pp + i) - upd).storeu(pp + i);
  });
}

void rmsprop(const Tensor& g, Tensor& ms, Tensor& p, float lr, float decay,
             float eps) {
  check_sizes("rmsprop", g, {&ms, &p});
  const float* gp = g.data();
  float* sp = ms.data();
  float* pp = p.data();
  map(g.elements(), [&](auto tag, std::int64_t i) {
    using W = decltype(tag);
    const W gv = W::loadu(gp + i);
    const W sv = W::fma(W::broadcast(decay), W::loadu(sp + i),
                        W::broadcast(1.0f - decay) * gv * gv);
    sv.storeu(sp + i);
    const W upd = W::broadcast(lr) * gv / (W::sqrt(sv) + W::broadcast(eps));
    (W::loadu(pp + i) - upd).storeu(pp + i);
  });
}

void adam(const Tensor& g, Tensor& m, Tensor& v, Tensor& p, float lr,
          float b1, float b2, float eps, std::int64_t t) {
  check_sizes("adam", g, {&m, &v, &p});
  const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t));
  const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t));
  const float* gp = g.data();
  float* mp = m.data();
  float* vp = v.data();
  float* pp = p.data();
  map(g.elements(), [&](auto tag, std::int64_t i) {
    using W = decltype(tag);
    const W gv = W::loadu(gp + i);
    const W mv = W::fma(W::broadcast(b1), W::loadu(mp + i),
                        W::broadcast(1.0f - b1) * gv);
    const W vv = W::fma(W::broadcast(b2), W::loadu(vp + i),
                        W::broadcast(1.0f - b2) * gv * gv);
    mv.storeu(mp + i);
    vv.storeu(vp + i);
    const W upd = W::broadcast(lr) * (mv / W::broadcast(bc1)) /
                  (W::sqrt(vv / W::broadcast(bc2)) + W::broadcast(eps));
    (W::loadu(pp + i) - upd).storeu(pp + i);
  });
}

}  // namespace d500::update

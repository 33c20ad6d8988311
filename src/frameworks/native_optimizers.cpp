#include "frameworks/native_optimizers.hpp"

#include <cmath>

#include "train/update_kernels.hpp"

namespace d500 {

FusedAdamOptimizer::FusedAdamOptimizer(GraphExecutor& exec,
                                       std::string framework, double lr,
                                       double beta1, double beta2, double eps)
    : Optimizer(exec), framework_(std::move(framework)), lr_(lr),
      beta1_(beta1), beta2_(beta2), eps_(eps) {}

TensorMap FusedAdamOptimizer::train(const TensorMap& feeds) {
  TensorMap out = executor().inference_and_backprop(feeds, loss_value_);
  ++t_;
  // One fused in-place pass per parameter, no temporaries: the Caffe2
  // "Adam operator" profile. The kernel is the reference Adam's own.
  for (const auto& [pname, gname] : network().gradients()) {
    const Tensor& g = network().fetch_tensor(gname);
    Tensor& m = m_.try_emplace(pname, g.shape()).first->second;
    Tensor& v = v_.try_emplace(pname, g.shape()).first->second;
    update::adam(g, m, v, network().fetch_tensor(pname),
                 static_cast<float>(lr_), static_cast<float>(beta1_),
                 static_cast<float>(beta2_), static_cast<float>(eps_), t_);
  }
  return out;
}

ComposedAdamOptimizer::ComposedAdamOptimizer(GraphExecutor& exec,
                                             std::string framework, double lr,
                                             double beta1, double beta2,
                                             double eps)
    : Optimizer(exec), framework_(std::move(framework)), lr_(lr),
      beta1_(beta1), beta2_(beta2), eps_(eps) {}

TensorMap ComposedAdamOptimizer::train(const TensorMap& feeds) {
  TensorMap out = executor().inference_and_backprop(feeds, loss_value_);
  ++t_;
  const auto b1 = static_cast<float>(beta1_);
  const auto b2 = static_cast<float>(beta2_);
  const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t_));
  // TensorFlow-style composition: every algebraic step is a separate
  // whole-array operator with a freshly allocated temporary — several
  // kernel launches and memory passes per parameter (paper Use Case 1).
  // TensorFlow additionally folds the bias corrections into the learning
  // rate (alpha_t = lr * sqrt(1-b2^t)/(1-b1^t)), which places epsilon
  // differently than Kingma & Ba's Algorithm 1 — mathematically close but
  // not identical in float32, the divergence the paper visualizes in
  // Fig. 11.
  const float alpha_t =
      static_cast<float>(lr_) * std::sqrt(bc2) / bc1;
  for (const auto& [pname, gname] : network().gradients()) {
    const Tensor& g = network().fetch_tensor(gname);
    Tensor& p = network().fetch_tensor(pname);
    Tensor& m = m_.try_emplace(pname, g.shape()).first->second;
    Tensor& v = v_.try_emplace(pname, g.shape()).first->second;
    const std::int64_t n = g.elements();

    Tensor t1(g.shape());  // (1-b1)*g
    t1 = g;
    scale(t1, 1.0f - b1);
    scale(m, b1);
    add(m, t1, m);  // m = b1*m + (1-b1)*g

    Tensor g2(g.shape());  // g*g
    mul(g, g, g2);
    scale(g2, 1.0f - b2);
    scale(v, b2);
    add(v, g2, v);  // v = b2*v + (1-b2)*g^2

    Tensor denom(g.shape());  // sqrt(v) + eps  (uncorrected v, TF-style)
    for (std::int64_t i = 0; i < n; ++i)
      denom.at(i) = std::sqrt(v.at(i)) + static_cast<float>(eps_);
    Tensor update(g.shape());
    for (std::int64_t i = 0; i < n; ++i)
      update.at(i) = m.at(i) / denom.at(i);
    axpy(-alpha_t, update, p);
  }
  return out;
}

FusedSgdOptimizer::FusedSgdOptimizer(GraphExecutor& exec,
                                     std::string framework, Rule rule,
                                     double lr, double mu, double eps)
    : Optimizer(exec), framework_(std::move(framework)), rule_(rule), lr_(lr),
      mu_(mu), eps_(eps) {}

std::string FusedSgdOptimizer::name() const {
  switch (rule_) {
    case Rule::kSgd: return framework_ + "-GradDescent(native)";
    case Rule::kMomentum: return framework_ + "-Momentum(native)";
    case Rule::kRmsProp: return framework_ + "-RmsProp(native)";
    case Rule::kAdaGrad: return framework_ + "-AdaGrad(native)";
  }
  return framework_ + "-sgd";
}

TensorMap FusedSgdOptimizer::train(const TensorMap& feeds) {
  TensorMap out = executor().inference_and_backprop(feeds, loss_value_);
  const float lr = static_cast<float>(lr_);
  const float mu = static_cast<float>(mu_);
  const float eps = static_cast<float>(eps_);
  for (const auto& [pname, gname] : network().gradients()) {
    const Tensor& g = network().fetch_tensor(gname);
    Tensor& p = network().fetch_tensor(pname);
    auto state = [&]() -> Tensor& {
      return state_.try_emplace(pname, g.shape()).first->second;
    };
    switch (rule_) {
      case Rule::kSgd: update::sgd(g, p, lr); break;
      case Rule::kMomentum:
        update::momentum(g, state(), p, lr, mu, /*nesterov=*/false);
        break;
      case Rule::kRmsProp: update::rmsprop(g, state(), p, lr, mu, eps); break;
      case Rule::kAdaGrad: update::adagrad(g, state(), p, lr, eps); break;
    }
  }
  return out;
}

}  // namespace d500

#include "train/optimizers.hpp"

#include <algorithm>
#include <cmath>

#include "train/update_kernels.hpp"

namespace d500 {

TensorMap ThreeStepOptimizer::train(const TensorMap& feeds) {
  ++step_;
  new_input();
  for (const auto& pname : network().parameters()) prepare_param(pname);
  TensorMap out = executor().inference_and_backprop(feeds, loss_value_);
  update_parameters();
  return out;
}

void ThreeStepOptimizer::update_parameters() {
  // The parameter list only grows (mark_parameter), so its size tells
  // whether the cached names are current.
  if (grads_.size() != network().parameters().size())
    grads_ = network().gradients();
  for (const auto& [pname, gname] : grads_)
    update_rule(network().fetch_tensor(gname), network().fetch_tensor(pname),
                pname);
}

double StepDecayLr::lr(std::int64_t step) const {
  return lr_ * std::pow(gamma_, static_cast<double>(step / period_));
}

GradientDescentOptimizer::GradientDescentOptimizer(
    GraphExecutor& exec, double lr, std::unique_ptr<LrSchedule> schedule)
    : UpdateRuleOptimizer(exec), lr_(lr), schedule_(std::move(schedule)) {}

void GradientDescentOptimizer::update_rule(const Tensor& grad, Tensor& param,
                                           const std::string&) {
  const double lr = schedule_ ? schedule_->lr(step()) : lr_;
  update::sgd(grad, param, static_cast<float>(lr));
}

MomentumOptimizer::MomentumOptimizer(GraphExecutor& exec, double lr,
                                     double momentum, bool nesterov)
    : UpdateRuleOptimizer(exec), lr_(lr), mu_(momentum), nesterov_(nesterov) {}

void MomentumOptimizer::update_rule(const Tensor& grad, Tensor& param,
                                    const std::string& pname) {
  Tensor& v = velocity_.try_emplace(pname, grad.shape()).first->second;
  update::momentum(grad, v, param, static_cast<float>(lr_),
                   static_cast<float>(mu_), nesterov_);
}

AdaGradOptimizer::AdaGradOptimizer(GraphExecutor& exec, double lr, double eps)
    : UpdateRuleOptimizer(exec), lr_(lr), eps_(eps) {}

void AdaGradOptimizer::update_rule(const Tensor& grad, Tensor& param,
                                   const std::string& pname) {
  Tensor& acc = accum_.try_emplace(pname, grad.shape()).first->second;
  update::adagrad(grad, acc, param, static_cast<float>(lr_),
                  static_cast<float>(eps_));
}

RMSPropOptimizer::RMSPropOptimizer(GraphExecutor& exec, double lr,
                                   double decay, double eps)
    : UpdateRuleOptimizer(exec), lr_(lr), decay_(decay), eps_(eps) {}

void RMSPropOptimizer::update_rule(const Tensor& grad, Tensor& param,
                                   const std::string& pname) {
  Tensor& ms = mean_sq_.try_emplace(pname, grad.shape()).first->second;
  update::rmsprop(grad, ms, param, static_cast<float>(lr_),
                  static_cast<float>(decay_), static_cast<float>(eps_));
}

AdamOptimizer::AdamOptimizer(GraphExecutor& exec, double lr, double beta1,
                             double beta2, double eps)
    : UpdateRuleOptimizer(exec), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {}

void AdamOptimizer::update_rule(const Tensor& grad, Tensor& param,
                                const std::string& pname) {
  Tensor& m = m_.try_emplace(pname, grad.shape()).first->second;
  Tensor& v = v_.try_emplace(pname, grad.shape()).first->second;
  update::adam(grad, m, v, param, static_cast<float>(lr_),
               static_cast<float>(beta1_), static_cast<float>(beta2_),
               static_cast<float>(eps_), ++t_[pname]);
}

AcceleGradOptimizer::AcceleGradOptimizer(GraphExecutor& exec, double lr,
                                         double D, double G, double eps)
    : ThreeStepOptimizer(exec), lr_(lr), D_(D), G_(G), eps_(eps) {}

void AcceleGradOptimizer::new_input() {
  // Listing 7, new_input: alpha_t = 1 for t <= 2, else (t+1)/4.
  ++t_;
  alpha_t_ = (t_ <= 2) ? 1.0 : 0.25 * static_cast<double>(t_ + 1);
  tau_t_ = 1.0 / alpha_t_;
}

void AcceleGradOptimizer::prepare_param(const std::string& pname) {
  // Listing 7, prepare_param: w = tau*z + (1-tau)*y.
  Tensor& param = network().fetch_tensor(pname);
  if (!init_) {
    y_.emplace(pname, param.clone());
    z_.emplace(pname, param.clone());
    squares_[pname] = 0.0;
  }
  const Tensor& y = y_.at(pname);
  const Tensor& z = z_.at(pname);
  const std::int64_t n = param.elements();
  const auto tau = static_cast<float>(tau_t_);
  for (std::int64_t i = 0; i < n; ++i)
    param.at(i) = tau * z.at(i) + (1.0f - tau) * y.at(i);
}

void AcceleGradOptimizer::update_rule(const Tensor& grad, Tensor& param,
                                      const std::string& pname) {
  // Listing 7, update_rule.
  double squared = squares_.at(pname);
  const double gnorm = l2_norm(grad);
  squared += alpha_t_ * alpha_t_ * gnorm * gnorm;
  const double eta_t = 2.0 * D_ / std::sqrt(G_ * G_ + squared);

  Tensor& z = z_.at(pname);
  Tensor& y = y_.at(pname);
  // z_{t+1} = z_t - alpha_t * eta_t * grad
  axpy(static_cast<float>(-alpha_t_ * eta_t), grad, z);
  // y_{t+1} = w_t - eta_t * grad
  std::copy_n(param.data(), param.elements(), y.data());
  axpy(static_cast<float>(-eta_t), grad, y);
  squares_[pname] = squared;
  init_ = true;

  const double adjusted_lr = lr_ / (eps_ + std::sqrt(squared));
  axpy(static_cast<float>(-adjusted_lr), grad, param);
}

}  // namespace d500

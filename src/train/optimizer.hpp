// Level 2 optimizer abstractions (paper §IV-E).
//
// `Optimizer` runs arbitrary code as the training procedure over a
// GraphExecutor. Two SGD abstractions refine it:
//  * UpdateRuleOptimizer — an update rule U applied per parameter
//    (Algorithm 1, line 6);
//  * ThreeStepOptimizer — the paper's novel decomposition into
//    (1) new_input, (2) prepare_param before inference, (3) update_rule —
//    the factorization that makes distributed wrapping automatic (Level 3
//    optimizers call the same three hooks around communication).
#pragma once

#include <map>

#include "graph/executor.hpp"

namespace d500 {

class Optimizer {
 public:
  explicit Optimizer(GraphExecutor& executor) : executor_(&executor) {}
  virtual ~Optimizer() = default;

  virtual std::string name() const = 0;

  /// One training step on a minibatch; returns the forward outputs
  /// (including "loss" when the model declares it).
  virtual TensorMap train(const TensorMap& feeds) = 0;

  GraphExecutor& executor() { return *executor_; }
  Network& network() { return executor_->network(); }

  /// The graph value backprop starts from; empty = last declared output.
  void set_loss_value(std::string v) { loss_value_ = std::move(v); }
  const std::string& loss_value() const { return loss_value_; }

 protected:
  GraphExecutor* executor_;
  std::string loss_value_;
};

/// Three-step SGD optimizer (paper Listing 7 shape). Subclasses override
/// the hooks; train() is final and fixes the step structure.
class ThreeStepOptimizer : public Optimizer {
 public:
  using Optimizer::Optimizer;

  TensorMap train(const TensorMap& feeds) final;

  /// Step 1: called once per minibatch before anything else.
  virtual void new_input() {}

  /// Step 2: may adjust a parameter before inference (e.g. AcceleGrad's
  /// interpolation); default leaves parameters untouched.
  virtual void prepare_param(const std::string& param_name) {}

  /// Step 3: the update rule — updates `param` in place from `grad`. The
  /// caller obtains `param` through the network's mutable fetch_tensor,
  /// which marks the stored parameters as changed (params_version).
  virtual void update_rule(const Tensor& grad, Tensor& param,
                           const std::string& param_name) = 0;

  /// Step 3 for every parameter, in declaration order, from the gradients
  /// the network holds now: what train() runs after backprop, and what
  /// Level 3 optimizers run after communicating gradients.
  void update_parameters();

  std::int64_t step() const { return step_; }

 protected:
  std::int64_t step_ = 0;

 private:
  // (parameter, gradient) names, kept so a step does not rebuild them.
  std::vector<std::pair<std::string, std::string>> grads_;
};

/// Update-rule-only optimizer: ThreeStepOptimizer with steps 1-2 inert.
/// (Matches the paper's UpdateRuleOptimizer; most classic SGD variants fit.)
class UpdateRuleOptimizer : public ThreeStepOptimizer {
 public:
  using ThreeStepOptimizer::ThreeStepOptimizer;
  void new_input() final {}
  void prepare_param(const std::string&) final {}
};

/// Learning-rate schedule: lr(t) for step t.
class LrSchedule {
 public:
  virtual ~LrSchedule() = default;
  virtual double lr(std::int64_t step) const = 0;
};

class ConstantLr : public LrSchedule {
 public:
  explicit ConstantLr(double lr) : lr_(lr) {}
  double lr(std::int64_t) const override { return lr_; }

 private:
  double lr_;
};

/// lr * gamma^(step / period): classic step decay.
class StepDecayLr : public LrSchedule {
 public:
  StepDecayLr(double lr, double gamma, std::int64_t period)
      : lr_(lr), gamma_(gamma), period_(period) {}
  double lr(std::int64_t step) const override;

 private:
  double lr_;
  double gamma_;
  std::int64_t period_;
};

}  // namespace d500

// Reference optimizers (paper §IV-E "Provided Implementations": gradient
// descent with LR schedule, momentum, Adam, AdaGrad — plus RMSProp,
// Nesterov, and AcceleGrad from Listing 7). Each update rule updates the
// parameter in place; the dense rules run the shared kernels of
// train/update_kernels, the same ones the framework-native fused
// optimizers call, so reference and native follow one trajectory.
#pragma once

#include <memory>

#include "train/optimizer.hpp"

namespace d500 {

class GradientDescentOptimizer : public UpdateRuleOptimizer {
 public:
  GradientDescentOptimizer(GraphExecutor& exec, double lr,
                           std::unique_ptr<LrSchedule> schedule = nullptr);
  std::string name() const override { return "GradDescent"; }
  void update_rule(const Tensor& grad, Tensor& param,
                   const std::string& param_name) override;

 private:
  double lr_;
  std::unique_ptr<LrSchedule> schedule_;
};

class MomentumOptimizer : public UpdateRuleOptimizer {
 public:
  MomentumOptimizer(GraphExecutor& exec, double lr, double momentum = 0.9,
                    bool nesterov = false);
  std::string name() const override { return nesterov_ ? "Nesterov" : "Momentum"; }
  void update_rule(const Tensor& grad, Tensor& param,
                   const std::string& param_name) override;

 private:
  double lr_;
  double mu_;
  bool nesterov_;
  std::map<std::string, Tensor> velocity_;
};

class AdaGradOptimizer : public UpdateRuleOptimizer {
 public:
  AdaGradOptimizer(GraphExecutor& exec, double lr, double eps = 1e-8);
  std::string name() const override { return "AdaGrad"; }
  void update_rule(const Tensor& grad, Tensor& param,
                   const std::string& param_name) override;

 private:
  double lr_;
  double eps_;
  std::map<std::string, Tensor> accum_;
};

class RMSPropOptimizer : public UpdateRuleOptimizer {
 public:
  RMSPropOptimizer(GraphExecutor& exec, double lr, double decay = 0.9,
                   double eps = 1e-8);
  std::string name() const override { return "RmsProp"; }
  void update_rule(const Tensor& grad, Tensor& param,
                   const std::string& param_name) override;

 private:
  double lr_;
  double decay_;
  double eps_;
  std::map<std::string, Tensor> mean_sq_;
};

/// Adam (Kingma & Ba), the published algorithm with per-parameter step
/// counts. The paper's reference Adam is slower than fused native kernels
/// but converges identically (Fig. 10); here both run update::adam, so
/// they are bit-identical and cost the same per element (EXPERIMENTS E9).
class AdamOptimizer : public UpdateRuleOptimizer {
 public:
  AdamOptimizer(GraphExecutor& exec, double lr = 1e-3, double beta1 = 0.9,
                double beta2 = 0.999, double eps = 1e-8);
  std::string name() const override { return "Adam"; }
  void update_rule(const Tensor& grad, Tensor& param,
                   const std::string& param_name) override;

 private:
  double lr_, beta1_, beta2_, eps_;
  std::map<std::string, Tensor> m_;
  std::map<std::string, Tensor> v_;
  std::map<std::string, std::int64_t> t_;  // per-parameter step count
};

/// AcceleGrad (Levy, Yurtsever & Cevher 2018) — the paper's Listing 7
/// flagship example of a state-of-the-art optimizer expressed in the
/// three-step abstraction. Kept in the same algorithmic form.
class AcceleGradOptimizer : public ThreeStepOptimizer {
 public:
  AcceleGradOptimizer(GraphExecutor& exec, double lr, double D = 1.0,
                      double G = 1.0, double eps = 1e-8);
  std::string name() const override { return "AcceleGrad"; }

  void new_input() override;
  void prepare_param(const std::string& param_name) override;
  void update_rule(const Tensor& grad, Tensor& param,
                   const std::string& param_name) override;

 private:
  double lr_, D_, G_, eps_;
  double alpha_t_ = 1.0, tau_t_ = 1.0;
  std::int64_t t_ = 0;
  bool init_ = false;
  std::map<std::string, Tensor> y_;
  std::map<std::string, Tensor> z_;
  std::map<std::string, double> squares_;
};

}  // namespace d500

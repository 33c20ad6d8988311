// Framework-native optimizer implementations.
//
// The paper's Use Case 1: Caffe2 implements Adam as one fused GPU kernel,
// TensorFlow composes it from generic tensor operators — with materially
// different overheads. These classes reproduce that mechanically:
//   * FusedAdamOptimizer       — single pass over each parameter, state
//                                updated in place (CF2Sim/PTSim native);
//                                the kernel is update::adam, shared with
//                                the reference AdamOptimizer.
//   * ComposedAdamOptimizer    — each algebraic step is a separate
//                                whole-array operation with temporaries
//                                (TFSim native: Eigen-style op chains).
// plus fused SGD/momentum/RMSProp/AdaGrad variants.
#pragma once

#include "train/optimizer.hpp"

namespace d500 {

class FusedAdamOptimizer : public Optimizer {
 public:
  FusedAdamOptimizer(GraphExecutor& exec, std::string framework, double lr,
                     double beta1 = 0.9, double beta2 = 0.999,
                     double eps = 1e-8);
  std::string name() const override { return framework_ + "-Adam(fused)"; }
  TensorMap train(const TensorMap& feeds) override;

 private:
  std::string framework_;
  double lr_, beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
  std::map<std::string, Tensor> m_, v_;
};

class ComposedAdamOptimizer : public Optimizer {
 public:
  ComposedAdamOptimizer(GraphExecutor& exec, std::string framework, double lr,
                        double beta1 = 0.9, double beta2 = 0.999,
                        double eps = 1e-8);
  std::string name() const override { return framework_ + "-Adam(composed)"; }
  TensorMap train(const TensorMap& feeds) override;

 private:
  std::string framework_;
  double lr_, beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
  std::map<std::string, Tensor> m_, v_;
};

/// Fused in-place SGD / momentum / RMSProp / AdaGrad (native update
/// kernels, the "written specifically for GPUs" counterparts in Fig. 9),
/// on the shared train/update_kernels.
class FusedSgdOptimizer : public Optimizer {
 public:
  enum class Rule { kSgd, kMomentum, kRmsProp, kAdaGrad };
  FusedSgdOptimizer(GraphExecutor& exec, std::string framework, Rule rule,
                    double lr, double mu = 0.9, double eps = 1e-8);
  std::string name() const override;
  TensorMap train(const TensorMap& feeds) override;

 private:
  std::string framework_;
  Rule rule_;
  double lr_, mu_, eps_;
  std::map<std::string, Tensor> state_;
};

}  // namespace d500

// Optimizer tests: analytic single-step checks on a quadratic model,
// equivalence of reference vs. framework-native (fused/composed)
// implementations, allocation-free in-place update rules, AcceleGrad's
// three-step structure, and schedules.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/threadpool.hpp"
#include "counting_new.hpp"
#include "frameworks/framework.hpp"
#include "frameworks/native_optimizers.hpp"
#include "graph/visitor.hpp"
#include "models/builders.hpp"
#include "train/optimizers.hpp"
#include "train/update_kernels.hpp"
#include "train/validation.hpp"

namespace d500 {
namespace {

/// Scalar quadratic objective: loss = mse(w * x, target) over a single
/// 1-element parameter; gives closed-form gradients for analytic checks.
/// w enters as a [1,1] Linear weight; x = 1, bias frozen at 0.
Model quad_model(float w0) {
  Tensor w({1, 1}, std::vector<float>{w0});
  Tensor b({1});
  return ModelBuilder("quad")
      .input("data", {1, 1})
      .input("target", {1, 1})
      .initializer("w", std::move(w))
      .initializer("b", std::move(b), /*trainable=*/false)
      .node("Linear", {"data", "w", "b"}, {"pred"})
      .node("MSELoss", {"pred", "target"}, {"loss"})
      .output("pred")
      .output("loss")
      .build();
}

TensorMap quad_feeds(float target) {
  TensorMap feeds;
  feeds["data"] = Tensor({1, 1}, std::vector<float>{1.0f});
  feeds["target"] = Tensor({1, 1}, std::vector<float>{target});
  return feeds;
}

float weight(Optimizer& opt) {
  return opt.network().fetch_tensor("w").at(0);
}

TEST(GradientDescent, AnalyticStep) {
  // loss = (w - t)^2, dl/dw = 2(w - t); w0=1, t=0, lr=0.1 -> w1 = 0.8.
  ReferenceExecutor exec(build_network(quad_model(1.0f)));
  GradientDescentOptimizer opt(exec, 0.1);
  opt.set_loss_value("loss");
  opt.train(quad_feeds(0.0f));
  EXPECT_NEAR(weight(opt), 0.8f, 1e-5f);
  opt.train(quad_feeds(0.0f));
  EXPECT_NEAR(weight(opt), 0.64f, 1e-5f);
}

TEST(GradientDescent, ConvergesOnQuadratic) {
  ReferenceExecutor exec(build_network(quad_model(5.0f)));
  GradientDescentOptimizer opt(exec, 0.2);
  opt.set_loss_value("loss");
  for (int i = 0; i < 50; ++i) opt.train(quad_feeds(2.0f));
  EXPECT_NEAR(weight(opt), 2.0f, 1e-3f);
}

TEST(Momentum, AcceleratesDownhill) {
  ReferenceExecutor e1(build_network(quad_model(5.0f)));
  ReferenceExecutor e2(build_network(quad_model(5.0f)));
  GradientDescentOptimizer plain(e1, 0.02);
  MomentumOptimizer mom(e2, 0.02, 0.9);
  plain.set_loss_value("loss");
  mom.set_loss_value("loss");
  for (int i = 0; i < 10; ++i) {
    plain.train(quad_feeds(0.0f));
    mom.train(quad_feeds(0.0f));
  }
  EXPECT_LT(std::abs(weight(mom)), std::abs(weight(plain)))
      << "momentum should make more progress on a smooth quadratic";
}

TEST(Adam, FirstStepIsLrSizedRegardlessOfGradientScale) {
  // Adam's bias correction makes the first update ~= lr * sign(grad).
  for (float target : {0.5f, -100.0f}) {
    ReferenceExecutor exec(build_network(quad_model(1.0f)));
    AdamOptimizer opt(exec, /*lr=*/0.01);
    opt.set_loss_value("loss");
    opt.train(quad_feeds(target));
    const float step = weight(opt) - 1.0f;
    const float expected = target > 1.0f ? 0.01f : -0.01f;
    EXPECT_NEAR(step, expected, 1e-4f) << "target=" << target;
  }
}

TEST(AdaGradAndRmsProp, StepsShrinkOverTime) {
  for (int which = 0; which < 2; ++which) {
    ReferenceExecutor exec(build_network(quad_model(10.0f)));
    std::unique_ptr<Optimizer> opt;
    if (which == 0)
      opt = std::make_unique<AdaGradOptimizer>(exec, 0.5);
    else
      opt = std::make_unique<RMSPropOptimizer>(exec, 0.5);
    opt->set_loss_value("loss");
    float prev = 10.0f;
    float first_step = 0, fifth_step = 0;
    for (int i = 0; i < 5; ++i) {
      opt->train(quad_feeds(10.0f + 1.0f));  // constant gradient direction
      const float w = opt->network().fetch_tensor("w").at(0);
      const float step = std::abs(w - prev);
      if (i == 0) first_step = step;
      if (i == 4) fifth_step = step;
      prev = w;
    }
    EXPECT_LT(fifth_step, first_step) << "which=" << which;
  }
}

TEST(StepDecaySchedule, DecaysAtPeriod) {
  StepDecayLr sched(1.0, 0.5, 10);
  EXPECT_DOUBLE_EQ(sched.lr(0), 1.0);
  EXPECT_DOUBLE_EQ(sched.lr(9), 1.0);
  EXPECT_DOUBLE_EQ(sched.lr(10), 0.5);
  EXPECT_DOUBLE_EQ(sched.lr(25), 0.25);
}

TEST(FusedAdam, MatchesReferenceAdamTrajectory) {
  // Paper Fig. 10/11 premise: fused native Adam and reference Adam follow
  // the same trajectory. Both run update::adam, so here it is bit-exact.
  Model m = models::mlp(4, 10, {8}, 3, 77);
  ReferenceExecutor e1(build_network(m));
  ReferenceExecutor e2(build_network(m));
  AdamOptimizer ref(e1, 0.01);
  FusedAdamOptimizer fused(e2, "cf2sim", 0.01);
  ref.set_loss_value("loss");
  fused.set_loss_value("loss");

  Rng rng(5);
  std::vector<TensorMap> batches;
  for (int i = 0; i < 5; ++i) {
    TensorMap f;
    Tensor d({4, 10});
    d.fill_uniform(rng, -1, 1);
    f["data"] = std::move(d);
    Tensor l({4});
    for (int k = 0; k < 4; ++k) l.at(k) = static_cast<float>(k % 3);
    f["labels"] = std::move(l);
    batches.push_back(std::move(f));
  }
  const auto res = test_optimizer(fused, ref, batches, /*tol=*/0.0);
  EXPECT_TRUE(res.passed) << "divergence=" << res.max_divergence;
}

TEST(ComposedAdam, MatchesFusedAdamClosely) {
  // The composed (TFSim) implementation reorders float operations; on a
  // short horizon the trajectories must stay close but need not be equal —
  // the paper's Fig. 11 divergence setup.
  Model m = models::mlp(4, 10, {8}, 3, 78);
  ReferenceExecutor e1(build_network(m));
  ReferenceExecutor e2(build_network(m));
  FusedAdamOptimizer fused(e1, "cf2sim", 0.01);
  ComposedAdamOptimizer composed(e2, "tfsim", 0.01);
  fused.set_loss_value("loss");
  composed.set_loss_value("loss");

  Rng rng(6);
  std::vector<TensorMap> batches;
  for (int i = 0; i < 3; ++i) {
    TensorMap f;
    Tensor d({4, 10});
    d.fill_uniform(rng, -1, 1);
    f["data"] = std::move(d);
    f["labels"] = Tensor({4});
    batches.push_back(std::move(f));
  }
  const auto res = test_optimizer(composed, fused, batches, /*tol=*/1e-3);
  EXPECT_TRUE(res.passed) << "divergence=" << res.max_divergence;
}

TEST(UpdateRule, InPlaceAfterFirstStepAllocatesNothing) {
  // Step 3 updates the parameter where it lives: once a parameter's state
  // exists (its first step), update_rule allocates nothing — no clone of
  // the parameter, no fresh state, no temporaries.
  ThreadPool::instance().reset(1);
  // More than one update-kernel chunk, with a vector tail.
  const std::int64_t n = 2 * update::kUpdateGrain + 3;
  Tensor grad({n});
  Rng rng(11);
  grad.fill_uniform(rng, -1, 1);
  ReferenceExecutor exec(build_network(quad_model(1.0f)));
  std::vector<std::unique_ptr<ThreeStepOptimizer>> opts;
  opts.push_back(std::make_unique<GradientDescentOptimizer>(exec, 0.1));
  opts.push_back(std::make_unique<MomentumOptimizer>(exec, 0.1, 0.9));
  opts.push_back(std::make_unique<MomentumOptimizer>(exec, 0.1, 0.9, true));
  opts.push_back(std::make_unique<AdaGradOptimizer>(exec, 0.1));
  opts.push_back(std::make_unique<RMSPropOptimizer>(exec, 0.1));
  opts.push_back(std::make_unique<AdamOptimizer>(exec, 0.1));
  opts.push_back(std::make_unique<AcceleGradOptimizer>(exec, 0.1));
  for (auto& opt : opts) {
    const std::string pname = "w";
    Tensor param({n});
    param.fill_uniform(rng, -1, 1);
    if (auto* ag = dynamic_cast<AcceleGradOptimizer*>(opt.get())) {
      // AcceleGrad's y/z state is created by prepare_param from the
      // stored parameter.
      exec.network().feed_tensor(pname, param);
      ag->new_input();
      ag->prepare_param(pname);
      param = exec.network().fetch_tensor(pname);
    }
    opt->update_rule(grad, param, pname);  // first step: creates state
    const Tensor first = param;
    const std::int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    for (int s = 0; s < 3; ++s) opt->update_rule(grad, param, pname);
    const std::int64_t after = g_heap_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0)
        << opt->name() << ": " << (after - before)
        << " heap allocations across 3 warm update_rule calls";
    EXPECT_NE(std::memcmp(first.data(), param.data(), param.bytes()), 0)
        << opt->name() << ": update_rule left the parameter unchanged";
  }
}

TEST(AcceleGrad, ThreeStepHooksFire) {
  ReferenceExecutor exec(build_network(quad_model(3.0f)));
  AcceleGradOptimizer opt(exec, 0.5, /*D=*/1.0, /*G=*/1.0);
  opt.set_loss_value("loss");
  for (int i = 0; i < 40; ++i) opt.train(quad_feeds(0.0f));
  // Converges toward 0 on the quadratic.
  EXPECT_LT(std::abs(weight(opt)), 1.0f);
  EXPECT_EQ(opt.step(), 40);
}

TEST(TrajectoryDivergence, GrowsForDifferentOptimizers) {
  Model m = models::mlp(4, 10, {8}, 3, 79);
  ReferenceExecutor e1(build_network(m));
  ReferenceExecutor e2(build_network(m));
  AdamOptimizer a(e1, 0.01);
  // Slightly different epsilon => trajectories must diverge over time
  // (the chaotic divergence of Fig. 11).
  AdamOptimizer b(e2, 0.01, 0.9, 0.999, 1e-6);
  a.set_loss_value("loss");
  b.set_loss_value("loss");

  Rng rng(7);
  auto feed_stream = [&](std::int64_t) {
    TensorMap f;
    Tensor d({4, 10});
    d.fill_uniform(rng, -1, 1);
    f["data"] = std::move(d);
    f["labels"] = Tensor({4});
    return f;
  };
  const auto series = trajectory_divergence(a, b, feed_stream, 20, 1);
  ASSERT_EQ(series.total_l2.size(), 20u);
  EXPECT_GT(series.total_l2.back(), series.total_l2.front());
  EXPECT_GT(series.total_linf.back(), 0.0);
  EXPECT_EQ(series.l2.size(), series.params.size());
}

}  // namespace
}  // namespace d500

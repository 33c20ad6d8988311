// Plan-time graph compiler pass tests (graph/passes): spec parsing, each
// rewrite pattern with its negative cases (multi-consumer and exported
// intermediates must NOT fuse), bitwise forward/gradient equivalence
// against the unrewritten graph, the eval-mode conv+bn fold tolerance, and
// constant-fold refresh when parameters move. The fuzz suite
// (test_fuzz_graphs) extends these properties to random graphs and whole
// training runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "core/error.hpp"
#include "frameworks/plan_executor.hpp"
#include "graph/visitor.hpp"
#include "models/builders.hpp"
#include "ops/fused.hpp"

namespace d500 {
namespace {

std::unique_ptr<PlanExecutor> make_exec(const Model& m,
                                        const std::string& passes) {
  ExecOptions opt;
  opt.passes = passes;
  return std::make_unique<PlanExecutor>(build_network(m), "test-" + passes,
                                        opt);
}

void expect_outputs_bitwise(const Model& m, const TensorMap& feeds,
                            const std::string& passes) {
  auto base = make_exec(m, "none");
  auto opt = make_exec(m, passes);
  const TensorMap want = base->inference(feeds);
  const TensorMap got = opt->inference(feeds);
  for (const auto& out : m.graph_outputs) {
    const Tensor& a = got.at(out);
    const Tensor& r = want.at(out);
    ASSERT_EQ(a.shape(), r.shape()) << out;
    for (std::int64_t i = 0; i < r.elements(); ++i)
      ASSERT_EQ(a.at(i), r.at(i)) << passes << " " << out << "[" << i << "]";
  }
}

void expect_gradients_bitwise(const Model& m, const TensorMap& feeds,
                              const std::string& passes,
                              const std::string& loss) {
  auto base = make_exec(m, "none");
  auto opt = make_exec(m, passes);
  base->inference_and_backprop(feeds, loss);
  opt->inference_and_backprop(feeds, loss);
  for (const auto& [pname, gname] : base->network().gradients()) {
    const Tensor& rg = base->network().fetch_tensor(gname);
    const Tensor& eg = opt->network().fetch_tensor(gname);
    ASSERT_EQ(rg.elements(), eg.elements()) << gname;
    for (std::int64_t i = 0; i < rg.elements(); ++i)
      ASSERT_EQ(eg.at(i), rg.at(i)) << passes << " " << gname << "[" << i << "]";
  }
}

// ---- spec parsing ----------------------------------------------------------

TEST(PassSpec, DefaultAndAllSelectEverythingInOrder) {
  const std::vector<std::string> want{"constfold",      "fuse-conv-bn",
                                     "fuse-bias-relu", "fuse-epilogue",
                                     "fuse-elementwise", "dce"};
  EXPECT_EQ(parse_pass_spec(""), want);
  EXPECT_EQ(parse_pass_spec("all"), want);
  EXPECT_EQ(parse_pass_spec("1"), want);
}

TEST(PassSpec, NoneAndExclusions) {
  EXPECT_TRUE(parse_pass_spec("none").empty());
  EXPECT_TRUE(parse_pass_spec("off").empty());
  const auto without_dce = parse_pass_spec("all,-dce");
  EXPECT_EQ(without_dce.size(), 5u);
  for (const auto& n : without_dce) EXPECT_NE(n, "dce");
}

TEST(PassSpec, ExplicitListIsReordered) {
  const auto got = parse_pass_spec("dce, constfold");
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "constfold");  // canonical order, not spec order
  EXPECT_EQ(got[1], "dce");
}

TEST(PassSpec, UnknownNameThrows) {
  EXPECT_THROW(parse_pass_spec("no-such-pass"), Error);
  EXPECT_THROW(parse_pass_spec("all,-no-such-pass"), Error);
}

TEST(PassSpec, EnvKnobControlsDefault) {
  setenv("D500_PASSES", "none", 1);
  EXPECT_EQ(default_pass_spec(), "none");
  setenv("D500_PASSES", "dce", 1);
  ExecOptions opt;  // picks the env default up at construction
  EXPECT_EQ(opt.passes, "dce");
  unsetenv("D500_PASSES");
  EXPECT_EQ(default_pass_spec(), "all");
}

// ---- fuse-bias-relu --------------------------------------------------------

Model bias_relu_model() {
  Rng rng(2);
  Tensor bias({3});
  bias.fill_uniform(rng, -1, 1);
  return ModelBuilder("br")
      .input("data", {2, 3, 4, 4})
      .initializer("bias", std::move(bias))
      .node("BiasAdd", {"data", "bias"}, {"b"})
      .node("ReLU", {"b"}, {"y"})
      .output("y")
      .build();
}

TensorMap feeds_for(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  TensorMap feeds;
  Tensor d(shape);
  d.fill_uniform(rng, -1, 1);
  feeds["data"] = std::move(d);
  return feeds;
}

TEST(FuseBiasRelu, FusesAndMatchesBitwise) {
  const Model m = bias_relu_model();
  auto exec = make_exec(m, "fuse-bias-relu");
  ASSERT_EQ(exec->network().nodes().size(), 1u);
  EXPECT_EQ(exec->network().nodes()[0].op_type, "FusedBiasRelu");
  const PassStats* s = exec->pass_stats().find("fuse-bias-relu");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->rewrites, 1);
  expect_outputs_bitwise(m, feeds_for({2, 3, 4, 4}, 7), "fuse-bias-relu");
}

TEST(FuseBiasRelu, DoesNotFuseWhenIntermediateIsExported) {
  Model m = bias_relu_model();
  m.graph_outputs.push_back("b");
  auto exec = make_exec(m, "fuse-bias-relu");
  EXPECT_EQ(exec->network().nodes().size(), 2u);
  EXPECT_EQ(exec->pass_stats().total_rewrites(), 0);
}

TEST(FuseBiasRelu, DoesNotFuseMultiConsumerIntermediate) {
  Rng rng(2);
  Tensor bias({3});
  const Model m = ModelBuilder("br2")
                      .input("data", {1, 3, 2, 2})
                      .initializer("bias", std::move(bias))
                      .node("BiasAdd", {"data", "bias"}, {"b"})
                      .node("ReLU", {"b"}, {"y1"})
                      .node("Sigmoid", {"b"}, {"y2"})
                      .output("y1")
                      .output("y2")
                      .build();
  auto exec = make_exec(m, "fuse-bias-relu");
  EXPECT_EQ(exec->network().nodes().size(), 3u);
}

// ---- fuse-epilogue ---------------------------------------------------------

Model linear_act_loss_model(const char* act) {
  Rng rng(5);
  Tensor w({3, 6});
  w.fill_kaiming(rng, 6);
  return ModelBuilder("ep")
      .input("data", {4, 6})
      .input("labels", {4})
      .initializer("w", std::move(w))
      .initializer("b", Tensor({3}))
      .node("Linear", {"data", "w", "b"}, {"h"})
      .node(act, {"h"}, {"logits"})
      .node("SoftmaxCrossEntropy", {"logits", "labels"}, {"loss"})
      .output("logits")
      .output("loss")
      .build();
}

TensorMap classifier_feeds(std::int64_t batch, std::int64_t features,
                           std::uint64_t seed) {
  Rng rng(seed);
  TensorMap feeds;
  Tensor d({batch, features});
  d.fill_uniform(rng, -1, 1);
  feeds["data"] = std::move(d);
  Tensor labels({batch});
  for (std::int64_t i = 0; i < batch; ++i)
    labels.at(i) = static_cast<float>(rng.below(3));
  feeds["labels"] = std::move(labels);
  return feeds;
}

TEST(FuseEpilogue, FoldsActivationIntoLinearBitwise) {
  for (const char* act : {"ReLU", "Sigmoid", "Tanh"}) {
    const Model m = linear_act_loss_model(act);
    auto exec = make_exec(m, "fuse-epilogue");
    ASSERT_EQ(exec->network().nodes().size(), 2u) << act;  // Linear + loss
    EXPECT_EQ(exec->network().nodes()[0].op_type, "Linear");
    const TensorMap feeds = classifier_feeds(4, 6, 11);
    expect_outputs_bitwise(m, feeds, "fuse-epilogue");
    expect_gradients_bitwise(m, feeds, "fuse-epilogue", "loss");
  }
}

TEST(FuseEpilogue, DoesNotFoldWhenPreActivationIsExported) {
  Model m = linear_act_loss_model("ReLU");
  m.graph_outputs.push_back("h");
  auto exec = make_exec(m, "fuse-epilogue");
  EXPECT_EQ(exec->network().nodes().size(), 3u);
}

// ---- fuse-elementwise ------------------------------------------------------

Model chain_loss_model() {
  Rng rng(6);
  Tensor w({3, 6});
  w.fill_kaiming(rng, 6);
  return ModelBuilder("chain")
      .input("data", {4, 6})
      .input("labels", {4})
      .initializer("w", std::move(w))
      .initializer("b", Tensor({3}))
      .node("Linear", {"data", "w", "b"}, {"h"})
      .node("ReLU", {"h"}, {"r"})
      .node("Sigmoid", {"r"}, {"s"})
      .node("Tanh", {"s"}, {"logits"})
      .node("SoftmaxCrossEntropy", {"logits", "labels"}, {"loss"})
      .output("logits")
      .output("loss")
      .build();
}

TEST(FuseElementwise, CollapsesChainBitwise) {
  const Model m = chain_loss_model();
  auto exec = make_exec(m, "fuse-elementwise");
  // Linear + FusedElementwise(ReLU,Sigmoid,Tanh) + loss.
  ASSERT_EQ(exec->network().nodes().size(), 3u);
  EXPECT_EQ(exec->network().nodes()[1].op_type, "FusedElementwise");
  const auto* fused = dynamic_cast<const FusedElementwiseOp*>(
      exec->network().nodes()[1].op.get());
  ASSERT_NE(fused, nullptr);
  EXPECT_EQ(fused->kinds().size(), 3u);
  const TensorMap feeds = classifier_feeds(4, 6, 12);
  expect_outputs_bitwise(m, feeds, "fuse-elementwise");
  expect_gradients_bitwise(m, feeds, "fuse-elementwise", "loss");
}

TEST(FuseElementwise, StopsAtMultiConsumerIntermediate) {
  const Model m = ModelBuilder("mc")
                      .input("data", {2, 8})
                      .node("ReLU", {"data"}, {"r"})
                      .node("Sigmoid", {"r"}, {"y1"})
                      .node("Tanh", {"r"}, {"y2"})
                      .output("y1")
                      .output("y2")
                      .build();
  auto exec = make_exec(m, "fuse-elementwise");
  EXPECT_EQ(exec->network().nodes().size(), 3u);
  EXPECT_EQ(exec->pass_stats().total_rewrites(), 0);
}

TEST(FuseElementwise, StopsAtExportedIntermediate) {
  const Model m = ModelBuilder("exp")
                      .input("data", {2, 8})
                      .node("ReLU", {"data"}, {"r"})
                      .node("Sigmoid", {"r"}, {"y"})
                      .output("r")
                      .output("y")
                      .build();
  auto exec = make_exec(m, "fuse-elementwise");
  EXPECT_EQ(exec->network().nodes().size(), 2u);
}

// ---- fuse-conv-bn ----------------------------------------------------------

Model conv_bn_relu_model(bool with_relu) {
  Rng rng(9);
  Tensor w({4, 3, 3, 3});
  w.fill_kaiming(rng, 27);
  Tensor gamma({4});
  gamma.fill(1.0f);
  Tensor fw({3, 4});
  fw.fill_kaiming(rng, 4);
  ModelBuilder b("cbr");
  b.input("data", {2, 3, 8, 8})
      .input("labels", {2})
      .initializer("w", std::move(w))
      .initializer("bias", Tensor({4}))
      .initializer("gamma", std::move(gamma))
      .initializer("beta", Tensor({4}))
      .initializer("fw", std::move(fw))
      .initializer("fb", Tensor({3}))
      .node("Conv2D", {"data", "w", "bias"}, {"c"},
            Attrs{{"kernel", std::int64_t{3}}, {"pad", std::int64_t{1}}})
      .node("BatchNorm", {"c", "gamma", "beta"}, {"bn"},
            Attrs{{"channels", std::int64_t{4}}});
  std::string head = "bn";
  if (with_relu) {
    b.node("ReLU", {"bn"}, {"act"});
    head = "act";
  }
  b.node("GlobalAvgPool", {head}, {"gap"})
      .node("Linear", {"gap", "fw", "fb"}, {"logits"})
      .node("SoftmaxCrossEntropy", {"logits", "labels"}, {"loss"})
      .output("logits")
      .output("loss");
  return b.build();
}

TensorMap conv_feeds(std::uint64_t seed) {
  Rng rng(seed);
  TensorMap feeds;
  Tensor d({2, 3, 8, 8});
  d.fill_uniform(rng, -1, 1);
  feeds["data"] = std::move(d);
  Tensor labels({2});
  for (std::int64_t i = 0; i < 2; ++i)
    labels.at(i) = static_cast<float>(rng.below(3));
  feeds["labels"] = std::move(labels);
  return feeds;
}

TEST(FuseConvBn, FusesTrainingGraphBitwise) {
  for (bool with_relu : {false, true}) {
    const Model m = conv_bn_relu_model(with_relu);
    auto exec = make_exec(m, "fuse-conv-bn");
    // Conv+BN(+ReLU) collapse to one node; GAP/Linear/loss remain.
    ASSERT_EQ(exec->network().nodes().size(), 4u) << with_relu;
    EXPECT_EQ(exec->network().nodes()[0].op_type, "FusedConvBn");
    const auto* fused = dynamic_cast<const FusedConvBnOp*>(
        exec->network().nodes()[0].op.get());
    ASSERT_NE(fused, nullptr);
    EXPECT_EQ(fused->with_relu(), with_relu);
    const TensorMap feeds = conv_feeds(13);
    expect_outputs_bitwise(m, feeds, "fuse-conv-bn");
    expect_gradients_bitwise(m, feeds, "fuse-conv-bn", "loss");
  }
}

TEST(FuseConvBn, DoesNotFuseMultiConsumerConvOutput) {
  Rng rng(9);
  Tensor w({4, 3, 3, 3});
  w.fill_kaiming(rng, 27);
  Tensor gamma({4});
  gamma.fill(1.0f);
  const Model m =
      ModelBuilder("mc")
          .input("data", {1, 3, 6, 6})
          .initializer("w", std::move(w))
          .initializer("bias", Tensor({4}))
          .initializer("gamma", std::move(gamma))
          .initializer("beta", Tensor({4}))
          .node("Conv2D", {"data", "w", "bias"}, {"c"},
                Attrs{{"kernel", std::int64_t{3}}, {"pad", std::int64_t{1}}})
          .node("BatchNorm", {"c", "gamma", "beta"}, {"bn"},
                Attrs{{"channels", std::int64_t{4}}})
          .node("ReLU", {"c"}, {"y2"})  // second consumer of the conv output
          .output("bn")
          .output("y2")
          .build();
  auto exec = make_exec(m, "fuse-conv-bn");
  EXPECT_EQ(exec->network().nodes().size(), 3u);
  EXPECT_EQ(exec->pass_stats().total_rewrites(), 0);
}

TEST(FuseConvBn, EvalModeFoldMatchesWithinTolerance) {
  const Model m = conv_bn_relu_model(true);
  auto base = make_exec(m, "none");
  auto opt = make_exec(m, "fuse-conv-bn");
  const TensorMap feeds = conv_feeds(17);

  // One training step moves the BN running statistics off their init.
  base->inference_and_backprop(feeds, "loss");
  opt->inference_and_backprop(feeds, "loss");

  base->network().set_training(false);
  opt->network().set_training(false);
  const TensorMap want = base->inference(feeds);
  const TensorMap got = opt->inference(feeds);
  for (const auto& out : m.graph_outputs) {
    const Tensor& a = got.at(out);
    const Tensor& r = want.at(out);
    for (std::int64_t i = 0; i < r.elements(); ++i)
      ASSERT_NEAR(a.at(i), r.at(i), 1e-5f + 1e-5f * std::abs(r.at(i)))
          << out << "[" << i << "]";
  }

  // Parameter updates must invalidate the folded weights: scale gamma and
  // re-run eval; fused must track the unfused result, not the stale fold.
  for (auto* net : {&base->network(), &opt->network()}) {
    Tensor& g = net->fetch_tensor("gamma");
    for (std::int64_t i = 0; i < g.elements(); ++i) g.at(i) *= 1.5f;
  }
  const TensorMap want2 = base->inference(feeds);
  const TensorMap got2 = opt->inference(feeds);
  for (std::int64_t i = 0; i < want2.at("logits").elements(); ++i)
    ASSERT_NEAR(got2.at("logits").at(i), want2.at("logits").at(i),
                1e-5f + 1e-5f * std::abs(want2.at("logits").at(i)));
  // And the fold must actually have changed the output.
  bool moved = false;
  for (std::int64_t i = 0; i < want.at("logits").elements(); ++i)
    if (got2.at("logits").at(i) != got.at("logits").at(i)) moved = true;
  EXPECT_TRUE(moved);
}

// The eval fold shares the inner conv's prepack slot with the executor's
// weight cache, which uninstalls the panels at every new parameter version
// and repacks them on the second forward. The fold lends its panels only
// for its own call, so between calls the slot holds the executor's panels
// of the live filter or nothing — never folded or stale panels — and every
// eval and training forward matches a prepack-off executor bit for bit
// across mode flips and weight updates.
TEST(FuseConvBn, EvalFoldNeverLeavesFoldedOrStalePanelsInPrepackSlot) {
  const Model m = conv_bn_relu_model(true);
  const TensorMap feeds = conv_feeds(19);
  std::vector<std::unique_ptr<PlanExecutor>> execs;
  for (const bool prepack : {true, false}) {
    ExecOptions opt;
    opt.passes = "fuse-conv-bn";
    opt.prepack_weights = prepack;
    execs.push_back(std::make_unique<PlanExecutor>(
        build_network(m), prepack ? "prepack-on" : "prepack-off", opt));
  }
  const auto& on_net = static_cast<const Network&>(execs[0]->network());
  const auto* fused =
      dynamic_cast<const FusedConvBnOp*>(on_net.nodes()[0].op.get());
  ASSERT_NE(fused, nullptr);

  auto check = [&](const std::string& when) {
    std::vector<TensorMap> outs;
    for (auto& e : execs) outs.push_back(e->inference(feeds));
    const Tensor& a = outs[0].at("logits");
    const Tensor& b = outs[1].at("logits");
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.bytes()), 0) << when;
    const float* src = fused->conv().prepacked_src();
    EXPECT_TRUE(src == nullptr || src == on_net.fetch_tensor("w").data())
        << "conv prepack slot holds panels of another tensor " << when;
  };
  auto scale_weights = [&](float f) {
    for (auto& e : execs) {
      Tensor& w = e->network().fetch_tensor("w");  // bumps the version
      for (std::int64_t i = 0; i < w.elements(); ++i) w.at(i) *= f;
    }
  };

  for (auto& e : execs) e->inference_and_backprop(feeds, "loss");
  for (auto& e : execs) e->network().set_training(false);
  for (int i = 0; i < 3; ++i) check("eval " + std::to_string(i));
  scale_weights(1.25f);
  for (int i = 0; i < 3; ++i) check("eval after update " + std::to_string(i));
  for (auto& e : execs) e->network().set_training(true);
  for (int i = 0; i < 2; ++i) check("train-mode " + std::to_string(i));
  scale_weights(0.5f);
  check("train-mode after update");
  for (auto& e : execs) e->network().set_training(false);
  for (int i = 0; i < 2; ++i) check("eval after flip " + std::to_string(i));
}

// ---- constfold -------------------------------------------------------------

Model constfold_model() {
  Rng rng(21);
  Tensor c({4});
  c.fill_uniform(rng, -1, 1);
  return ModelBuilder("cf")
      .input("data", {2, 4, 3, 3})
      .initializer("c", std::move(c), /*trainable=*/false)
      .node("Sigmoid", {"c"}, {"cs"})
      .node("BiasAdd", {"data", "cs"}, {"y"})
      .output("y")
      .build();
}

TEST(ConstFold, FoldsParameterOnlySubexpressionBitwise) {
  const Model m = constfold_model();
  auto exec = make_exec(m, "constfold");
  ASSERT_EQ(exec->network().nodes().size(), 1u);  // only the BiasAdd remains
  EXPECT_TRUE(exec->network().has_tensor("cs"));
  ASSERT_EQ(exec->pass_stats().folds.size(), 1u);
  EXPECT_EQ(exec->pass_stats().folds[0].output_name, "cs");
  expect_outputs_bitwise(m, feeds_for({2, 4, 3, 3}, 23), "constfold");
}

TEST(ConstFold, RefreshesWhenSourceTensorIsRefed) {
  const Model m = constfold_model();
  auto base = make_exec(m, "none");
  auto opt = make_exec(m, "constfold");
  const TensorMap feeds = feeds_for({2, 4, 3, 3}, 29);
  base->inference(feeds);
  opt->inference(feeds);

  Rng rng(31);
  Tensor c2({4});
  c2.fill_uniform(rng, -2, 2);
  base->network().feed_tensor("c", c2);
  opt->network().feed_tensor("c", c2);
  const Tensor want = base->inference(feeds).at("y");
  const Tensor got = opt->inference(feeds).at("y");
  for (std::int64_t i = 0; i < want.elements(); ++i)
    ASSERT_EQ(got.at(i), want.at(i)) << "stale fold at [" << i << "]";
}

TEST(ConstFold, DoesNotFoldTrainableOrRuntimeInputs) {
  Rng rng(33);
  Tensor c({4});
  c.fill_uniform(rng, -1, 1);
  const Model m = ModelBuilder("cft")
                      .input("data", {2, 4, 3, 3})
                      .initializer("c", std::move(c), /*trainable=*/true)
                      .node("Sigmoid", {"c"}, {"cs"})
                      .node("BiasAdd", {"data", "cs"}, {"y"})
                      .output("y")
                      .build();
  auto exec = make_exec(m, "constfold");
  EXPECT_EQ(exec->network().nodes().size(), 2u);  // trainable: no fold
  EXPECT_TRUE(exec->pass_stats().folds.empty());
}

// ---- dce -------------------------------------------------------------------

TEST(Dce, RemovesUnusedChains) {
  const Model m = ModelBuilder("dead")
                      .input("data", {1, 4})
                      .node("ReLU", {"data"}, {"live"})
                      .node("Sigmoid", {"data"}, {"dead1"})
                      .node("Tanh", {"dead1"}, {"dead2"})
                      .output("live")
                      .build();
  auto exec = make_exec(m, "dce");
  ASSERT_EQ(exec->network().nodes().size(), 1u);
  EXPECT_EQ(exec->network().nodes()[0].op_type, "ReLU");
  const PassStats* s = exec->pass_stats().find("dce");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->rewrites, 2);
  expect_outputs_bitwise(m, feeds_for({1, 4}, 37), "dce");
}

TEST(Dce, KeepsDeadBranchGradientsZeroInTraining) {
  // A trainable parameter consumed only by a dead branch: DCE removes the
  // branch, and the published gradient must equal the unpruned graph's
  // (zero — no gradient flows into an unused output).
  Rng rng(41);
  Tensor w({3, 6});
  w.fill_kaiming(rng, 6);
  Tensor dw({3, 6});
  dw.fill_kaiming(rng, 6);
  const Model m = ModelBuilder("deadp")
                      .input("data", {4, 6})
                      .input("labels", {4})
                      .initializer("w", std::move(w))
                      .initializer("b", Tensor({3}))
                      .initializer("dw", std::move(dw))
                      .initializer("db", Tensor({3}))
                      .node("Linear", {"data", "w", "b"}, {"logits"})
                      .node("Linear", {"data", "dw", "db"}, {"unused"})
                      .node("SoftmaxCrossEntropy", {"logits", "labels"},
                            {"loss"})
                      .output("logits")
                      .output("loss")
                      .build();
  const TensorMap feeds = classifier_feeds(4, 6, 43);
  expect_gradients_bitwise(m, feeds, "dce", "loss");
  auto exec = make_exec(m, "dce");
  EXPECT_EQ(exec->network().nodes().size(), 2u);
}

// ---- whole pipeline --------------------------------------------------------

TEST(PassPipeline, FullPipelineOnLenetMatchesBitwise) {
  const Model m = models::lenet(2, 1, 12, 12, 10, 51);
  auto base = make_exec(m, "none");
  auto opt = make_exec(m, "all");
  EXPECT_LT(opt->network().nodes().size(), base->network().nodes().size());
  Rng rng(53);
  TensorMap feeds;
  Tensor d({2, 1, 12, 12});
  d.fill_uniform(rng, -1, 1);
  feeds["data"] = std::move(d);
  Tensor labels({2});
  for (int i = 0; i < 2; ++i) labels.at(i) = static_cast<float>(i % 10);
  feeds["labels"] = std::move(labels);
  base->inference_and_backprop(feeds, "loss");
  opt->inference_and_backprop(feeds, "loss");
  for (const auto& [pname, gname] : base->network().gradients()) {
    const Tensor& rg = base->network().fetch_tensor(gname);
    const Tensor& eg = opt->network().fetch_tensor(gname);
    for (std::int64_t i = 0; i < rg.elements(); ++i)
      ASSERT_EQ(eg.at(i), rg.at(i)) << gname << "[" << i << "]";
  }
}

}  // namespace
}  // namespace d500

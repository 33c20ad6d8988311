// Level 1 Network: the in-memory, object-oriented DNN representation
// (paper §IV-D). Where the Python Deep500 uses a networkx graph, this class
// owns instantiated CustomOperators wired by named edges, and exposes the
// paper's graph API: add/remove nodes, fetch node data, feed new values,
// enumerate parameters and their gradients.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "graph/model.hpp"
#include "ops/operator.hpp"

namespace d500 {

using TensorMap = std::map<std::string, Tensor>;

class Network {
 public:
  struct Node {
    std::string name;
    std::string op_type;
    OperatorPtr op;
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;
  };

  Network() = default;
  explicit Network(std::string name) : name_(std::move(name)) {}

  // Non-copyable (owns operator instances), movable.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  const std::string& name() const { return name_; }

  /// Adds a node with an already-instantiated operator. Node names must be
  /// unique; output edges must not collide with existing values.
  void add_node(std::string node_name, OperatorPtr op,
                std::vector<std::string> inputs,
                std::vector<std::string> outputs,
                const std::string& op_type = "");

  /// Removes a node by name (edges remain as dangling names; callers
  /// re-wire explicitly — mirrors the paper's low-level graph API).
  void remove_node(const std::string& node_name);

  bool has_node(const std::string& node_name) const;
  Node& node(const std::string& node_name);
  const Node& node(const std::string& node_name) const;
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Nodes in topological (stored) order; validates that producers precede
  /// consumers and throws otherwise.
  std::vector<const Node*> topological_order() const;

  /// Parameter / constant storage. feed_tensor replaces (or creates) a
  /// stored tensor; fetch_tensor returns a reference.
  void feed_tensor(const std::string& name, Tensor value);
  Tensor& fetch_tensor(const std::string& name);
  const Tensor& fetch_tensor(const std::string& name) const;
  bool has_tensor(const std::string& name) const;

  /// Monotonic counter bumped whenever stored tensors may have mutated:
  /// every feed_tensor and every MUTABLE fetch_tensor (optimizers update
  /// weights in place through the latter; const reads don't bump).
  /// The PlanExecutor pre-packed weight cache compares versions to decide
  /// when packed panels are stale.
  std::uint64_t params_version() const { return params_version_; }

  /// Trainable parameter names (paper: network.get_params()).
  const std::vector<std::string>& parameters() const { return parameters_; }
  void mark_parameter(const std::string& name);

  /// Gradient naming convention: gradient of value `x` is stored under
  /// gradient_name(x) by the executor after backprop.
  static std::string gradient_name(const std::string& value) {
    return "grad::" + value;
  }
  /// (parameter, gradient) name pairs (paper: network.gradient()).
  std::vector<std::pair<std::string, std::string>> gradients() const;

  /// Graph inputs fed at runtime and their declared shapes.
  void declare_input(const std::string& name, Shape shape);
  const std::vector<std::string>& inputs() const { return inputs_; }
  const Shape& input_shape(const std::string& name) const;

  void declare_output(const std::string& name);
  const std::vector<std::string>& outputs() const { return outputs_; }

  /// Flips training/inference mode on stateful operators (Dropout,
  /// BatchNorm).
  void set_training(bool training);

  /// Sum of elements over all parameters.
  std::int64_t parameter_count() const;

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::map<std::string, std::size_t> node_index_;
  TensorMap tensors_;
  std::vector<std::string> parameters_;
  std::vector<std::string> inputs_;
  std::map<std::string, Shape> input_shapes_;
  std::vector<std::string> outputs_;
  std::uint64_t params_version_ = 0;
};

/// Canonical gradient-readiness order of the trainable parameters during
/// backprop: a parameter's gradient is final once the backward walk has
/// visited ALL of its consumer nodes, i.e. after the consumer with the
/// smallest topological index (backprop walks nodes in reverse). Sorted by
/// descending min-consumer index — the order gradients finish during the
/// backward pass — with ties broken by declaration order and unconsumed
/// parameters (gradient is trivially zero) first, since they are "ready"
/// before the walk begins. Gradient bucketing (dist/dist_optimizer) and
/// the PlanExecutor's eager gradient publication both derive from this one
/// rule so bucket launch order is consistent everywhere.
std::vector<std::string> backward_ready_param_order(const Network& net);

}  // namespace d500

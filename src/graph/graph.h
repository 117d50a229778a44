/**
 * @file
 * The DNN computation graph: construction API, shape inference,
 * topological ordering, validation, and weight storage for functional
 * simulation.
 */
#ifndef CIMMLC_GRAPH_GRAPH_H
#define CIMMLC_GRAPH_GRAPH_H

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/node.h"
#include "tensor/tensor.h"

namespace cimmlc {

/**
 * A directed acyclic computation graph.
 *
 * Builder methods (conv2d, linear, relu, ...) append a node, run shape
 * inference, and return the output TensorId so models compose naturally:
 * @code
 *   Graph g("toy");
 *   TensorId x = g.addInput("x", {1, 3, 32, 32});
 *   x = g.conv2d(x, 32, 3, 1, 1);
 *   x = g.relu(x);
 * @endcode
 */
class Graph
{
  public:
    explicit Graph(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    // ----- construction -------------------------------------------------

    /** Declares a graph input with the given shape. Aborts where
     * addInputChecked() fails (built-in models). */
    TensorId addInput(const std::string &name,
                      std::vector<std::int64_t> dims);

    /** addInput() for untrusted graphs (kvjson): a shape whose element
     * count overflows int64 is an error naming the input, and the
     * graph is left unchanged. */
    StatusOr<TensorId> addInputChecked(const std::string &name,
                                       std::vector<std::int64_t> dims);

    /** Generic node append; infers and registers the output shape.
     * Aborts where addNodeChecked() fails (built-in models). */
    TensorId addNode(OpKind kind, NodeAttrs attrs,
                     std::vector<TensorId> inputs,
                     const std::string &name = "");

    /**
     * addNode() for untrusted graphs (kvjson): a missing operand, an
     * operand shape the op cannot take, or a shape whose arithmetic or
     * element count overflows int64 is an error naming the node, and
     * the graph is left unchanged.
     */
    StatusOr<TensorId> addNodeChecked(OpKind kind, NodeAttrs attrs,
                                      std::vector<TensorId> inputs,
                                      const std::string &name = "");

    /** Marks @p tensor as a graph output. */
    void markOutput(TensorId tensor);

    // Typed builders.
    TensorId conv2d(TensorId input, std::int64_t out_channels,
                    std::int64_t kernel, std::int64_t stride,
                    std::int64_t padding, const std::string &name = "");
    TensorId linear(TensorId input, std::int64_t out_features,
                    const std::string &name = "");
    TensorId matmul(TensorId lhs, TensorId rhs, std::int64_t heads = 1,
                    bool transpose_rhs = false,
                    const std::string &name = "");
    TensorId relu(TensorId input, const std::string &name = "");
    TensorId gelu(TensorId input, const std::string &name = "");
    TensorId softmax(TensorId input, const std::string &name = "");
    TensorId layerNorm(TensorId input, const std::string &name = "");
    TensorId maxPool2d(TensorId input, std::int64_t kernel,
                       std::int64_t stride, std::int64_t padding = 0,
                       const std::string &name = "");
    TensorId avgPool2d(TensorId input, std::int64_t kernel,
                       std::int64_t stride, std::int64_t padding = 0,
                       const std::string &name = "");
    TensorId globalAvgPool(TensorId input, const std::string &name = "");
    TensorId add(TensorId a, TensorId b, const std::string &name = "");
    TensorId concat(const std::vector<TensorId> &inputs,
                    const std::string &name = "");
    TensorId flatten(TensorId input, const std::string &name = "");
    TensorId reshape(TensorId input, std::vector<std::int64_t> dims,
                     const std::string &name = "");

    // ----- inspection ---------------------------------------------------

    std::size_t nodeCount() const { return nodes_.size(); }
    std::size_t tensorCount() const { return tensors_.size(); }

    const Node &node(NodeId id) const;
    Node &mutableNode(NodeId id);
    const ValueInfo &tensor(TensorId id) const;

    const std::vector<Node> &nodes() const { return nodes_; }
    const std::vector<ValueInfo> &tensors() const { return tensors_; }
    const std::vector<TensorId> &inputs() const { return inputs_; }
    const std::vector<TensorId> &outputs() const { return outputs_; }

    /** Nodes in a valid execution order (Kahn's algorithm). */
    std::vector<NodeId> topoOrder() const;

    /** Structural checks: single producer, no cycles, known shapes. */
    Status validate() const;

    /** Sum of MAC operations across CIM-mappable nodes. */
    std::int64_t totalMacs() const;

    /** Total weight parameter count across CIM-mappable nodes. */
    std::int64_t totalWeights() const;

    /** Multi-line description for logs and docs. */
    std::string summary() const;

    // ----- weights (functional simulation) ------------------------------

    /** Installs an explicit weight tensor for @p node. */
    void setWeight(NodeId node, Int8Tensor weight);

    /** True when @p node has weights installed. */
    bool hasWeight(NodeId node) const;

    /** @pre hasWeight(node) */
    const Int8Tensor &weight(NodeId node) const;

    /** Fills every CIM-mappable node with deterministic random weights. */
    void randomizeWeights(Rng &rng, std::int64_t lo = -8,
                          std::int64_t hi = 8);

  private:
    StatusOr<std::vector<std::int64_t>>
    inferShape(OpKind kind, const NodeAttrs &attrs,
               const std::vector<TensorId> &ins,
               const std::string &name) const;
    TensorId newTensor(const std::string &name,
                       std::vector<std::int64_t> dims, NodeId producer);

    std::string name_;
    std::vector<Node> nodes_;
    std::vector<ValueInfo> tensors_;
    std::vector<TensorId> inputs_;
    std::vector<TensorId> outputs_;
    std::map<NodeId, Int8Tensor> weights_;
};

} // namespace cimmlc

#endif // CIMMLC_GRAPH_GRAPH_H

#include "graph/analysis.h"

#include "common/logging.h"
#include "common/strutil.h"
#include "graph/graph.h"

namespace cimmlc {

std::optional<WeightMatrixShape>
weightMatrixShape(const Graph &graph, NodeId node_id)
{
    const Node &n = graph.node(node_id);
    if (n.kind == OpKind::kConv2d) {
        const auto &a = n.conv();
        const auto &in = graph.tensor(n.inputs[0]).dims;
        return WeightMatrixShape{in[1] * a.kernel_h * a.kernel_w,
                                 a.out_channels};
    }
    if (n.kind == OpKind::kLinear) {
        const auto &a = n.linear();
        const auto &in = graph.tensor(n.inputs[0]).dims;
        return WeightMatrixShape{in.back(), a.out_features};
    }
    return std::nullopt;
}

std::int64_t
mvmCount(const Graph &graph, NodeId node_id)
{
    const Node &n = graph.node(node_id);
    if (n.kind == OpKind::kConv2d) {
        const auto &out = graph.tensor(n.output).dims;
        return out[0] * out[2] * out[3];
    }
    if (n.kind == OpKind::kLinear) {
        const auto &in = graph.tensor(n.inputs[0]).dims;
        std::int64_t rows = 1;
        for (std::size_t i = 0; i + 1 < in.size(); ++i)
            rows *= in[i];
        return rows;
    }
    return 0;
}

std::int64_t
macCount(const Graph &graph, NodeId node_id)
{
    const Node &n = graph.node(node_id);
    if (isCimMappable(n.kind)) {
        const auto wm = weightMatrixShape(graph, node_id);
        return mvmCount(graph, node_id) * wm->rows * wm->cols;
    }
    if (n.kind == OpKind::kMatMul) {
        const auto &lhs = graph.tensor(n.inputs[0]).dims;
        const auto &out = graph.tensor(n.output).dims;
        std::int64_t batch_rows = 1;
        for (std::size_t i = 0; i + 1 < lhs.size(); ++i)
            batch_rows *= lhs[i];
        return batch_rows * lhs.back() * out.back();
    }
    return 0;
}

std::optional<std::int64_t>
checkedAluOpCount(const Graph &graph, NodeId node_id)
{
    const Node &n = graph.node(node_id);
    // The element, pool-window and MAC counts fit int64 (see
    // Graph::addNodeChecked); only the per-element multiples can wrap.
    std::int64_t per_item = 1;
    std::int64_t items = 0;
    switch (n.kind) {
      case OpKind::kRelu:
      case OpKind::kAdd:
      case OpKind::kConcat:
      case OpKind::kIdentity:
        items = outputElements(graph, node_id);
        break;
      case OpKind::kGelu:
      case OpKind::kSoftmax:
      case OpKind::kLayerNorm:
        // Transcendental-heavy ops count several ALU ops per element.
        per_item = 4;
        items = outputElements(graph, node_id);
        break;
      case OpKind::kMaxPool2d:
      case OpKind::kAvgPool2d: {
        const auto &a = n.pool();
        items = outputElements(graph, node_id) * a.kernel * a.kernel;
        break;
      }
      case OpKind::kGlobalAvgPool: {
        const auto &in = graph.tensor(n.inputs[0]).dims;
        items = in[0] * in[1] * in[2] * in[3];
        break;
      }
      case OpKind::kMatMul:
        per_item = 2;
        items = macCount(graph, node_id);
        break;
      default:
        break;
    }
    std::int64_t ops = 0;
    if (__builtin_mul_overflow(items, per_item, &ops))
        return std::nullopt;
    return ops;
}

std::int64_t
aluOpCount(const Graph &graph, NodeId node_id)
{
    const std::optional<std::int64_t> ops =
        checkedAluOpCount(graph, node_id);
    CIMMLC_CHECK(ops.has_value()) << "ALU op count overflows int64";
    return *ops;
}

std::int64_t
outputElements(const Graph &graph, NodeId node_id)
{
    const Node &n = graph.node(node_id);
    return graph.tensor(n.output).numel();
}

StatusOr<Graph>
topoPrefix(const Graph &graph, std::int64_t compute_nodes)
{
    if (compute_nodes < 1)
        return invalidArgument(
            "topoPrefix: compute_nodes must be >= 1");

    // Decide which non-input nodes survive: the first compute_nodes of
    // the topo order, extended until the prefix contains at least one
    // CIM-mappable operator so the scheduler has something to map.
    const std::vector<NodeId> order = graph.topoOrder();
    std::vector<NodeId> kept;
    bool has_mappable = false;
    for (NodeId id : order) {
        const Node &node = graph.node(id);
        if (node.kind == OpKind::kInput)
            continue;
        const bool within =
            static_cast<std::int64_t>(kept.size()) < compute_nodes;
        if (!within && has_mappable)
            break;
        kept.push_back(id);
        if (isCimMappable(node.kind))
            has_mappable = true;
    }
    if (!has_mappable)
        return failedPrecondition(
            "topoPrefix: graph '" + graph.name()
            + "' has no CIM-mappable operator to anchor a prefix");

    Graph prefix(strformat("%s#prefix%zu", graph.name().c_str(),
                           kept.size()));
    std::vector<TensorId> tensor_map(graph.tensorCount(),
                                     kInvalidTensor);
    for (TensorId input : graph.inputs()) {
        const ValueInfo &info = graph.tensor(input);
        tensor_map[static_cast<std::size_t>(input)] =
            prefix.addInput(info.name, info.dims);
    }
    std::vector<bool> is_kept(graph.nodeCount(), false);
    for (NodeId id : kept) {
        const Node &node = graph.node(id);
        std::vector<TensorId> inputs;
        inputs.reserve(node.inputs.size());
        for (TensorId in : node.inputs) {
            const TensorId mapped =
                tensor_map[static_cast<std::size_t>(in)];
            // Topo order guarantees every producer precedes its
            // consumers, so a kept node only references mapped tensors.
            CIMMLC_CHECK_NE(mapped, kInvalidTensor)
                << "prefix node '" << node.name
                << "' references a tensor outside the prefix";
            inputs.push_back(mapped);
        }
        const TensorId out = prefix.addNode(node.kind, node.attrs,
                                            std::move(inputs), node.name);
        tensor_map[static_cast<std::size_t>(node.output)] = out;
        is_kept[static_cast<std::size_t>(id)] = true;
        if (graph.hasWeight(id))
            prefix.setWeight(
                static_cast<NodeId>(prefix.nodeCount() - 1),
                graph.weight(id));
    }

    // Outputs: kept non-input tensors that lost all their consumers to
    // the cut, plus the original outputs that survive. De-duplicated,
    // in original tensor order for determinism.
    std::vector<bool> is_output(graph.tensorCount(), false);
    for (TensorId out : graph.outputs())
        is_output[static_cast<std::size_t>(out)] = true;
    for (TensorId id = 0;
         id < static_cast<TensorId>(graph.tensorCount()); ++id) {
        const TensorId mapped = tensor_map[static_cast<std::size_t>(id)];
        if (mapped == kInvalidTensor)
            continue;
        const ValueInfo &info = graph.tensor(id);
        if (info.producer != kInvalidNode
            && graph.node(info.producer).kind == OpKind::kInput)
            continue;
        bool consumed = false;
        for (NodeId consumer : info.consumers) {
            if (is_kept[static_cast<std::size_t>(consumer)]) {
                consumed = true;
                break;
            }
        }
        if (!consumed || is_output[static_cast<std::size_t>(id)])
            prefix.markOutput(mapped);
    }
    CIMMLC_RETURN_IF_ERROR(prefix.validate().withContext("topoPrefix"));
    return prefix;
}

} // namespace cimmlc

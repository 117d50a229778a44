#include "graph/serialize.h"

#include <map>

#include "common/strutil.h"
#include "graph/analysis.h"

namespace cimmlc {

namespace {

/** Maps the serialized op name to an OpKind. */
StatusOr<OpKind>
opKindFromName(const std::string &name)
{
    static const std::map<std::string, OpKind> table = {
        {"conv2d", OpKind::kConv2d},
        {"linear", OpKind::kLinear},
        {"matmul", OpKind::kMatMul},
        {"relu", OpKind::kRelu},
        {"gelu", OpKind::kGelu},
        {"softmax", OpKind::kSoftmax},
        {"layernorm", OpKind::kLayerNorm},
        {"maxpool2d", OpKind::kMaxPool2d},
        {"avgpool2d", OpKind::kAvgPool2d},
        {"globalavgpool", OpKind::kGlobalAvgPool},
        {"add", OpKind::kAdd},
        {"concat", OpKind::kConcat},
        {"flatten", OpKind::kFlatten},
        {"reshape", OpKind::kReshape},
        {"identity", OpKind::kIdentity},
    };
    auto it = table.find(toLower(name));
    if (it == table.end())
        return parseError("unknown op '" + name + "'");
    return it->second;
}

/** Fails unless the counts the compiler derives from @p graph fit int64.
 * addNodeChecked() bounds each node's elements, weights and MACs; this
 * bounds their graph-wide sums, which the reports and the evaluation
 * digest carry, and each node's ALU op count. */
Status
checkCounts(const Graph &graph)
{
    std::int64_t weights = 0;
    std::int64_t macs = 0;
    for (NodeId id = 0; id < static_cast<NodeId>(graph.nodeCount()); ++id) {
        if (!checkedAluOpCount(graph, id).has_value())
            return parseError("graph node '" + graph.node(id).name
                              + "': ALU op count overflows int64");
        const auto wm = weightMatrixShape(graph, id);
        if (wm.has_value()
            && (__builtin_add_overflow(weights, wm->rows * wm->cols,
                                       &weights)
                || __builtin_add_overflow(macs, macCount(graph, id),
                                          &macs)))
            return parseError("graph's total weight or MAC count "
                              "overflows int64");
    }
    return Status::ok();
}

} // namespace

StatusOr<Graph>
graphFromConfig(const ConfigValue &doc)
{
    if (!doc.isObject())
        return parseError("graph document must be an object");
    CIMMLC_RETURN_IF_ERROR(rejectUnknownKeys(
        "graph", doc, {"name", "inputs", "nodes", "outputs"}));
    std::string graph_name = "unnamed";
    CIMMLC_RETURN_IF_ERROR(readTypedMember("graph", doc, "name", &graph_name));
    Graph graph(graph_name);
    std::map<std::string, TensorId> by_name;

    CIMMLC_ASSIGN_OR_RETURN(ConfigValue inputs, doc.get("inputs"));
    if (!inputs.isArray() || inputs.asArray().empty())
        return parseError("graph needs a non-empty 'inputs' array");
    for (const ConfigValue &input : inputs.asArray()) {
        if (!input.isObject() || !input.has("name") ||
            !input.has("dims")) {
            return parseError("each input needs 'name' and 'dims'");
        }
        CIMMLC_RETURN_IF_ERROR(
            rejectUnknownKeys("graph input", input, {"name", "dims"}));
        std::string name;
        CIMMLC_RETURN_IF_ERROR(
            readTypedMember("graph input", input, "name", &name));
        std::vector<std::int64_t> dims;
        CIMMLC_RETURN_IF_ERROR(readTypedMember("graph input '" + name + "'",
                                               input, "dims", &dims));
        if (by_name.count(name))
            return parseError("duplicate tensor name '" + name + "'");
        CIMMLC_ASSIGN_OR_RETURN(by_name[name],
                                graph.addInputChecked(name, std::move(dims)));
    }

    CIMMLC_ASSIGN_OR_RETURN(ConfigValue nodes, doc.get("nodes"));
    if (!nodes.isArray())
        return parseError("'nodes' must be an array");
    for (const ConfigValue &node : nodes.asArray()) {
        if (!node.isObject() || !node.has("op") || !node.has("inputs"))
            return parseError("each node needs 'op' and 'inputs'");
        std::string op;
        CIMMLC_RETURN_IF_ERROR(readTypedMember("graph node", node, "op", &op));
        CIMMLC_ASSIGN_OR_RETURN(OpKind kind, opKindFromName(op));
        std::string name = strformat("%s_%zu", op.c_str(), by_name.size());
        CIMMLC_RETURN_IF_ERROR(
            readTypedMember("graph node", node, "name", &name));
        const std::string surface = "graph node '" + name + "'";
        std::vector<std::string> node_inputs;
        CIMMLC_RETURN_IF_ERROR(
            readTypedMember(surface, node, "inputs", &node_inputs));
        std::vector<TensorId> input_ids;
        for (const std::string &input : node_inputs) {
            auto it = by_name.find(input);
            if (it == by_name.end()) {
                return parseError("node references unknown tensor '" +
                                  input + "'");
            }
            input_ids.push_back(it->second);
        }

        // The keys every node has, plus the attributes its op reads.
        std::vector<std::string> known = {"op", "name", "inputs"};
        NodeAttrs attrs = std::monostate{};
        switch (kind) {
          case OpKind::kConv2d: {
            known.insert(known.end(), {"out_channels", "kernel", "kernel_w",
                                       "stride", "padding"});
            Conv2dAttrs a;
            CIMMLC_RETURN_IF_ERROR(readTypedMember(
                surface, node, "out_channels", &a.out_channels));
            a.kernel_h = 1;
            CIMMLC_RETURN_IF_ERROR(
                readTypedMember(surface, node, "kernel", &a.kernel_h));
            a.kernel_w = a.kernel_h;
            CIMMLC_RETURN_IF_ERROR(
                readTypedMember(surface, node, "kernel_w", &a.kernel_w));
            CIMMLC_RETURN_IF_ERROR(
                readTypedMember(surface, node, "stride", &a.stride));
            CIMMLC_RETURN_IF_ERROR(
                readTypedMember(surface, node, "padding", &a.padding));
            if (a.out_channels <= 0)
                return parseError("conv2d needs positive out_channels");
            attrs = a;
            break;
          }
          case OpKind::kLinear: {
            known.push_back("out_features");
            LinearAttrs a;
            CIMMLC_RETURN_IF_ERROR(readTypedMember(
                surface, node, "out_features", &a.out_features));
            if (a.out_features <= 0)
                return parseError("linear needs positive out_features");
            attrs = a;
            break;
          }
          case OpKind::kMaxPool2d:
          case OpKind::kAvgPool2d: {
            known.insert(known.end(), {"kernel", "stride", "padding"});
            Pool2dAttrs a;
            CIMMLC_RETURN_IF_ERROR(
                readTypedMember(surface, node, "kernel", &a.kernel));
            a.stride = a.kernel;
            CIMMLC_RETURN_IF_ERROR(
                readTypedMember(surface, node, "stride", &a.stride));
            CIMMLC_RETURN_IF_ERROR(
                readTypedMember(surface, node, "padding", &a.padding));
            attrs = a;
            break;
          }
          case OpKind::kMatMul: {
            known.insert(known.end(), {"heads", "transpose_rhs"});
            MatMulAttrs a;
            CIMMLC_RETURN_IF_ERROR(
                readTypedMember(surface, node, "heads", &a.heads));
            CIMMLC_RETURN_IF_ERROR(readTypedMember(
                surface, node, "transpose_rhs", &a.transpose_rhs));
            attrs = a;
            break;
          }
          case OpKind::kReshape: {
            known.push_back("dims");
            ReshapeAttrs a;
            if (!node.has("dims"))
                return parseError("reshape needs 'dims'");
            CIMMLC_RETURN_IF_ERROR(
                readTypedMember(surface, node, "dims", &a.new_dims));
            attrs = a;
            break;
          }
          default:
            break;
        }
        CIMMLC_RETURN_IF_ERROR(rejectUnknownKeys(surface, node, known));

        if (by_name.count(name))
            return parseError("duplicate tensor name '" + name + "'");
        CIMMLC_ASSIGN_OR_RETURN(
            by_name[name],
            graph.addNodeChecked(kind, std::move(attrs), input_ids, name));
    }

    std::vector<std::string> outputs;
    CIMMLC_RETURN_IF_ERROR(readTypedMember("graph", doc, "outputs", &outputs));
    if (outputs.empty())
        return parseError("graph needs a non-empty 'outputs' array");
    for (const std::string &output : outputs) {
        auto it = by_name.find(output);
        if (it == by_name.end()) {
            return parseError("output references unknown tensor '" +
                              output + "'");
        }
        graph.markOutput(it->second);
    }

    CIMMLC_RETURN_IF_ERROR(graph.validate());
    CIMMLC_RETURN_IF_ERROR(checkCounts(graph));
    return graph;
}

StatusOr<Graph>
graphFromText(const std::string &text)
{
    CIMMLC_ASSIGN_OR_RETURN(ConfigValue doc, parseConfig(text));
    return graphFromConfig(doc);
}

StatusOr<Graph>
graphFromFile(const std::string &path)
{
    CIMMLC_ASSIGN_OR_RETURN(ConfigValue doc, loadConfigFile(path));
    auto result = graphFromConfig(doc);
    if (!result.isOk())
        return result.status().withContext(path);
    return result;
}

ConfigValue
graphToConfig(const Graph &graph)
{
    ConfigValue::Object doc;
    doc["name"] = ConfigValue::makeString(graph.name());

    ConfigValue::Array inputs;
    for (TensorId in : graph.inputs()) {
        const ValueInfo &info = graph.tensor(in);
        ConfigValue::Object entry;
        entry["name"] = ConfigValue::makeString(info.name);
        ConfigValue::Array dims;
        for (std::int64_t d : info.dims)
            dims.push_back(ConfigValue::makeNumber(
                static_cast<double>(d)));
        entry["dims"] = ConfigValue::makeArray(std::move(dims));
        inputs.push_back(ConfigValue::makeObject(std::move(entry)));
    }
    doc["inputs"] = ConfigValue::makeArray(std::move(inputs));

    ConfigValue::Array nodes;
    for (NodeId id : graph.topoOrder()) {
        const Node &node = graph.node(id);
        if (node.kind == OpKind::kInput)
            continue;
        ConfigValue::Object entry;
        entry["op"] = ConfigValue::makeString(opKindName(node.kind));
        entry["name"] = ConfigValue::makeString(node.name);
        ConfigValue::Array node_inputs;
        for (TensorId in : node.inputs) {
            // Reference the producing node's name (graph inputs share
            // their tensor's name), matching the deserializer's keys.
            const ValueInfo &info = graph.tensor(in);
            const std::string &ref =
                info.producer >= 0 ? graph.node(info.producer).name
                                   : info.name;
            node_inputs.push_back(ConfigValue::makeString(ref));
        }
        entry["inputs"] = ConfigValue::makeArray(std::move(node_inputs));
        switch (node.kind) {
          case OpKind::kConv2d: {
            const auto &a = node.conv();
            entry["out_channels"] = ConfigValue::makeNumber(
                static_cast<double>(a.out_channels));
            entry["kernel"] = ConfigValue::makeNumber(
                static_cast<double>(a.kernel_h));
            entry["kernel_w"] = ConfigValue::makeNumber(
                static_cast<double>(a.kernel_w));
            entry["stride"] = ConfigValue::makeNumber(
                static_cast<double>(a.stride));
            entry["padding"] = ConfigValue::makeNumber(
                static_cast<double>(a.padding));
            break;
          }
          case OpKind::kLinear:
            entry["out_features"] = ConfigValue::makeNumber(
                static_cast<double>(node.linear().out_features));
            break;
          case OpKind::kMaxPool2d:
          case OpKind::kAvgPool2d: {
            const auto &a = node.pool();
            entry["kernel"] = ConfigValue::makeNumber(
                static_cast<double>(a.kernel));
            entry["stride"] = ConfigValue::makeNumber(
                static_cast<double>(a.stride));
            entry["padding"] = ConfigValue::makeNumber(
                static_cast<double>(a.padding));
            break;
          }
          case OpKind::kMatMul: {
            const auto &a = node.matmul();
            entry["heads"] = ConfigValue::makeNumber(
                static_cast<double>(a.heads));
            entry["transpose_rhs"] =
                ConfigValue::makeBool(a.transpose_rhs);
            break;
          }
          case OpKind::kReshape: {
            ConfigValue::Array dims;
            for (std::int64_t d : node.reshape().new_dims)
                dims.push_back(ConfigValue::makeNumber(
                    static_cast<double>(d)));
            entry["dims"] = ConfigValue::makeArray(std::move(dims));
            break;
          }
          default:
            break;
        }
        nodes.push_back(ConfigValue::makeObject(std::move(entry)));
    }
    doc["nodes"] = ConfigValue::makeArray(std::move(nodes));

    ConfigValue::Array outputs;
    for (TensorId out : graph.outputs()) {
        const ValueInfo &info = graph.tensor(out);
        const std::string &ref =
            info.producer >= 0 ? graph.node(info.producer).name
                               : info.name;
        outputs.push_back(ConfigValue::makeString(ref));
    }
    doc["outputs"] = ConfigValue::makeArray(std::move(outputs));
    return ConfigValue::makeObject(std::move(doc));
}

} // namespace cimmlc

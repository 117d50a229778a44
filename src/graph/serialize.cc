#include "graph/serialize.h"

#include <map>

#include "common/strutil.h"

namespace cimmlc {

namespace {

StatusOr<std::vector<std::int64_t>>
dimsFromConfig(const ConfigValue &value, const std::string &what)
{
    if (!value.isArray())
        return parseError(what + " must be an array of dims");
    std::vector<std::int64_t> dims;
    for (const ConfigValue &d : value.asArray()) {
        std::int64_t dim = 0;
        if (!integerValue(d, &dim))
            return parseError(what + " dims must be integers");
        dims.push_back(dim);
    }
    return dims;
}

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

} // namespace

StatusOr<Graph>
graphFromConfig(const ConfigValue &doc)
{
    if (!doc.isObject())
        return parseError("graph document must be an object");
    Graph graph(doc.getStringOr("name", "unnamed"));
    std::map<std::string, TensorId> by_name;

    CIMMLC_ASSIGN_OR_RETURN(ConfigValue inputs, doc.get("inputs"));
    if (!inputs.isArray() || inputs.asArray().empty())
        return parseError("graph needs a non-empty 'inputs' array");
    for (const ConfigValue &input : inputs.asArray()) {
        if (!input.isObject() || !input.has("name") ||
            !input.has("dims")) {
            return parseError("each input needs 'name' and 'dims'");
        }
        const std::string name = input.getStringOr("name", "");
        CIMMLC_ASSIGN_OR_RETURN(
            std::vector<std::int64_t> dims,
            dimsFromConfig(input.get("dims").value(), "input"));
        if (by_name.count(name))
            return parseError("duplicate tensor name '" + name + "'");
        by_name[name] = graph.addInput(name, std::move(dims));
    }

    CIMMLC_ASSIGN_OR_RETURN(ConfigValue nodes, doc.get("nodes"));
    if (!nodes.isArray())
        return parseError("'nodes' must be an array");
    for (const ConfigValue &node : nodes.asArray()) {
        if (!node.isObject() || !node.has("op") || !node.has("inputs"))
            return parseError("each node needs 'op' and 'inputs'");
        CIMMLC_ASSIGN_OR_RETURN(OpKind kind,
                                opKindFromName(node.getStringOr("op",
                                                                "")));
        CIMMLC_ASSIGN_OR_RETURN(ConfigValue node_inputs,
                                node.get("inputs"));
        if (!node_inputs.isArray())
            return parseError("node 'inputs' must be an array of names");
        std::vector<TensorId> input_ids;
        for (const ConfigValue &ref : node_inputs.asArray()) {
            if (!ref.isString())
                return parseError("node input references must be names");
            auto it = by_name.find(ref.asString());
            if (it == by_name.end()) {
                return parseError("node references unknown tensor '" +
                                  ref.asString() + "'");
            }
            input_ids.push_back(it->second);
        }

        NodeAttrs attrs = std::monostate{};
        switch (kind) {
          case OpKind::kConv2d: {
            Conv2dAttrs a;
            CIMMLC_RETURN_IF_ERROR(
                readIntegerKey(node, "out_channels", &a.out_channels));
            a.kernel_h = 1;
            CIMMLC_RETURN_IF_ERROR(
                readIntegerKey(node, "kernel", &a.kernel_h));
            a.kernel_w = a.kernel_h;
            CIMMLC_RETURN_IF_ERROR(
                readIntegerKey(node, "kernel_w", &a.kernel_w));
            CIMMLC_RETURN_IF_ERROR(readIntegerKey(node, "stride", &a.stride));
            CIMMLC_RETURN_IF_ERROR(
                readIntegerKey(node, "padding", &a.padding));
            if (a.out_channels <= 0)
                return parseError("conv2d needs positive out_channels");
            attrs = a;
            break;
          }
          case OpKind::kLinear: {
            LinearAttrs a;
            CIMMLC_RETURN_IF_ERROR(
                readIntegerKey(node, "out_features", &a.out_features));
            if (a.out_features <= 0)
                return parseError("linear needs positive out_features");
            attrs = a;
            break;
          }
          case OpKind::kMaxPool2d:
          case OpKind::kAvgPool2d: {
            Pool2dAttrs a;
            CIMMLC_RETURN_IF_ERROR(readIntegerKey(node, "kernel", &a.kernel));
            a.stride = a.kernel;
            CIMMLC_RETURN_IF_ERROR(readIntegerKey(node, "stride", &a.stride));
            CIMMLC_RETURN_IF_ERROR(
                readIntegerKey(node, "padding", &a.padding));
            attrs = a;
            break;
          }
          case OpKind::kMatMul: {
            MatMulAttrs a;
            CIMMLC_RETURN_IF_ERROR(readIntegerKey(node, "heads", &a.heads));
            a.transpose_rhs = node.getBoolOr("transpose_rhs", false);
            attrs = a;
            break;
          }
          case OpKind::kReshape: {
            ReshapeAttrs a;
            if (!node.has("dims"))
                return parseError("reshape needs 'dims'");
            CIMMLC_ASSIGN_OR_RETURN(
                a.new_dims,
                dimsFromConfig(node.get("dims").value(), "reshape"));
            attrs = a;
            break;
          }
          default:
            break;
        }

        const std::string name =
            node.getStringOr("name", strformat("%s_%zu",
                                               node.getStringOr("op", "")
                                                   .c_str(),
                                               by_name.size()));
        if (by_name.count(name))
            return parseError("duplicate tensor name '" + name + "'");
        CIMMLC_ASSIGN_OR_RETURN(
            by_name[name],
            graph.addNodeChecked(kind, std::move(attrs), input_ids, name));
    }

    CIMMLC_ASSIGN_OR_RETURN(ConfigValue outputs, doc.get("outputs"));
    if (!outputs.isArray() || outputs.asArray().empty())
        return parseError("graph needs a non-empty 'outputs' array");
    for (const ConfigValue &ref : outputs.asArray()) {
        if (!ref.isString())
            return parseError("output references must be names");
        auto it = by_name.find(ref.asString());
        if (it == by_name.end()) {
            return parseError("output references unknown tensor '" +
                              ref.asString() + "'");
        }
        graph.markOutput(it->second);
    }

    CIMMLC_RETURN_IF_ERROR(graph.validate());
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

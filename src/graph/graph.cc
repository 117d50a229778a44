#include "graph/graph.h"

#include <algorithm>
#include <deque>
#include <set>
#include <span>
#include <sstream>

#include "common/logging.h"
#include "common/strutil.h"
#include "graph/analysis.h"
#include "tensor/shape.h"

namespace cimmlc {

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::kInput: return "input";
      case OpKind::kConv2d: return "conv2d";
      case OpKind::kLinear: return "linear";
      case OpKind::kMatMul: return "matmul";
      case OpKind::kRelu: return "relu";
      case OpKind::kGelu: return "gelu";
      case OpKind::kSoftmax: return "softmax";
      case OpKind::kLayerNorm: return "layernorm";
      case OpKind::kMaxPool2d: return "maxpool2d";
      case OpKind::kAvgPool2d: return "avgpool2d";
      case OpKind::kGlobalAvgPool: return "globalavgpool";
      case OpKind::kAdd: return "add";
      case OpKind::kConcat: return "concat";
      case OpKind::kFlatten: return "flatten";
      case OpKind::kReshape: return "reshape";
      case OpKind::kIdentity: return "identity";
    }
    return "?";
}

bool
isCimMappable(OpKind kind)
{
    return kind == OpKind::kConv2d || kind == OpKind::kLinear;
}

bool
isShapeOnly(OpKind kind)
{
    return kind == OpKind::kFlatten || kind == OpKind::kReshape ||
           kind == OpKind::kIdentity || kind == OpKind::kInput;
}

namespace {

/** The product of @p factors, or false when it overflows int64. */
bool
checkedProduct(std::span<const std::int64_t> factors, std::int64_t *out)
{
    std::int64_t total = 1;
    for (const std::int64_t factor : factors)
        if (__builtin_mul_overflow(total, factor, &total))
            return false;
    *out = total;
    return true;
}

} // namespace

TensorId
Graph::addInput(const std::string &name, std::vector<std::int64_t> dims)
{
    return addInputChecked(name, std::move(dims)).value();
}

StatusOr<TensorId>
Graph::addInputChecked(const std::string &name,
                       std::vector<std::int64_t> dims)
{
    std::int64_t elements = 0;
    if (!checkedProduct(dims, &elements))
        return invalidArgument("input '" + name
                               + "': element count overflows int64");
    Node node;
    node.id = static_cast<NodeId>(nodes_.size());
    node.name = name.empty() ? strformat("input%d", node.id) : name;
    node.kind = OpKind::kInput;
    const TensorId out = newTensor(node.name, std::move(dims), node.id);
    node.output = out;
    nodes_.push_back(std::move(node));
    inputs_.push_back(out);
    return out;
}

TensorId
Graph::newTensor(const std::string &name, std::vector<std::int64_t> dims,
                 NodeId producer)
{
    ValueInfo info;
    info.id = static_cast<TensorId>(tensors_.size());
    info.name = name;
    info.dims = std::move(dims);
    info.producer = producer;
    tensors_.push_back(std::move(info));
    return tensors_.back().id;
}

TensorId
Graph::addNode(OpKind kind, NodeAttrs attrs, std::vector<TensorId> inputs,
               const std::string &name)
{
    return addNodeChecked(kind, std::move(attrs), std::move(inputs), name)
        .value();
}

StatusOr<TensorId>
Graph::addNodeChecked(OpKind kind, NodeAttrs attrs,
                      std::vector<TensorId> inputs, const std::string &name)
{
    if (kind == OpKind::kInput)
        return invalidArgument("use addInput for graph inputs");
    Node node;
    node.id = static_cast<NodeId>(nodes_.size());
    node.name = name.empty()
                    ? strformat("%s_%d", opKindName(kind), node.id)
                    : name;
    node.kind = kind;
    node.attrs = std::move(attrs);
    node.inputs = std::move(inputs);
    for (TensorId in : node.inputs) {
        if (in < 0 || in >= static_cast<TensorId>(tensors_.size()))
            return invalidArgument(strformat(
                "node '%s' references unknown tensor %d",
                node.name.c_str(), in));
    }
    CIMMLC_ASSIGN_OR_RETURN(
        std::vector<std::int64_t> out_dims,
        inferShape(kind, node.attrs, node.inputs, node.name));
    std::int64_t elements = 0;
    if (!checkedProduct(out_dims, &elements))
        return invalidArgument(strformat(
            "%s node '%s': output element count overflows int64",
            opKindName(kind), node.name.c_str()));
    for (TensorId in : node.inputs)
        tensors_[static_cast<std::size_t>(in)].consumers.push_back(node.id);
    node.output = newTensor(node.name + ":out", std::move(out_dims),
                            node.id);
    const TensorId out = node.output;
    nodes_.push_back(std::move(node));
    return out;
}

void
Graph::markOutput(TensorId tensor)
{
    CIMMLC_CHECK(tensor >= 0 &&
                 tensor < static_cast<TensorId>(tensors_.size()));
    outputs_.push_back(tensor);
}

namespace {

/** convOutDim(), or false when the stride is not positive, the window
 * is larger than the padded input, or the arithmetic overflows int64. */
bool
checkedOutDim(std::int64_t in, std::int64_t kernel, std::int64_t stride,
              std::int64_t padding, std::int64_t *out)
{
    std::int64_t span = 0;
    if (stride <= 0 || __builtin_mul_overflow(padding, 2, &span)
        || __builtin_add_overflow(span, in, &span)
        || __builtin_sub_overflow(span, kernel, &span) || span < 0)
        return false;
    *out = span / stride + 1;
    return true;
}

} // namespace

StatusOr<std::vector<std::int64_t>>
Graph::inferShape(OpKind kind, const NodeAttrs &attrs,
                  const std::vector<TensorId> &ins,
                  const std::string &name) const
{
    const auto fail = [&name, kind](const std::string &what) {
        return invalidArgument(strformat("%s node '%s': %s",
                                         opKindName(kind), name.c_str(),
                                         what.c_str()));
    };
    const std::size_t arity =
        kind == OpKind::kMatMul || kind == OpKind::kAdd ? 2 : 1;
    if (ins.size() < arity)
        return fail(strformat("needs %zu input(s), has %zu", arity,
                              ins.size()));
    auto dims_of = [&](std::size_t i) -> const std::vector<std::int64_t> & {
        return tensors_[static_cast<std::size_t>(ins[i])].dims;
    };

    switch (kind) {
      case OpKind::kInput:
        break;
      case OpKind::kConv2d:
      case OpKind::kMaxPool2d:
      case OpKind::kAvgPool2d: {
        const auto &in = dims_of(0);
        if (in.size() != 4)
            return fail("input must be NCHW");
        std::int64_t channels = in[1];
        std::int64_t kernel_h = 0;
        std::int64_t kernel_w = 0;
        std::int64_t stride = 0;
        std::int64_t padding = 0;
        if (kind == OpKind::kConv2d) {
            const auto &a = std::get<Conv2dAttrs>(attrs);
            channels = a.out_channels;
            kernel_h = a.kernel_h;
            kernel_w = a.kernel_w;
            stride = a.stride;
            padding = a.padding;
        } else {
            const auto &a = std::get<Pool2dAttrs>(attrs);
            kernel_h = kernel_w = a.kernel;
            stride = a.stride;
            padding = a.padding;
        }
        if (kernel_h <= 0 || kernel_w <= 0 || padding < 0)
            return fail("needs a positive kernel and a non-negative "
                        "padding");
        std::vector<std::int64_t> out = {in[0], channels, 0, 0};
        if (!checkedOutDim(in[2], kernel_h, stride, padding, &out[2])
            || !checkedOutDim(in[3], kernel_w, stride, padding, &out[3]))
            return fail("needs a positive stride, a window within the "
                        "padded input and an output size in int64");
        // The scheduler's counts must fit int64: this product is a
        // conv's MAC count, led by its weight rows (in channels x
        // kernel) so that they are checked too, and a pool's ALU ops.
        const std::int64_t in_channels =
            kind == OpKind::kConv2d ? in[1] : 1;
        const std::int64_t factors[] = {in_channels, kernel_h, kernel_w,
                                        channels, out[0], out[2], out[3]};
        std::int64_t ops = 0;
        if (!checkedProduct(factors, &ops))
            return fail("weight, MAC or ALU op count overflows int64");
        return out;
      }
      case OpKind::kLinear: {
        const auto &a = std::get<LinearAttrs>(attrs);
        std::vector<std::int64_t> out = dims_of(0);
        if (out.size() < 2)
            return fail("input must be >= 2-d");
        std::int64_t macs = 0;
        if (!checkedProduct(out, &macs)
            || __builtin_mul_overflow(macs, a.out_features, &macs))
            return fail("weight and MAC counts overflow int64");
        out.back() = a.out_features;
        return out;
      }
      case OpKind::kMatMul: {
        const auto &a = std::get<MatMulAttrs>(attrs);
        const auto &lhs = dims_of(0);
        const auto &rhs = dims_of(1);
        if (lhs.size() < 2 || rhs.size() < 2)
            return fail("operands must be >= 2-d");
        const std::int64_t lhs_k = lhs.back();
        const std::int64_t rhs_k =
            a.transpose_rhs ? rhs.back() : rhs[rhs.size() - 2];
        const std::int64_t rhs_n =
            a.transpose_rhs ? rhs[rhs.size() - 2] : rhs.back();
        if (lhs_k != rhs_k)
            return fail(strformat("inner dims differ (%lld vs %lld)",
                                  static_cast<long long>(lhs_k),
                                  static_cast<long long>(rhs_k)));
        std::int64_t macs = 0;
        if (!checkedProduct(lhs, &macs)
            || __builtin_mul_overflow(macs, rhs_n, &macs))
            return fail("MAC count overflows int64");
        std::vector<std::int64_t> out = lhs;
        out.back() = rhs_n;
        return out;
      }
      case OpKind::kGlobalAvgPool: {
        const auto &in = dims_of(0);
        if (in.size() != 4)
            return fail("input must be NCHW");
        return std::vector<std::int64_t>{in[0], in[1], 1, 1};
      }
      case OpKind::kAdd: {
        if (dims_of(0) != dims_of(1))
            return fail("operand shapes differ");
        return dims_of(0);
      }
      case OpKind::kConcat: {
        std::vector<std::int64_t> out = dims_of(0);
        if (out.size() < 2)
            return fail("inputs must be >= 2-d");
        for (std::size_t i = 1; i < ins.size(); ++i) {
            const auto &d = dims_of(i);
            if (d.size() != out.size())
                return fail("inputs differ in rank");
            if (__builtin_add_overflow(out[1], d[1], &out[1]))
                return fail("channel count overflows int64");
        }
        return out;
      }
      case OpKind::kFlatten: {
        const auto &in = dims_of(0);
        std::int64_t rest = 0;
        if (in.empty() || !checkedProduct(std::span(in).subspan(1), &rest))
            return fail("input must be >= 1-d with an element count "
                        "in int64");
        return std::vector<std::int64_t>{in[0], rest};
      }
      case OpKind::kReshape: {
        const auto &a = std::get<ReshapeAttrs>(attrs);
        std::int64_t in_total = 0;
        std::int64_t out_total = 0;
        if (!checkedProduct(dims_of(0), &in_total)
            || !checkedProduct(a.new_dims, &out_total))
            return fail("element count overflows int64");
        if (in_total != out_total)
            return fail(strformat("element count changes (%lld to %lld)",
                                  static_cast<long long>(in_total),
                                  static_cast<long long>(out_total)));
        return a.new_dims;
      }
      case OpKind::kRelu:
      case OpKind::kGelu:
      case OpKind::kSoftmax:
      case OpKind::kLayerNorm:
      case OpKind::kIdentity:
        return dims_of(0);
    }
    panic("unhandled op kind in inferShape");
}

TensorId
Graph::conv2d(TensorId input, std::int64_t out_channels,
              std::int64_t kernel, std::int64_t stride,
              std::int64_t padding, const std::string &name)
{
    Conv2dAttrs attrs;
    attrs.out_channels = out_channels;
    attrs.kernel_h = kernel;
    attrs.kernel_w = kernel;
    attrs.stride = stride;
    attrs.padding = padding;
    return addNode(OpKind::kConv2d, attrs, {input}, name);
}

TensorId
Graph::linear(TensorId input, std::int64_t out_features,
              const std::string &name)
{
    LinearAttrs attrs;
    attrs.out_features = out_features;
    return addNode(OpKind::kLinear, attrs, {input}, name);
}

TensorId
Graph::matmul(TensorId lhs, TensorId rhs, std::int64_t heads,
              bool transpose_rhs, const std::string &name)
{
    MatMulAttrs attrs;
    attrs.heads = heads;
    attrs.transpose_rhs = transpose_rhs;
    return addNode(OpKind::kMatMul, attrs, {lhs, rhs}, name);
}

TensorId
Graph::relu(TensorId input, const std::string &name)
{
    return addNode(OpKind::kRelu, std::monostate{}, {input}, name);
}

TensorId
Graph::gelu(TensorId input, const std::string &name)
{
    return addNode(OpKind::kGelu, std::monostate{}, {input}, name);
}

TensorId
Graph::softmax(TensorId input, const std::string &name)
{
    return addNode(OpKind::kSoftmax, std::monostate{}, {input}, name);
}

TensorId
Graph::layerNorm(TensorId input, const std::string &name)
{
    return addNode(OpKind::kLayerNorm, std::monostate{}, {input}, name);
}

TensorId
Graph::maxPool2d(TensorId input, std::int64_t kernel, std::int64_t stride,
                 std::int64_t padding, const std::string &name)
{
    Pool2dAttrs attrs{kernel, stride, padding};
    return addNode(OpKind::kMaxPool2d, attrs, {input}, name);
}

TensorId
Graph::avgPool2d(TensorId input, std::int64_t kernel, std::int64_t stride,
                 std::int64_t padding, const std::string &name)
{
    Pool2dAttrs attrs{kernel, stride, padding};
    return addNode(OpKind::kAvgPool2d, attrs, {input}, name);
}

TensorId
Graph::globalAvgPool(TensorId input, const std::string &name)
{
    return addNode(OpKind::kGlobalAvgPool, std::monostate{}, {input}, name);
}

TensorId
Graph::add(TensorId a, TensorId b, const std::string &name)
{
    return addNode(OpKind::kAdd, std::monostate{}, {a, b}, name);
}

TensorId
Graph::concat(const std::vector<TensorId> &inputs, const std::string &name)
{
    return addNode(OpKind::kConcat, std::monostate{}, inputs, name);
}

TensorId
Graph::flatten(TensorId input, const std::string &name)
{
    return addNode(OpKind::kFlatten, std::monostate{}, {input}, name);
}

TensorId
Graph::reshape(TensorId input, std::vector<std::int64_t> dims,
               const std::string &name)
{
    ReshapeAttrs attrs;
    attrs.new_dims = std::move(dims);
    return addNode(OpKind::kReshape, attrs, {input}, name);
}

const Node &
Graph::node(NodeId id) const
{
    CIMMLC_CHECK(id >= 0 && id < static_cast<NodeId>(nodes_.size()))
        << "node id " << id << " out of range";
    return nodes_[static_cast<std::size_t>(id)];
}

Node &
Graph::mutableNode(NodeId id)
{
    CIMMLC_CHECK(id >= 0 && id < static_cast<NodeId>(nodes_.size()))
        << "node id " << id << " out of range";
    return nodes_[static_cast<std::size_t>(id)];
}

const ValueInfo &
Graph::tensor(TensorId id) const
{
    CIMMLC_CHECK(id >= 0 && id < static_cast<TensorId>(tensors_.size()))
        << "tensor id " << id << " out of range";
    return tensors_[static_cast<std::size_t>(id)];
}

std::vector<NodeId>
Graph::topoOrder() const
{
    std::vector<int> in_degree(nodes_.size(), 0);
    for (const Node &n : nodes_)
        in_degree[static_cast<std::size_t>(n.id)] =
            static_cast<int>(n.inputs.size());

    std::deque<NodeId> ready;
    for (const Node &n : nodes_) {
        if (n.inputs.empty())
            ready.push_back(n.id);
    }

    std::vector<NodeId> order;
    order.reserve(nodes_.size());
    while (!ready.empty()) {
        const NodeId id = ready.front();
        ready.pop_front();
        order.push_back(id);
        const Node &n = nodes_[static_cast<std::size_t>(id)];
        if (n.output == kInvalidTensor)
            continue;
        for (NodeId consumer :
             tensors_[static_cast<std::size_t>(n.output)].consumers) {
            if (--in_degree[static_cast<std::size_t>(consumer)] == 0)
                ready.push_back(consumer);
        }
    }
    return order;
}

Status
Graph::validate() const
{
    if (nodes_.empty())
        return failedPrecondition("graph '" + name_ + "' is empty");
    if (outputs_.empty())
        return failedPrecondition("graph '" + name_ +
                                  "' has no marked outputs");
    for (const ValueInfo &t : tensors_) {
        for (std::int64_t d : t.dims) {
            if (d <= 0) {
                return internalError(strformat(
                    "tensor '%s' has non-positive dim", t.name.c_str()));
            }
        }
    }
    const std::vector<NodeId> order = topoOrder();
    if (order.size() != nodes_.size())
        return internalError("graph '" + name_ + "' contains a cycle");
    for (const Node &n : nodes_) {
        if (isCimMappable(n.kind)) {
            const auto wm = weightMatrixShape(*this, n.id);
            if (!wm.has_value()) {
                return internalError(strformat(
                    "CIM node '%s' has no weight matrix", n.name.c_str()));
            }
        }
    }
    return Status::ok();
}

std::int64_t
Graph::totalMacs() const
{
    std::int64_t total = 0;
    for (const Node &n : nodes_) {
        if (isCimMappable(n.kind))
            total += macCount(*this, n.id);
    }
    return total;
}

std::int64_t
Graph::totalWeights() const
{
    std::int64_t total = 0;
    for (const Node &n : nodes_) {
        const auto wm = weightMatrixShape(*this, n.id);
        if (wm.has_value())
            total += wm->rows * wm->cols;
    }
    return total;
}

std::string
Graph::summary() const
{
    std::ostringstream out;
    out << "graph '" << name_ << "': " << nodes_.size() << " nodes, "
        << humanCount(static_cast<double>(totalMacs())) << " MACs, "
        << humanCount(static_cast<double>(totalWeights())) << " weights\n";
    for (const Node &n : nodes_) {
        out << strformat("  [%3d] %-14s %-24s -> ", n.id, opKindName(n.kind),
                         n.name.c_str());
        const ValueInfo &t = tensors_[static_cast<std::size_t>(n.output)];
        out << "[";
        for (std::size_t i = 0; i < t.dims.size(); ++i) {
            if (i)
                out << ",";
            out << t.dims[i];
        }
        out << "]\n";
    }
    return out.str();
}

void
Graph::setWeight(NodeId node_id, Int8Tensor weight)
{
    const Node &n = node(node_id);
    CIMMLC_CHECK(isCimMappable(n.kind))
        << "node " << n.name << " does not take weights";
    weights_[node_id] = std::move(weight);
}

bool
Graph::hasWeight(NodeId node_id) const
{
    return weights_.count(node_id) > 0;
}

const Int8Tensor &
Graph::weight(NodeId node_id) const
{
    auto it = weights_.find(node_id);
    CIMMLC_CHECK(it != weights_.end())
        << "node " << node_id << " has no weights installed";
    return it->second;
}

void
Graph::randomizeWeights(Rng &rng, std::int64_t lo, std::int64_t hi)
{
    for (const Node &n : nodes_) {
        if (!isCimMappable(n.kind))
            continue;
        TensorShape shape;
        if (n.kind == OpKind::kConv2d) {
            const auto &a = n.conv();
            const auto &in = tensor(n.inputs[0]).dims;
            shape = TensorShape(
                {a.out_channels, in[1], a.kernel_h, a.kernel_w});
        } else {
            const auto &a = n.linear();
            const auto &in = tensor(n.inputs[0]).dims;
            shape = TensorShape({a.out_features, in.back()});
        }
        Int8Tensor w(shape);
        w.fillRandom(rng, lo, hi);
        weights_[n.id] = std::move(w);
    }
}

} // namespace cimmlc

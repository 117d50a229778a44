/**
 * @file
 * Node and attribute types of the DNN computation-graph IR.
 *
 * This IR plays the role ONNX plays in the paper (Section 3.3.1): nodes are
 * operators, edges are tensors with inferred shapes, and scheduling passes
 * annotate nodes with optimization attributes (duplication factors, core
 * assignments) as compilation progresses.
 */
#ifndef CIMMLC_GRAPH_NODE_H
#define CIMMLC_GRAPH_NODE_H

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace cimmlc {

using NodeId = std::int32_t;
using TensorId = std::int32_t;
constexpr NodeId kInvalidNode = -1;
constexpr TensorId kInvalidTensor = -1;

/** Operator vocabulary. */
enum class OpKind {
    kInput,         //!< graph input placeholder
    kConv2d,        //!< CIM-mappable; weights OIHW
    kLinear,        //!< CIM-mappable; weights [out, in]
    kMatMul,        //!< dynamic matmul (both operands are activations)
    kRelu,
    kGelu,
    kSoftmax,
    kLayerNorm,
    kMaxPool2d,
    kAvgPool2d,
    kGlobalAvgPool,
    kAdd,           //!< elementwise residual add
    kConcat,        //!< channel concatenation
    kFlatten,       //!< NCHW -> [N, CHW]
    kReshape,       //!< metadata-only shape change
    kIdentity,
};

/** Human-readable operator name (e.g. "conv2d"). */
const char *opKindName(OpKind kind);

/** True for operators whose weights live in CIM crossbars. */
bool isCimMappable(OpKind kind);

/** True for zero-cost metadata operators. */
bool isShapeOnly(OpKind kind);

// The defaulted comparison operators below require C++20; CMake enforces
// cxx_std_20, and this guard turns an accidental -std=c++17 build into one
// clear diagnostic instead of a cascade of operator== errors.
static_assert(__cplusplus >= 202002L,
              "cimmlc requires C++20 (defaulted operator==)");

/** Attributes for kConv2d. */
struct Conv2dAttrs {
    std::int64_t out_channels = 0;
    std::int64_t kernel_h = 0;
    std::int64_t kernel_w = 0;
    std::int64_t stride = 1;
    std::int64_t padding = 0;

    bool operator==(const Conv2dAttrs &) const = default;
};

/** Attributes for kLinear. */
struct LinearAttrs {
    std::int64_t out_features = 0;

    bool operator==(const LinearAttrs &) const = default;
};

/** Attributes for kMaxPool2d / kAvgPool2d. */
struct Pool2dAttrs {
    std::int64_t kernel = 2;
    std::int64_t stride = 2;
    std::int64_t padding = 0;

    bool operator==(const Pool2dAttrs &) const = default;
};

/** Attributes for kMatMul (activation x activation). */
struct MatMulAttrs {
    //! number of attention heads sharing this matmul (cost model only)
    std::int64_t heads = 1;
    //! multiply lhs by rhs^T instead of rhs
    bool transpose_rhs = false;

    bool operator==(const MatMulAttrs &) const = default;
};

/** Attributes for kReshape. */
struct ReshapeAttrs {
    std::vector<std::int64_t> new_dims;

    bool operator==(const ReshapeAttrs &) const = default;
};

using NodeAttrs = std::variant<std::monostate, Conv2dAttrs, LinearAttrs,
                               Pool2dAttrs, MatMulAttrs, ReshapeAttrs>;

/**
 * A single operator instance.
 *
 * Scheduling passes fill in the `duplication` and `segment` fields — the
 * paper's "adding attributes to the nodes in the ONNX graph"
 * (Section 3.3.1).
 */
struct Node {
    NodeId id = kInvalidNode;
    std::string name;
    OpKind kind = OpKind::kIdentity;
    NodeAttrs attrs;
    std::vector<TensorId> inputs;
    TensorId output = kInvalidTensor;

    /** Typed attribute accessors; abort on kind mismatch. */
    const Conv2dAttrs &conv() const { return std::get<Conv2dAttrs>(attrs); }
    const LinearAttrs &linear() const
    {
        return std::get<LinearAttrs>(attrs);
    }
    const Pool2dAttrs &pool() const { return std::get<Pool2dAttrs>(attrs); }
    const MatMulAttrs &matmul() const
    {
        return std::get<MatMulAttrs>(attrs);
    }
    const ReshapeAttrs &reshape() const
    {
        return std::get<ReshapeAttrs>(attrs);
    }
};

/** A tensor edge between operators. */
struct ValueInfo {
    TensorId id = kInvalidTensor;
    std::string name;
    //! dims, NCHW for 4-d activations
    std::vector<std::int64_t> dims;
    NodeId producer = kInvalidNode;
    std::vector<NodeId> consumers;

    std::int64_t
    numel() const
    {
        std::int64_t total = 1;
        for (std::int64_t d : dims)
            total *= d;
        return total;
    }
};

} // namespace cimmlc

#endif // CIMMLC_GRAPH_NODE_H

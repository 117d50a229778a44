/**
 * @file
 * Per-node analysis queries the scheduler relies on: the weight matrix a
 * node contributes to the crossbars, its MAC count, and the number of MVM
 * issues (sliding windows) it performs per inference.
 */
#ifndef CIMMLC_GRAPH_ANALYSIS_H
#define CIMMLC_GRAPH_ANALYSIS_H

#include <cstdint>
#include <optional>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/node.h"

namespace cimmlc {

/**
 * Dimensions of the weight matrix a CIM-mappable node maps onto crossbars
 * using the paper's Figure 7 convention: rows = reduction dimension
 * (C_in * kh * kw for conv, in_features for linear), cols = output
 * dimension.
 */
struct WeightMatrixShape {
    std::int64_t rows = 0;
    std::int64_t cols = 0;

    bool operator==(const WeightMatrixShape &) const = default;
};

/** Weight matrix of @p node, or nullopt for non-CIM operators. */
std::optional<WeightMatrixShape> weightMatrixShape(const Graph &graph,
                                                   NodeId node);

/**
 * Number of matrix-vector products one inference issues through @p node:
 * N * outH * outW for conv (one per sliding window, Figure 12), the
 * number of row vectors for linear. Zero for non-CIM operators.
 */
std::int64_t mvmCount(const Graph &graph, NodeId node);

/** Multiply-accumulate count of @p node (CIM or dynamic matmul). */
std::int64_t macCount(const Graph &graph, NodeId node);

/** Elementwise op count for digital (ALU) operators; 0 otherwise.
 * @pre the count fits int64, as Graph::validate() checks. */
std::int64_t aluOpCount(const Graph &graph, NodeId node);

/** aluOpCount(), or nullopt when it overflows int64. */
std::optional<std::int64_t> checkedAluOpCount(const Graph &graph,
                                              NodeId node);

/** Output activation element count of @p node. */
std::int64_t outputElements(const Graph &graph, NodeId node);

/**
 * Builds the topological-prefix subgraph keeping every graph input and
 * the first @p compute_nodes non-input operators of the topo order —
 * the cheap workload proxy the budgeted search engine prices halving
 * rungs with (see search/halving.h and
 * CompileRequest::workload_prefix_nodes).
 *
 * The prefix is always extended through the first CIM-mappable
 * operator so the result stays schedulable, and is clamped to the
 * whole graph when @p compute_nodes covers it. Kept tensors whose
 * consumers were all cut (and the original outputs that survive)
 * become the prefix's outputs. Installed weights of kept nodes are
 * carried over. The prefix graph's name carries a "#prefixN" marker so
 * it can never be mistaken for the full workload in caches or reports.
 *
 * Fails when @p compute_nodes < 1 or the graph has no CIM-mappable
 * operator at all.
 */
StatusOr<Graph> topoPrefix(const Graph &graph,
                           std::int64_t compute_nodes);

} // namespace cimmlc

#endif // CIMMLC_GRAPH_ANALYSIS_H

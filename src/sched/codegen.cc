#include "sched/codegen.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/mathutil.h"
#include "common/strutil.h"
#include "graph/analysis.h"

namespace cimmlc {

namespace {

/** Extracts the [R x C] crossbar-layout weight matrix of a CIM node. */
Int8Tensor
weightMatrixOf(const Graph &graph, const Node &node)
{
    const Int8Tensor &w = graph.weight(node.id);
    if (node.kind == OpKind::kConv2d) {
        const std::int64_t O = w.shape().dim(0);
        const std::int64_t K =
            w.shape().dim(1) * w.shape().dim(2) * w.shape().dim(3);
        Int8Tensor matrix(TensorShape({K, O}));
        for (std::int64_t o = 0; o < O; ++o) {
            for (std::int64_t k = 0; k < K; ++k)
                matrix.at2(k, o) = w[o * K + k];
        }
        return matrix;
    }
    // linear: weight [O, F] -> matrix [F, O]
    const std::int64_t O = w.shape().dim(0);
    const std::int64_t F = w.shape().dim(1);
    Int8Tensor matrix(TensorShape({F, O}));
    for (std::int64_t o = 0; o < O; ++o) {
        for (std::int64_t f = 0; f < F; ++f)
            matrix.at2(f, o) = w.at2(o, f);
    }
    return matrix;
}

/** Copies a sub-rectangle of @p matrix. */
Int8Tensor
sliceMatrix(const Int8Tensor &matrix, std::int64_t r0, std::int64_t r1,
            std::int64_t c0, std::int64_t c1)
{
    Int8Tensor out(TensorShape({r1 - r0, c1 - c0}));
    for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = c0; c < c1; ++c)
            out.at2(r - r0, c - c0) = matrix.at2(r, c);
    }
    return out;
}

/** Crossbar placement of one weight tile replica. */
struct XbSlot {
    std::int64_t core = 0;
    std::int64_t xb = 0;
};

/**
 * Emits meta-operator flows for one schedule. All offsets are int32
 * elements; activations occupy one element each (the executable model
 * stores int8 values in int32 slots, see DESIGN.md).
 */
class Emitter
{
  public:
    Emitter(const Graph &graph, const CimArchitecture &arch,
            const Schedule &schedule, const CodegenOptions &options)
        : graph_(graph), arch_(arch), schedule_(schedule),
          options_(options),
          program_(graph.name(), computeModeName(arch.mode))
    {
    }

    StatusOr<CodegenResult> run();

  private:
    Status layoutMemory();
    Status emitNode(const Node &node);
    Status emitCoreMode(const Node &node, const OperatorMapping &mapping);
    Status emitCrossbarMode(const Node &node,
                            const OperatorMapping &mapping);
    void emitDigital(const Node &node);

    RequantParams
    shiftFor(NodeId node) const
    {
        auto it = options_.shifts.find(node);
        if (it != options_.shifts.end())
            return it->second;
        return RequantParams{8};
    }

    std::int64_t
    offsetOf(TensorId tensor) const
    {
        return tensor_offsets_.at(tensor);
    }

    /** Effective replica count the allocated crossbars can hold. */
    std::int64_t
    effectiveReplicas(const OperatorMapping &mapping) const
    {
        const std::int64_t spread = mapping.vvm_spread;
        const std::int64_t slots_per_replica =
            mapping.grid.vxbCount() * spread;
        const std::int64_t capacity = mapping.duplication *
                                      mapping.cores_per_replica *
                                      arch_.core.xbNumber();
        const std::int64_t fit =
            slots_per_replica > 0 ? capacity / slots_per_replica : 1;
        return clampInt(std::min(mapping.mvm_duplication, fit), 1,
                        std::max<std::int64_t>(mapping.windows, 1));
    }

    const Graph &graph_;
    const CimArchitecture &arch_;
    const Schedule &schedule_;
    const CodegenOptions &options_;

    MopProgram program_;
    std::map<TensorId, std::int64_t> tensor_offsets_;
    std::int64_t l0_top_ = 0;
    std::int64_t patch_base_ = 0; //!< L0 im2col patch scratch
    std::int64_t acc_base_ = 0;   //!< L0 int32 accumulator scratch
    std::int64_t quant_base_ = 0; //!< L0 post-requant staging
    std::int64_t l1_elements_ = 0;
};

Status
Emitter::layoutMemory()
{
    // Tensor regions in topo order; shape-only nodes alias their input.
    for (NodeId id : graph_.topoOrder()) {
        const Node &node = graph_.node(id);
        if (node.output == kInvalidTensor)
            continue;
        if (node.kind == OpKind::kFlatten ||
            node.kind == OpKind::kReshape ||
            node.kind == OpKind::kIdentity) {
            tensor_offsets_[node.output] =
                tensor_offsets_.at(node.inputs[0]);
            continue;
        }
        tensor_offsets_[node.output] = l0_top_;
        l0_top_ += graph_.tensor(node.output).numel();
    }

    // Scratch: im2col patch, int32 accumulators, requant staging.
    std::int64_t max_rows = 1;
    std::int64_t max_cols = 1;
    std::int64_t max_out = 1;
    for (const OperatorMapping &mapping : schedule_.ops) {
        if (!mapping.is_cim)
            continue;
        const auto matrix = weightMatrixShape(graph_, mapping.node);
        max_rows = std::max(max_rows, matrix->rows);
        max_cols = std::max(max_cols, matrix->cols);
        max_out = std::max(
            max_out, graph_.tensor(graph_.node(mapping.node).output)
                         .numel());
    }
    patch_base_ = l0_top_;
    l0_top_ += max_rows;
    acc_base_ = l0_top_;
    l0_top_ += std::max(max_cols, max_out); // CM accumulates full outputs
    quant_base_ = l0_top_;
    l0_top_ += max_cols;

    // L1 layout per core: one patch slice slot per crossbar.
    l1_elements_ = arch_.core.xbNumber() * arch_.xbar.rows;
    return Status::ok();
}

StatusOr<CodegenResult>
Emitter::run()
{
    CIMMLC_RETURN_IF_ERROR(layoutMemory());
    CIMMLC_RETURN_IF_ERROR(
        checkUnrolledOpBudget(graph_, arch_, schedule_, options_));

    for (NodeId id : graph_.topoOrder()) {
        const Node &node = graph_.node(id);
        if (node.kind == OpKind::kInput || isShapeOnly(node.kind))
            continue;
        CIMMLC_RETURN_IF_ERROR(emitNode(node));
    }

    CodegenResult result;
    result.program = std::move(program_);
    result.tensor_offsets = std::move(tensor_offsets_);
    result.l0_elements = l0_top_;
    result.l1_elements = l1_elements_;
    result.executable = options_.unroll;
    return result;
}

Status
Emitter::emitNode(const Node &node)
{
    if (!schedule_.hasMapping(node.id)) {
        return internalError("no mapping for node '" + node.name + "'");
    }
    const OperatorMapping &mapping = schedule_.mapping(node.id);
    if (mapping.is_cim) {
        if (options_.unroll && !graph_.hasWeight(node.id)) {
            return failedPrecondition(
                "node '" + node.name +
                "' has no weights; install them before unrolled codegen");
        }
        if (arch_.mode == ComputeMode::kCM)
            return emitCoreMode(node, mapping);
        return emitCrossbarMode(node, mapping);
    }
    emitDigital(node);
    return Status::ok();
}

Status
Emitter::emitCoreMode(const Node &node, const OperatorMapping &mapping)
{
    const TensorId in = node.inputs[0];
    const TensorId out = node.output;
    const auto &in_dims = graph_.tensor(in).dims;
    const auto &out_dims = graph_.tensor(out).dims;

    CoreOpParams params;
    params.is_conv = node.kind == OpKind::kConv2d;
    std::int64_t total_windows = 0;
    if (params.is_conv) {
        const auto &attrs = node.conv();
        params.in_channels = in_dims[1];
        params.in_h = in_dims[2];
        params.in_w = in_dims[3];
        params.out_channels = attrs.out_channels;
        params.kernel = attrs.kernel_h;
        params.stride = attrs.stride;
        params.padding = attrs.padding;
        total_windows = out_dims[2]; // split on output rows
    } else {
        params.in_features = in_dims.back();
        params.out_features = node.linear().out_features;
        total_windows = 1;
        for (std::size_t i = 0; i + 1 < in_dims.size(); ++i)
            total_windows *= in_dims[i];
    }

    const std::int64_t replicas =
        std::min<std::int64_t>(mapping.duplication, total_windows);

    // init: program each replica's core group.
    std::shared_ptr<const Int8Tensor> payload;
    if (options_.unroll) {
        payload =
            std::make_shared<Int8Tensor>(graph_.weight(node.id));
    }
    // Segment 0 and dual-mode resident segments program at init time;
    // other later segments reprogram inline — they time-multiplex the
    // same cores (the reload of Figure 9(b)). Resident segments own
    // their cores exclusively, so their one-time init write is safe.
    StmtBuilder &install = (mapping.segment == 0 || mapping.resident)
                               ? program_.initBuilder()
                               : program_.computeBuilder();
    for (std::int64_t rep = 0; rep < replicas; ++rep) {
        MetaOp &op = install.appendOp(MetaOpKind::kWriteCore);
        op.core = mapping.core_base + rep * mapping.cores_per_replica;
        op.mutableCoreParams() = params;
        op.payload = payload;
        op.origin = node.id;
    }

    // compute: replicas split the window space, then requant.
    const std::int64_t chunk = ceilDiv(total_windows, replicas);
    StmtBuilder block;
    for (std::int64_t rep = 0; rep < replicas; ++rep) {
        const std::int64_t w0 = rep * chunk;
        const std::int64_t w1 = std::min(total_windows, w0 + chunk);
        if (w0 >= w1)
            break;
        MetaOp &op = block.appendOp(MetaOpKind::kReadCore);
        op.core = mapping.core_base + rep * mapping.cores_per_replica;
        CoreOpParams &window = op.mutableCoreParams();
        window = params;
        window.win_begin = w0;
        window.win_end = w1;
        op.src = {MemSpace::kL0, 0, offsetOf(in)};
        op.dst = {MemSpace::kL0, 0, acc_base_};
        op.origin = node.id;
    }
    program_.computeBuilder().appendParallel(std::move(block));

    MetaOp &requant =
        program_.computeBuilder().appendOp(MetaOpKind::kDcom);
    requant.func = dcomfunc::kRequant;
    requant.src = {MemSpace::kL0, 0, acc_base_};
    requant.dst = {MemSpace::kL0, 0, offsetOf(out)};
    requant.len = graph_.tensor(out).numel();
    requant.mutableDcomParams().shift = shiftFor(node.id).shift;
    requant.origin = node.id;
    return Status::ok();
}

Status
Emitter::emitCrossbarMode(const Node &node, const OperatorMapping &mapping)
{
    const bool wlm = arch_.mode == ComputeMode::kWLM;
    const TensorId in = node.inputs[0];
    const TensorId out = node.output;
    const auto &in_dims = graph_.tensor(in).dims;
    const auto &out_dims = graph_.tensor(out).dims;
    const auto matrix_shape = weightMatrixShape(graph_, node.id);
    const std::int64_t R = matrix_shape->rows;
    const std::int64_t C = matrix_shape->cols;
    const VxbGrid &grid = mapping.grid;
    const std::int64_t spread = wlm ? mapping.vvm_spread : 1;
    const std::int64_t parallel_row = arch_.xbar.parallel_row;
    const std::int64_t tiles = grid.vxbCount();

    // Crossbar slots this operator's allocation provides. When the
    // operator exceeds them (chip_splits > 1), tiles are processed in
    // serial chunks with inline reprogramming between them.
    const std::int64_t capacity =
        std::max<std::int64_t>(1, mapping.duplication *
                                      mapping.cores_per_replica *
                                      arch_.core.xbNumber());
    const bool chunked = tiles * spread > capacity;
    const std::int64_t chunk_tiles =
        chunked ? std::max<std::int64_t>(1, capacity / spread) : tiles;
    const std::int64_t replicas = chunked ? 1 : effectiveReplicas(mapping);

    Int8Tensor matrix;
    if (options_.unroll)
        matrix = weightMatrixOf(graph_, node);

    // Geometry of tile t (row-major over the VxbGrid).
    auto tile_geometry = [&](std::int64_t tile, std::int64_t *r0,
                             std::int64_t *r1, std::int64_t *c0,
                             std::int64_t *c1) {
        const std::int64_t tr = tile / grid.tiles_c;
        const std::int64_t tc = tile % grid.tiles_c;
        *r0 = tr * grid.rows_per_tile;
        *r1 = std::min(R, *r0 + grid.rows_per_tile);
        *c0 = tc * grid.logical_cols_per_tile;
        *c1 = std::min(C, *c0 + grid.logical_cols_per_tile);
    };
    // Placement of (replica, chunk-local tile, spread lane).
    auto slot_of = [&](std::int64_t rep, std::int64_t local_tile,
                       std::int64_t lane) {
        const std::int64_t per_replica = chunk_tiles * spread;
        const std::int64_t slot =
            rep * per_replica + local_tile * spread + lane;
        XbSlot out_slot;
        out_slot.core =
            mapping.core_base + slot / arch_.core.xbNumber();
        out_slot.xb = slot % arch_.core.xbNumber();
        return out_slot;
    };

    // Emits the programming ops for tiles [t0, t1) of one replica.
    auto emit_writes = [&](std::int64_t rep, std::int64_t t0,
                           std::int64_t t1, StmtBuilder &target) {
        for (std::int64_t tile = t0; tile < t1; ++tile) {
            std::int64_t r0, r1, c0, c1;
            tile_geometry(tile, &r0, &r1, &c0, &c1);
            const std::int64_t local = tile - t0;
            if (!wlm || spread == 1) {
                const XbSlot slot = slot_of(rep, local, 0);
                MetaOp &op = target.appendOp(
                    wlm ? MetaOpKind::kWriteRow : MetaOpKind::kWriteXb);
                op.core = slot.core;
                op.xb = slot.xb;
                op.row = 0;
                op.len = r1 - r0;
                if (options_.unroll) {
                    op.payload = std::make_shared<Int8Tensor>(
                        sliceMatrix(matrix, r0, r1, c0, c1));
                }
                op.origin = node.id;
                continue;
            }
            // WLM remap: row group g of this tile goes to spread lane
            // g % spread at local row (g / spread) * parallel_row.
            const std::int64_t groups = ceilDiv(r1 - r0, parallel_row);
            for (std::int64_t g = 0; g < groups; ++g) {
                const std::int64_t lane = g % spread;
                const std::int64_t local_row =
                    (g / spread) * parallel_row;
                const std::int64_t gr0 = r0 + g * parallel_row;
                const std::int64_t gr1 = std::min(r1, gr0 + parallel_row);
                const XbSlot slot = slot_of(rep, local, lane);
                MetaOp &op = target.appendOp(MetaOpKind::kWriteRow);
                op.core = slot.core;
                op.xb = slot.xb;
                op.row = local_row;
                op.len = gr1 - gr0;
                if (options_.unroll) {
                    op.payload = std::make_shared<Int8Tensor>(
                        sliceMatrix(matrix, gr0, gr1, c0, c1));
                }
                op.origin = node.id;
            }
        }
    };

    // Statement counts from the loop bounds, so the large per-window and
    // per-chunk vectors are sized once instead of growing by doubling.
    auto row_groups = [&](std::int64_t tile) {
        std::int64_t r0, r1, c0, c1;
        tile_geometry(tile, &r0, &r1, &c0, &c1);
        return ceilDiv(r1 - r0, parallel_row);
    };
    auto writes_in = [&](std::int64_t t0, std::int64_t t1) {
        std::int64_t n = 0;
        for (std::int64_t tile = t0; tile < t1; ++tile)
            n += (!wlm || spread == 1) ? 1 : row_groups(tile);
        return n;
    };
    auto reads_in = [&](std::int64_t t0, std::int64_t t1) {
        std::int64_t n = 0;
        for (std::int64_t tile = t0; tile < t1; ++tile)
            n += wlm ? row_groups(tile) : 1;
        return n;
    };

    // ----- init: program resident tiles (single-chunk operators) --------
    if (!chunked) {
        // Segment 0 and dual-mode resident segments program at init
        // time; other later segments reprogram inline — they
        // time-multiplex the same cores (the reload of Figure 9(b)).
        StmtBuilder &section = (mapping.segment == 0 || mapping.resident)
                                   ? program_.initBuilder()
                                   : program_.computeBuilder();
        for (std::int64_t rep = 0; rep < replicas; ++rep)
            emit_writes(rep, 0, tiles, section);
    }

    // ----- compute -------------------------------------------------------
    std::int64_t total_windows = 0;
    std::int64_t OH = 0, OW = 0, H = 0, W = 0, KH = 0, KW = 0;
    std::int64_t Cin = 0, stride = 1, padding = 0;
    if (node.kind == OpKind::kConv2d) {
        const auto &attrs = node.conv();
        Cin = in_dims[1];
        H = in_dims[2];
        W = in_dims[3];
        KH = attrs.kernel_h;
        KW = attrs.kernel_w;
        stride = attrs.stride;
        padding = attrs.padding;
        OH = out_dims[2];
        OW = out_dims[3];
        total_windows = OH * OW;
    } else {
        total_windows = 1;
        for (std::size_t i = 0; i + 1 < in_dims.size(); ++i)
            total_windows *= in_dims[i];
    }

    const std::int64_t emit_windows = options_.unroll ? total_windows : 1;
    const RequantParams shift = shiftFor(node.id);

    // One window's statements: the gather (at most a zero plus Cin * KH
    // movs), the accumulator zero, each chunk's programming, feeds and
    // read block, then requant and scatter.
    std::int64_t window_stmts = 1 + Cin * KH + 1 + 2;
    for (std::int64_t t0 = 0; t0 < tiles; t0 += chunk_tiles) {
        const std::int64_t t1 = std::min(tiles, t0 + chunk_tiles);
        window_stmts +=
            (chunked ? writes_in(t0, t1) : 0) + (t1 - t0) * spread + 1;
    }

    StmtBuilder window_block_template;
    for (std::int64_t w = 0; w < emit_windows; ++w) {
        StmtBuilder block;
        block.reserve(static_cast<std::size_t>(window_stmts));
        const std::int64_t rep = w % replicas;

        // 1. Gather the input vector for this window into L0 patch
        //    scratch (im2col row), or address the input row directly for
        //    linear layers.
        std::int64_t patch_off = patch_base_;
        if (node.kind == OpKind::kConv2d) {
            const std::int64_t oh = w / OW;
            const std::int64_t ow = w % OW;
            const std::int64_t ih0 = oh * stride - padding;
            const std::int64_t iw0 = ow * stride - padding;
            const bool clipped = ih0 < 0 || iw0 < 0 || ih0 + KH > H ||
                                 iw0 + KW > W;
            if (clipped) {
                MetaOp &zero = block.appendOp(MetaOpKind::kDcom);
                zero.func = dcomfunc::kZero;
                zero.dst = {MemSpace::kL0, 0, patch_base_};
                zero.len = R;
                zero.origin = node.id;
                for (std::int64_t c = 0; c < Cin; ++c) {
                    for (std::int64_t kh = 0; kh < KH; ++kh) {
                        const std::int64_t ih = ih0 + kh;
                        if (ih < 0 || ih >= H)
                            continue;
                        const std::int64_t kw_lo =
                            std::max<std::int64_t>(0, -iw0);
                        const std::int64_t kw_hi = std::min(KW, W - iw0);
                        if (kw_lo >= kw_hi)
                            continue;
                        MetaOp &mov = block.appendOp(MetaOpKind::kMov);
                        mov.src = {MemSpace::kL0, 0,
                                   offsetOf(in) + (c * H + ih) * W + iw0 +
                                       kw_lo};
                        mov.dst = {MemSpace::kL0, 0,
                                   patch_base_ + (c * KH + kh) * KW +
                                       kw_lo};
                        mov.len = kw_hi - kw_lo;
                        mov.origin = node.id;
                    }
                }
            } else {
                // Interior window: one strided mov per channel.
                for (std::int64_t c = 0; c < Cin; ++c) {
                    MetaOp &mov = block.appendOp(MetaOpKind::kMov);
                    mov.src = {MemSpace::kL0, 0,
                               offsetOf(in) + (c * H + ih0) * W + iw0};
                    mov.dst = {MemSpace::kL0, 0, patch_base_ + c * KH * KW};
                    mov.len = KW;
                    mov.count = KH;
                    mov.src_stride = W;
                    mov.dst_stride = KW;
                    mov.origin = node.id;
                }
            }
        } else {
            patch_off = offsetOf(in) + w * R;
        }

        // 2. Zero the output accumulator columns.
        MetaOp &zero_acc = block.appendOp(MetaOpKind::kDcom);
        zero_acc.func = dcomfunc::kZero;
        zero_acc.dst = {MemSpace::kL0, 0, acc_base_};
        zero_acc.len = C;
        zero_acc.origin = node.id;

        // 3. Chunk loop: program (when chunked), feed the cores' L1
        //    buffers, and activate — Figure 16(d)/(e): mov to L1 then
        //    parallel CIM reads.
        for (std::int64_t t0 = 0; t0 < tiles; t0 += chunk_tiles) {
            const std::int64_t t1 = std::min(tiles, t0 + chunk_tiles);
            if (chunked)
                emit_writes(rep, t0, t1, block);
            StmtBuilder reads;
            reads.reserve(static_cast<std::size_t>(reads_in(t0, t1)));
            for (std::int64_t tile = t0; tile < t1; ++tile) {
                std::int64_t r0, r1, c0, c1;
                tile_geometry(tile, &r0, &r1, &c0, &c1);
                const std::int64_t local = tile - t0;
                for (std::int64_t lane = 0; lane < spread; ++lane) {
                    const XbSlot slot = slot_of(rep, local, lane);
                    const std::int64_t l1_off = slot.xb * arch_.xbar.rows;
                    MetaOp &feed = block.appendOp(MetaOpKind::kMov);
                    feed.src = {MemSpace::kL0, 0, patch_off + r0};
                    feed.dst = {MemSpace::kL1, slot.core, l1_off};
                    feed.len = r1 - r0;
                    feed.origin = node.id;

                    if (!wlm) {
                        MetaOp &read = reads.appendOp(MetaOpKind::kReadXb);
                        read.core = slot.core;
                        read.xb = slot.xb;
                        read.len = 1;
                        read.rows = r1 - r0;
                        read.cols = c1 - c0;
                        read.src = {MemSpace::kL1, slot.core, l1_off};
                        read.dst = {MemSpace::kL0, 0, acc_base_ + c0};
                        read.origin = node.id;
                        break; // spread == 1 in XBM
                    }
                    // WLM: one readrow per row group on this lane.
                    const std::int64_t groups =
                        ceilDiv(r1 - r0, parallel_row);
                    for (std::int64_t g = lane; g < groups; g += spread) {
                        const std::int64_t local_row =
                            (g / spread) * parallel_row;
                        const std::int64_t gr0 = g * parallel_row;
                        const std::int64_t gr1 =
                            std::min(r1 - r0, gr0 + parallel_row);
                        MetaOp &read =
                            reads.appendOp(MetaOpKind::kReadRow);
                        read.core = slot.core;
                        read.xb = slot.xb;
                        read.row = local_row;
                        read.len = gr1 - gr0;
                        read.cols = c1 - c0;
                        read.src = {MemSpace::kL1, slot.core,
                                    l1_off + gr0};
                        read.dst = {MemSpace::kL0, 0, acc_base_ + c0};
                        read.origin = node.id;
                    }
                }
            }
            block.appendParallel(std::move(reads));
        }

        // 4. Requantize and scatter into the output tensor layout.
        MetaOp &requant = block.appendOp(MetaOpKind::kDcom);
        requant.func = dcomfunc::kRequant;
        requant.src = {MemSpace::kL0, 0, acc_base_};
        requant.dst = {MemSpace::kL0, 0, quant_base_};
        requant.len = C;
        requant.mutableDcomParams().shift = shift.shift;
        requant.origin = node.id;

        MetaOp &scatter = block.appendOp(MetaOpKind::kMov);
        scatter.src = {MemSpace::kL0, 0, quant_base_};
        if (node.kind == OpKind::kConv2d) {
            // Output element (c, oh, ow): stride OH*OW between channels.
            scatter.dst = {MemSpace::kL0, 0, offsetOf(out) + w};
            scatter.len = 1;
            scatter.count = C;
            scatter.src_stride = 1;
            scatter.dst_stride = OH * OW;
        } else {
            scatter.dst = {MemSpace::kL0, 0, offsetOf(out) + w * C};
            scatter.len = C;
        }
        scatter.origin = node.id;

        if (options_.unroll) {
            program_.computeBuilder().appendRepeat(1, std::move(block));
        } else {
            window_block_template = std::move(block);
        }
    }

    if (!options_.unroll) {
        program_.computeBuilder().appendRepeat(
            total_windows, std::move(window_block_template));
    }
    return Status::ok();
}

void
Emitter::emitDigital(const Node &node)
{
    const TensorId out = node.output;
    auto in_addr = [&](std::size_t i) {
        return BufAddr{MemSpace::kL0, 0, offsetOf(node.inputs[i])};
    };
    const BufAddr out_addr{MemSpace::kL0, 0, offsetOf(out)};
    const bool on_host = schedule_.hasMapping(node.id) &&
                         schedule_.mapping(node.id).on_host;

    MetaOp op;
    op.kind = MetaOpKind::kDcom;
    op.host = on_host;
    op.origin = node.id;
    op.dst = out_addr;
    op.len = graph_.tensor(node.inputs.empty() ? out : node.inputs[0])
                 .numel();

    switch (node.kind) {
      case OpKind::kRelu:
        op.func = dcomfunc::kRelu;
        op.src = in_addr(0);
        break;
      case OpKind::kGelu:
        op.func = dcomfunc::kGelu;
        op.src = in_addr(0);
        break;
      case OpKind::kSoftmax:
      case OpKind::kLayerNorm: {
        op.func = node.kind == OpKind::kSoftmax ? dcomfunc::kSoftmax
                                                : dcomfunc::kLayerNorm;
        op.src = in_addr(0);
        const auto &dims = graph_.tensor(node.inputs[0]).dims;
        op.mutableDcomParams().in_w = dims.back();
        break;
      }
      case OpKind::kAdd:
        op.func = dcomfunc::kAdd;
        op.src = in_addr(0);
        op.mutableSrc2() = in_addr(1);
        break;
      case OpKind::kMaxPool2d:
      case OpKind::kAvgPool2d: {
        op.func = node.kind == OpKind::kMaxPool2d ? dcomfunc::kMaxPool
                                                  : dcomfunc::kAvgPool;
        op.src = in_addr(0);
        const auto &attrs = node.pool();
        const auto &dims = graph_.tensor(node.inputs[0]).dims;
        DcomParams &p = op.mutableDcomParams();
        p.kernel = attrs.kernel;
        p.stride = attrs.stride;
        p.padding = attrs.padding;
        p.channels = dims[1];
        p.in_h = dims[2];
        p.in_w = dims[3];
        break;
      }
      case OpKind::kGlobalAvgPool: {
        op.func = dcomfunc::kGlobalAvgPool;
        op.src = in_addr(0);
        const auto &dims = graph_.tensor(node.inputs[0]).dims;
        DcomParams &p = op.mutableDcomParams();
        p.channels = dims[1];
        p.in_h = dims[2];
        p.in_w = dims[3];
        break;
      }
      case OpKind::kMatMul: {
        op.func = dcomfunc::kMatMul;
        op.src = in_addr(0);
        op.mutableSrc2() = in_addr(1);
        const auto &lhs = graph_.tensor(node.inputs[0]).dims;
        const auto &out_dims = graph_.tensor(out).dims;
        DcomParams &p = op.mutableDcomParams();
        p.in_h = lhs[lhs.size() - 2]; // M
        p.in_w = lhs.back();          // K
        p.channels = out_dims.back(); // N
        p.kernel = node.matmul().transpose_rhs ? 1 : 0;
        p.shift = shiftFor(node.id).shift;
        break;
      }
      case OpKind::kConcat: {
        // Channel-wise concatenation: one mov per input.
        std::int64_t channel_base = 0;
        for (std::size_t i = 0; i < node.inputs.size(); ++i) {
            const std::int64_t piece = graph_.tensor(node.inputs[i])
                                           .numel();
            MetaOp &mov =
                program_.computeBuilder().appendOp(MetaOpKind::kMov);
            mov.host = on_host;
            mov.src = in_addr(i);
            mov.dst = {MemSpace::kL0, 0,
                       offsetOf(out) + channel_base};
            mov.len = piece;
            mov.origin = node.id;
            channel_base += piece;
        }
        return;
      }
      default:
        return; // shape-only handled by layout aliasing
    }
    program_.emit(std::move(op));
}

} // namespace

Status
checkUnrolledOpBudget(const Graph &graph, const CimArchitecture &arch,
                      const Schedule &schedule,
                      const CodegenOptions &options)
{
    if (!options.unroll || options.max_ops <= 0)
        return Status::ok();
    double estimate = 0.0;
    for (const OperatorMapping &mapping : schedule.ops) {
        const Node &node = graph.node(mapping.node);
        if (!mapping.is_cim) {
            estimate += 4.0;
            continue;
        }
        if (arch.mode == ComputeMode::kCM) {
            estimate += static_cast<double>(mapping.mvm_duplication) + 4.0;
            continue;
        }
        const std::int64_t gathers =
            node.kind == OpKind::kConv2d
                ? graph.tensor(node.inputs[0]).dims[1] + 2
                : 1;
        const std::int64_t reads = mapping.grid.vxbCount() *
                                   mapping.vvm_spread *
                                   (arch.mode == ComputeMode::kWLM
                                        ? arch.rowGroupsPerActivation()
                                        : 1);
        estimate += static_cast<double>(mapping.windows) *
                    static_cast<double>(gathers + 2 * reads + 5);
    }
    if (estimate > static_cast<double>(options.max_ops)) {
        return resourceExhausted(strformat(
            "unrolled flow would need ~%.3g ops (limit %lld); use "
            "compressed emission for this network",
            estimate, static_cast<long long>(options.max_ops)));
    }
    return Status::ok();
}

StatusOr<CodegenResult>
generateProgram(const Graph &graph, const CimArchitecture &arch,
                const Schedule &schedule, const CodegenOptions &options)
{
    if (schedule.options.binding.bit_binding != XbarDim::kXBC) {
        return unimplemented(
            "code generation currently supports only the default "
            "bits-to-columns binding; bit-plane (B->XB) schedules are "
            "for mapping/latency exploration");
    }
    Emitter emitter(graph, arch, schedule, options);
    return emitter.run();
}

} // namespace cimmlc

#include "funcsim/simulator.h"

#include <algorithm>

#include "common/logging.h"
#include "common/mathutil.h"
#include "common/strutil.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"

namespace cimmlc {

namespace {

/** Scale shared with the reference executor's float DCOM path. */
constexpr float kFloatScale = 1.0f / 16.0f;

/** Extracts `len` int8 values from an int32 buffer region. */
Int8Tensor
regionToInt8(const std::int32_t *src, TensorShape shape)
{
    Int8Tensor out(std::move(shape));
    for (std::int64_t i = 0; i < out.numel(); ++i) {
        out[i] = static_cast<std::int8_t>(
            clampInt(src[i], -128, 127));
    }
    return out;
}

void
int8ToRegion(const Int8Tensor &value, std::int32_t *dst)
{
    for (std::int64_t i = 0; i < value.numel(); ++i)
        dst[i] = value[i];
}

} // namespace

FunctionalSimulator::FunctionalSimulator(const CimArchitecture &arch,
                                         const CodegenResult &code)
    : arch_(arch), code_(code)
{
    l0_.assign(static_cast<std::size_t>(std::max<std::int64_t>(
                   code.l0_elements, 1)),
               0);
    // Banks and crossbars start as empty slots: each is allocated by
    // the first op that writes it, so the state costs what the flow
    // writes rather than what the chip has.
    l1_.resize(static_cast<std::size_t>(arch.chip.coreNumber()));
    zero_bank_.assign(static_cast<std::size_t>(std::max<std::int64_t>(
                          code.l1_elements, 1)),
                      0);
    xb_logical_cols_ = arch.logicalColsPerCrossbar();
    xbars_.resize(static_cast<std::size_t>(arch.totalCrossbars()));
}

Status
FunctionalSimulator::loadInput(const Graph &graph, TensorId tensor,
                               const Int8Tensor &value)
{
    auto it = code_.tensor_offsets.find(tensor);
    if (it == code_.tensor_offsets.end())
        return notFound(strformat("tensor %d has no L0 region", tensor));
    const std::int64_t expected = graph.tensor(tensor).numel();
    if (value.numel() != expected) {
        return invalidArgument(strformat(
            "input %d element count mismatch: got %lld want %lld", tensor,
            static_cast<long long>(value.numel()),
            static_cast<long long>(expected)));
    }
    for (std::int64_t i = 0; i < value.numel(); ++i)
        l0_[static_cast<std::size_t>(it->second + i)] = value[i];
    return Status::ok();
}

Status
FunctionalSimulator::run()
{
    if (!code_.executable) {
        return failedPrecondition(
            "program was emitted compressed; re-generate with unroll");
    }
    CIMMLC_RETURN_IF_ERROR(execStmts(code_.program.init()));
    CIMMLC_RETURN_IF_ERROR(execStmts(code_.program.compute()));
    return Status::ok();
}

StatusOr<Int8Tensor>
FunctionalSimulator::readTensor(const Graph &graph, TensorId tensor) const
{
    auto it = code_.tensor_offsets.find(tensor);
    if (it == code_.tensor_offsets.end())
        return notFound(strformat("tensor %d has no L0 region", tensor));
    const ValueInfo &info = graph.tensor(tensor);
    const std::int64_t count = info.numel();
    if (it->second + count > static_cast<std::int64_t>(l0_.size()))
        return outOfRange("tensor region exceeds L0");
    return regionToInt8(l0_.data() + it->second, TensorShape(info.dims));
}

std::int32_t
FunctionalSimulator::l0At(std::int64_t offset) const
{
    CIMMLC_CHECK(offset >= 0 &&
                 offset < static_cast<std::int64_t>(l0_.size()));
    return l0_[static_cast<std::size_t>(offset)];
}

Status
FunctionalSimulator::execStmts(const std::vector<Stmt> &stmts)
{
    for (const Stmt &stmt : stmts) {
        switch (stmt.kind) {
          case Stmt::Kind::kOp:
            CIMMLC_RETURN_IF_ERROR(execOp(stmt.op));
            break;
          case Stmt::Kind::kParallel:
            // Parallel ops accumulate commutatively; sequential
            // execution yields the same result.
            CIMMLC_RETURN_IF_ERROR(execStmts(stmt.body));
            break;
          case Stmt::Kind::kRepeat:
            for (std::int64_t i = 0; i < stmt.repeat; ++i)
                CIMMLC_RETURN_IF_ERROR(execStmts(stmt.body));
            break;
        }
    }
    return Status::ok();
}

StatusOr<std::int32_t *>
FunctionalSimulator::bufPtr(const BufAddr &addr, std::int64_t extent)
{
    CIMMLC_RETURN_IF_ERROR(bufPtrConst(addr, extent).status());
    if (addr.space == MemSpace::kL0)
        return l0_.data() + addr.offset;
    return writableBank(addr.core).data() + addr.offset;
}

StatusOr<const std::int32_t *>
FunctionalSimulator::bufPtrConst(const BufAddr &addr,
                                 std::int64_t extent) const
{
    if (addr.offset < 0 || extent < 0)
        return outOfRange("negative buffer address");
    if (addr.space == MemSpace::kL0) {
        if (addr.offset + extent > static_cast<std::int64_t>(l0_.size()))
            return outOfRange(strformat(
                "L0 access [%lld, %lld) exceeds %zu",
                static_cast<long long>(addr.offset),
                static_cast<long long>(addr.offset + extent),
                l0_.size()));
        return l0_.data() + addr.offset;
    }
    if (addr.core < 0 ||
        addr.core >= static_cast<std::int64_t>(l1_.size()))
        return outOfRange("L1 core out of range");
    if (addr.offset + extent > static_cast<std::int64_t>(zero_bank_.size()))
        return outOfRange("L1 access exceeds bank");
    const auto &bank = l1_[static_cast<std::size_t>(addr.core)];
    return (bank.empty() ? zero_bank_ : bank).data() + addr.offset;
}

std::vector<std::int32_t> &
FunctionalSimulator::writableBank(std::int64_t core)
{
    auto &bank = l1_[static_cast<std::size_t>(core)];
    if (bank.empty())
        bank.assign(zero_bank_.size(), 0);
    return bank;
}

Status
FunctionalSimulator::execOp(const MetaOp &op)
{
    ++stats_.ops_executed;
    // Allocate the destination bank before any operand resolves, so an
    // operand that overlaps it reads the op's own writes, exactly as
    // when every bank was allocated up front.
    if (op.dst.space == MemSpace::kL1 && op.dst.core >= 0 &&
        op.dst.core < static_cast<std::int64_t>(l1_.size()))
        writableBank(op.dst.core);
    switch (op.kind) {
      case MetaOpKind::kWriteCore: {
        if (!op.payload)
            return failedPrecondition("writecore without payload");
        CoreState &state = cores_[op.core];
        state.params = op.coreParams();
        state.weights = *op.payload;
        state.valid = true;
        ++stats_.cim_writes;
        return Status::ok();
      }
      case MetaOpKind::kReadCore:
        ++stats_.cim_reads;
        return execReadCore(op);
      case MetaOpKind::kWriteXb:
      case MetaOpKind::kWriteRow: {
        if (!op.payload)
            return failedPrecondition("crossbar write without payload");
        const std::int64_t index =
            op.core * arch_.core.xbNumber() + op.xb;
        if (index < 0 ||
            index >= static_cast<std::int64_t>(xbars_.size()))
            return outOfRange("crossbar index out of range");
        const Int8Tensor &payload = *op.payload;
        const std::int64_t prows = payload.shape().dim(0);
        const std::int64_t pcols = payload.shape().rank() > 1
                                       ? payload.shape().dim(1) : 1;
        const std::int64_t row_base =
            op.kind == MetaOpKind::kWriteRow ? op.row : 0;
        if (row_base < 0 || prows > arch_.xbar.rows - row_base ||
            pcols > xb_logical_cols_)
            return outOfRange("crossbar write payload exceeds array");
        // An array stores rows [0, highest row written]; a write above
        // them appends zeroed rows.
        auto &cells = xbars_[static_cast<std::size_t>(index)];
        const auto stored =
            static_cast<std::size_t>((row_base + prows) * xb_logical_cols_);
        if (cells.size() < stored)
            cells.resize(stored, 0);
        for (std::int64_t r = 0; r < prows; ++r) {
            for (std::int64_t c = 0; c < pcols; ++c) {
                cells[static_cast<std::size_t>(
                    (row_base + r) * xb_logical_cols_ + c)] =
                    payload.at2(r, c);
            }
        }
        ++stats_.cim_writes;
        return Status::ok();
      }
      case MetaOpKind::kReadXb:
      case MetaOpKind::kReadRow:
        ++stats_.cim_reads;
        return execCimRead(op);
      case MetaOpKind::kDcom:
        return execDcom(op);
      case MetaOpKind::kMov:
        return execMov(op);
    }
    return internalError("unhandled meta-op kind");
}

Status
FunctionalSimulator::execCimRead(const MetaOp &op)
{
    const std::int64_t index = op.core * arch_.core.xbNumber() + op.xb;
    if (index < 0 || index >= static_cast<std::int64_t>(xbars_.size()))
        return outOfRange("crossbar index out of range");
    const auto &cells = xbars_[static_cast<std::size_t>(index)];

    const std::int64_t rows =
        op.kind == MetaOpKind::kReadXb ? op.rows : op.len;
    const std::int64_t row_base =
        op.kind == MetaOpKind::kReadRow ? op.row : 0;
    if (op.kind == MetaOpKind::kReadRow &&
        op.len > arch_.xbar.parallel_row) {
        return failedPrecondition(strformat(
            "readrow activates %lld rows > parallel_row %lld",
            static_cast<long long>(op.len),
            static_cast<long long>(arch_.xbar.parallel_row)));
    }

    if (row_base < 0 || rows > arch_.xbar.rows - row_base ||
        op.cols > xb_logical_cols_) {
        return outOfRange(strformat(
            "crossbar read of %lld rows from row %lld x %lld cols exceeds "
            "the %lld x %lld array",
            static_cast<long long>(rows),
            static_cast<long long>(row_base),
            static_cast<long long>(op.cols),
            static_cast<long long>(arch_.xbar.rows),
            static_cast<long long>(xb_logical_cols_)));
    }

    CIMMLC_ASSIGN_OR_RETURN(const std::int32_t *src,
                            bufPtrConst(op.src, rows));
    CIMMLC_ASSIGN_OR_RETURN(std::int32_t *dst, bufPtr(op.dst, op.cols));
    const auto stored = static_cast<std::int64_t>(cells.size());
    for (std::int64_t i = 0; i < rows; ++i) {
        const std::int64_t offset = (row_base + i) * xb_logical_cols_;
        if (offset >= stored)
            break; // rows past the highest one written hold zeros
        const std::int32_t activation = src[i];
        if (activation == 0)
            continue;
        const std::int8_t *weight_row = cells.data() + offset;
        for (std::int64_t j = 0; j < op.cols; ++j)
            dst[j] += activation * static_cast<std::int32_t>(
                                       weight_row[j]);
    }
    stats_.macs += rows * op.cols;
    stats_.buffer_reads += rows;
    stats_.buffer_writes += op.cols;
    return Status::ok();
}

Status
FunctionalSimulator::execReadCore(const MetaOp &op)
{
    auto it = cores_.find(op.core);
    if (it == cores_.end() || !it->second.valid) {
        return failedPrecondition(strformat(
            "readcore on core %lld without installed weights",
            static_cast<long long>(op.core)));
    }
    const CoreState &state = it->second;
    const CoreOpParams &p = op.coreParams();

    if (p.is_conv) {
        const std::int64_t OH =
            convOutDim(p.in_h, p.kernel, p.stride, p.padding);
        const std::int64_t OW =
            convOutDim(p.in_w, p.kernel, p.stride, p.padding);
        const std::int64_t in_elems = p.in_channels * p.in_h * p.in_w;
        CIMMLC_ASSIGN_OR_RETURN(const std::int32_t *src,
                                bufPtrConst(op.src, in_elems));
        CIMMLC_ASSIGN_OR_RETURN(
            std::int32_t *dst,
            bufPtr(op.dst, p.out_channels * OH * OW));

        const std::int64_t w0 = p.win_begin;
        const std::int64_t w1 = p.win_end > 0 ? p.win_end : OH;
        const Int8Tensor &w = state.weights;
        for (std::int64_t o = 0; o < p.out_channels; ++o) {
            for (std::int64_t oh = w0; oh < w1; ++oh) {
                for (std::int64_t ow = 0; ow < OW; ++ow) {
                    std::int32_t acc = 0;
                    for (std::int64_t c = 0; c < p.in_channels; ++c) {
                        for (std::int64_t kh = 0; kh < p.kernel; ++kh) {
                            const std::int64_t ih =
                                oh * p.stride + kh - p.padding;
                            if (ih < 0 || ih >= p.in_h)
                                continue;
                            for (std::int64_t kw = 0; kw < p.kernel;
                                 ++kw) {
                                const std::int64_t iw =
                                    ow * p.stride + kw - p.padding;
                                if (iw < 0 || iw >= p.in_w)
                                    continue;
                                acc += src[(c * p.in_h + ih) * p.in_w +
                                           iw] *
                                       static_cast<std::int32_t>(
                                           w.at4(o, c, kh, kw));
                            }
                        }
                    }
                    dst[(o * OH + oh) * OW + ow] = acc;
                }
            }
        }
        stats_.macs += (w1 - w0) * OW * p.out_channels *
                       p.in_channels * p.kernel * p.kernel;
        return Status::ok();
    }

    // linear over input rows [win_begin, win_end)
    const std::int64_t w0 = p.win_begin;
    const std::int64_t w1 = p.win_end > 0 ? p.win_end : 1;
    CIMMLC_ASSIGN_OR_RETURN(const std::int32_t *src,
                            bufPtrConst(op.src, w1 * p.in_features));
    CIMMLC_ASSIGN_OR_RETURN(std::int32_t *dst,
                            bufPtr(op.dst, w1 * p.out_features));
    const Int8Tensor &w = state.weights;
    for (std::int64_t row = w0; row < w1; ++row) {
        for (std::int64_t o = 0; o < p.out_features; ++o) {
            std::int32_t acc = 0;
            for (std::int64_t f = 0; f < p.in_features; ++f) {
                acc += src[row * p.in_features + f] *
                       static_cast<std::int32_t>(w.at2(o, f));
            }
            dst[row * p.out_features + o] = acc;
        }
    }
    stats_.macs += (w1 - w0) * p.out_features * p.in_features;
    return Status::ok();
}

Status
FunctionalSimulator::execDcom(const MetaOp &op)
{
    const DcomParams &p = op.dcomParams();
    if (op.func == dcomfunc::kZero) {
        CIMMLC_ASSIGN_OR_RETURN(std::int32_t *dst,
                                bufPtr(op.dst, op.len));
        std::fill(dst, dst + op.len, 0);
        return Status::ok();
    }
    if (op.func == dcomfunc::kRelu) {
        CIMMLC_ASSIGN_OR_RETURN(const std::int32_t *src,
                                bufPtrConst(op.src, op.len));
        CIMMLC_ASSIGN_OR_RETURN(std::int32_t *dst,
                                bufPtr(op.dst, op.len));
        for (std::int64_t i = 0; i < op.len; ++i)
            dst[i] = std::max(src[i], 0);
        return Status::ok();
    }
    if (op.func == dcomfunc::kRequant) {
        CIMMLC_ASSIGN_OR_RETURN(const std::int32_t *src,
                                bufPtrConst(op.src, op.len));
        CIMMLC_ASSIGN_OR_RETURN(std::int32_t *dst,
                                bufPtr(op.dst, op.len));
        for (std::int64_t i = 0; i < op.len; ++i) {
            dst[i] = clampInt(shiftRound(src[i], p.shift), -128, 127);
        }
        return Status::ok();
    }
    if (op.func == dcomfunc::kAdd) {
        CIMMLC_ASSIGN_OR_RETURN(const std::int32_t *a,
                                bufPtrConst(op.src, op.len));
        CIMMLC_ASSIGN_OR_RETURN(const std::int32_t *b,
                                bufPtrConst(op.src2(), op.len));
        CIMMLC_ASSIGN_OR_RETURN(std::int32_t *dst,
                                bufPtr(op.dst, op.len));
        for (std::int64_t i = 0; i < op.len; ++i)
            dst[i] = clampInt(a[i] + b[i], -128, 127);
        return Status::ok();
    }
    if (op.func == dcomfunc::kMaxPool || op.func == dcomfunc::kAvgPool) {
        const std::int64_t in_elems = p.channels * p.in_h * p.in_w;
        CIMMLC_ASSIGN_OR_RETURN(const std::int32_t *src,
                                bufPtrConst(op.src, in_elems));
        Int8Tensor input = regionToInt8(
            src, TensorShape({1, p.channels, p.in_h, p.in_w}));
        const Int8Tensor pooled =
            op.func == dcomfunc::kMaxPool
                ? ops::maxPool2d(input, p.kernel, p.stride, p.padding)
                : ops::avgPool2d(input, p.kernel, p.stride, p.padding);
        CIMMLC_ASSIGN_OR_RETURN(std::int32_t *dst,
                                bufPtr(op.dst, pooled.numel()));
        int8ToRegion(pooled, dst);
        return Status::ok();
    }
    if (op.func == dcomfunc::kGlobalAvgPool) {
        const std::int64_t in_elems = p.channels * p.in_h * p.in_w;
        CIMMLC_ASSIGN_OR_RETURN(const std::int32_t *src,
                                bufPtrConst(op.src, in_elems));
        Int8Tensor input = regionToInt8(
            src, TensorShape({1, p.channels, p.in_h, p.in_w}));
        const Int8Tensor pooled = ops::globalAvgPool(input);
        CIMMLC_ASSIGN_OR_RETURN(std::int32_t *dst,
                                bufPtr(op.dst, pooled.numel()));
        int8ToRegion(pooled, dst);
        return Status::ok();
    }
    if (op.func == dcomfunc::kSoftmax ||
        op.func == dcomfunc::kLayerNorm || op.func == dcomfunc::kGelu) {
        CIMMLC_ASSIGN_OR_RETURN(const std::int32_t *src,
                                bufPtrConst(op.src, op.len));
        const std::int64_t cols =
            p.in_w > 0 ? p.in_w : op.len; // row width for reductions
        if (op.len % cols != 0)
            return invalidArgument("DCOM row width does not divide len");
        Int8Tensor input =
            regionToInt8(src, TensorShape({op.len / cols, cols}));
        FloatTensor f = dequantize(input, kFloatScale);
        if (op.func == dcomfunc::kSoftmax) {
            f = ops::softmax(f);
        } else if (op.func == dcomfunc::kLayerNorm) {
            f = ops::layerNorm(f);
        } else {
            f = ops::gelu(f);
        }
        const Int8Tensor q = quantizeFloat(f, kFloatScale);
        CIMMLC_ASSIGN_OR_RETURN(std::int32_t *dst,
                                bufPtr(op.dst, op.len));
        int8ToRegion(q, dst);
        return Status::ok();
    }
    if (op.func == dcomfunc::kMatMul) {
        const std::int64_t M = p.in_h, K = p.in_w, N = p.channels;
        CIMMLC_ASSIGN_OR_RETURN(const std::int32_t *a,
                                bufPtrConst(op.src, M * K));
        const bool transpose = p.kernel != 0;
        const std::int64_t b_elems = K * N;
        CIMMLC_ASSIGN_OR_RETURN(const std::int32_t *b,
                                bufPtrConst(op.src2(), b_elems));
        Int8Tensor lhs = regionToInt8(a, TensorShape({M, K}));
        Int8Tensor rhs = regionToInt8(
            b, transpose ? TensorShape({N, K}) : TensorShape({K, N}));
        const Int32Tensor acc = transpose ? ops::linear(lhs, rhs)
                                          : ops::matmul(lhs, rhs);
        const Int8Tensor q =
            requantize(acc, RequantParams{p.shift});
        CIMMLC_ASSIGN_OR_RETURN(std::int32_t *dst,
                                bufPtr(op.dst, M * N));
        int8ToRegion(q, dst);
        return Status::ok();
    }
    return unimplemented("DCOM function '" + std::string(op.func.view()) +
                         "'");
}

Status
FunctionalSimulator::execMov(const MetaOp &op)
{
    for (std::int64_t block = 0; block < op.count; ++block) {
        BufAddr src = op.src;
        BufAddr dst = op.dst;
        src.offset += block * op.src_stride;
        dst.offset += block * op.dst_stride;
        CIMMLC_ASSIGN_OR_RETURN(const std::int32_t *s,
                                bufPtrConst(src, op.len));
        CIMMLC_ASSIGN_OR_RETURN(std::int32_t *d, bufPtr(dst, op.len));
        std::copy(s, s + op.len, d);
        stats_.buffer_reads += op.len;
        stats_.buffer_writes += op.len;
    }
    return Status::ok();
}

} // namespace cimmlc

/**
 * @file
 * The CIM meta-operator set (Section 3.3, Figures 10/11/13/15).
 *
 * Three CIM families — MOP_CM (cim.readcore), MOP_XBM (cim.readxb /
 * cim.writexb), MOP_WLM (cim.readrow / cim.writerow) — plus DCOM (digital
 * compute on the tier ALUs) and DMOV (data movement). Statements compose
 * sequentially, inside `parallel { }` blocks, or inside `repeat N { }`
 * blocks (our compression of the paper's "256 similar code segments",
 * Section 3.4).
 *
 * Executable extension: the paper's surface syntax leaves the
 * input/output binding of CIM reads implicit; every op here carries
 * explicit src/dst buffer operands so the functional simulator can replay
 * a flow bit-exactly (see DESIGN.md "Key design decisions").
 */
#ifndef CIMMLC_MOP_METAOP_H
#define CIMMLC_MOP_METAOP_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "graph/node.h"
#include "tensor/tensor.h"

namespace cimmlc {

/** Meta-operator opcodes. */
enum class MetaOpKind : std::uint8_t {
    kReadCore,  //!< MOP_CM: run one DNN operator on a core
    kWriteCore, //!< MOP_CM extension: install operator weights on a core
    kReadXb,    //!< MOP_XBM: activate crossbar(s) for an MVM
    kWriteXb,   //!< MOP_XBM: program a weight matrix into a crossbar
    kReadRow,   //!< MOP_WLM: activate a row group of a crossbar
    kWriteRow,  //!< MOP_WLM: program specific rows of a crossbar
    kDcom,      //!< digital compute (relu, add, pool, requant, ...)
    kMov,       //!< data movement between/within buffers
};

const char *metaOpKindName(MetaOpKind kind);

/** True for MOP_* CIM ops (not DCOM/DMOV). */
bool isCimMetaOp(MetaOpKind kind);

/** Buffer spaces addressable by meta-operators. */
enum class MemSpace {
    kL0, //!< chip-tier global buffer
    kL1, //!< core-tier local buffer (core field selects which)
};

/** An element-addressed buffer location. */
struct BufAddr {
    MemSpace space = MemSpace::kL0;
    std::int64_t core = 0;   //!< owning core for L1
    std::int64_t offset = 0; //!< element offset

    bool operator==(const BufAddr &) const = default;
};

//! Element offsets stay below this (2^59, far past any buffer), so sums
//! of region widths fit in int64. The structural check reports a region
//! that reaches past it, and mopcheck leaves that region out.
inline constexpr std::int64_t kMaxBufferElements = std::int64_t{1} << 59;

/** Renders like "L0[4096]" or "L1c3[128]". */
std::string bufAddrToString(const BufAddr &addr);

/** Operator geometry carried by kReadCore / kWriteCore. */
struct CoreOpParams {
    bool is_conv = true;
    // conv view
    std::int64_t in_channels = 0;
    std::int64_t in_h = 0;
    std::int64_t in_w = 0;
    std::int64_t out_channels = 0;
    std::int64_t kernel = 1;
    std::int64_t stride = 1;
    std::int64_t padding = 0;
    // linear view
    std::int64_t in_features = 0;
    std::int64_t out_features = 0;
    // Window range this invocation computes (operator duplication splits
    // the window space across replicas): conv output rows [begin, end),
    // or input rows for linear. 0/0 means "all windows".
    std::int64_t win_begin = 0;
    std::int64_t win_end = 0;

    bool operator==(const CoreOpParams &) const = default;
};

/** Geometry for windowed / scaling DCOM functions. */
struct DcomParams {
    std::int64_t channels = 0;
    std::int64_t in_h = 0;
    std::int64_t in_w = 0;
    std::int64_t kernel = 1;
    std::int64_t stride = 1;
    std::int64_t padding = 0;
    int shift = 0; //!< requantization right-shift

    bool operator==(const DcomParams &) const = default;
};

/** DCOM function names understood by the simulator and validator. */
namespace dcomfunc {
//! One table, so each known name has one address in the whole program.
inline constexpr std::string_view kKnown[] = {
    "zero", "relu",    "add",       "requant", "maxpool", "avgpool",
    "gap",  "softmax", "layernorm", "gelu",    "matmul",
};
} // namespace dcomfunc

/**
 * A DCOM function name, interned: one pointer, compared by identity.
 * The dcomfunc::k* names point into the static dcomfunc::kKnown table.
 * Constructing from text looks the name up there first; any other
 * name (only the text parser produces one) is copied into a
 * thread-safe, process-wide pool that lives until exit and never
 * shrinks, so equal texts always give equal names.
 */
class FuncName
{
  public:
    constexpr FuncName() = default;
    FuncName(std::string_view name);
    FuncName(const char *name) : FuncName(std::string_view(name)) {}
    FuncName(const std::string &name) : FuncName(std::string_view(name)) {}

    /** The name of dcomfunc::kKnown[index], without a lookup. */
    static constexpr FuncName
    known(std::size_t index)
    {
        FuncName name;
        name.text_ = &dcomfunc::kKnown[index];
        return name;
    }

    const char *c_str() const { return text_ ? text_->data() : ""; }
    std::string_view view() const { return text_ ? *text_ : ""; }

    /** True for the functions in dcomfunc::kKnown. */
    bool isKnown() const;

    friend bool
    operator==(FuncName a, FuncName b)
    {
        return a.text_ == b.text_;
    }

  private:
    //! a kKnown entry or a pool entry; null is the empty name
    const std::string_view *text_ = nullptr;
};

namespace dcomfunc {
inline constexpr FuncName kZero = FuncName::known(0);
inline constexpr FuncName kRelu = FuncName::known(1);
inline constexpr FuncName kAdd = FuncName::known(2);
inline constexpr FuncName kRequant = FuncName::known(3);
inline constexpr FuncName kMaxPool = FuncName::known(4);
inline constexpr FuncName kAvgPool = FuncName::known(5);
inline constexpr FuncName kGlobalAvgPool = FuncName::known(6);
inline constexpr FuncName kSoftmax = FuncName::known(7);
inline constexpr FuncName kLayerNorm = FuncName::known(8);
inline constexpr FuncName kGelu = FuncName::known(9);
inline constexpr FuncName kMatMul = FuncName::known(10);
} // namespace dcomfunc

/** Operands only some kinds use; a MetaOp keeps them out of line. */
struct MetaOpExtras {
    CoreOpParams core_params; //!< kReadCore / kWriteCore
    DcomParams dcom_params;   //!< kDcom
    BufAddr src2;             //!< kDcom binary functions (add, matmul)
};

/** What an op without an out-of-line record reads. */
inline constexpr MetaOpExtras kNoMetaOpExtras{};

/**
 * One meta-operator instance. Field usage by kind:
 *
 *  kReadCore:  core, coreParams(), src (L0 in), dst (L0 out, int32 acc)
 *  kWriteCore: core, coreParams(), payload (weights)
 *  kReadXb:    core, xb, len (#crossbars), rows (input length),
 *              cols (outputs produced), src (L1 in), dst (L1 acc)
 *  kWriteXb:   core, xb, payload ([rows x logical-cols] weights)
 *  kReadRow:   core, xb, row, len (#rows), cols, src, dst
 *  kWriteRow:  core, xb, row, len, payload
 *  kDcom:      func, src, src2() (binary funcs), dst, len, dcomParams()
 *  kMov:       src, dst, len, count/src_stride/dst_stride (strided block)
 *
 * coreParams(), dcomParams() and src2() live in one out-of-line
 * MetaOpExtras record, allocated by the first mutable*() call; until
 * then they read as defaults. Copying an op copies the record by value.
 * See DESIGN.md "Meta-op IR layout".
 */
struct MetaOp {
    MetaOpKind kind = MetaOpKind::kMov;

    //! hybrid offload: this kDcom/kMov executes on the host CPU. The
    //! numerics are identical to the chip ALU path — the flag only
    //! changes where the op is priced, so funcsim replays it unchanged.
    bool host = false;

    //! graph node this op was generated from (traceability)
    NodeId origin = kInvalidNode;

    std::int64_t core = 0;
    std::int64_t xb = 0;
    std::int64_t row = 0;
    std::int64_t len = 1;
    std::int64_t rows = 0;
    std::int64_t cols = 0;

    BufAddr src;
    BufAddr dst;

    FuncName func; //!< DCOM function name ("relu", "add", ...)

    // Strided block-copy extension for kMov: copies `count` blocks of
    // `len` elements, advancing src/dst by the strides between blocks.
    std::int64_t count = 1;
    std::int64_t src_stride = 0;
    std::int64_t dst_stride = 0;

    //! weight payload for write ops (shared: flows can be large)
    std::shared_ptr<const Int8Tensor> payload;

    const CoreOpParams &
    coreParams() const
    {
        return extras_.get().core_params;
    }
    CoreOpParams &mutableCoreParams() { return extras_.mut().core_params; }

    const DcomParams &
    dcomParams() const
    {
        return extras_.get().dcom_params;
    }
    DcomParams &mutableDcomParams() { return extras_.mut().dcom_params; }

    const BufAddr &src2() const { return extras_.get().src2; }
    BufAddr &mutableSrc2() { return extras_.mut().src2; }

    /** One-line rendering in the Figure 16 surface syntax. */
    std::string toString() const;

  private:
    /** Owns the MetaOpExtras record; copies deep-copy it. */
    class ExtrasPtr
    {
      public:
        ExtrasPtr() = default;
        ExtrasPtr(const ExtrasPtr &other) : ptr_(clone(other)) {}
        ExtrasPtr(ExtrasPtr &&) noexcept = default;
        ExtrasPtr &
        operator=(const ExtrasPtr &other)
        {
            if (this != &other)
                ptr_ = clone(other);
            return *this;
        }
        ExtrasPtr &operator=(ExtrasPtr &&) noexcept = default;

        const MetaOpExtras &
        get() const
        {
            return ptr_ ? *ptr_ : kNoMetaOpExtras;
        }

        MetaOpExtras &
        mut()
        {
            if (!ptr_)
                ptr_ = std::make_unique<MetaOpExtras>();
            return *ptr_;
        }

      private:
        static std::unique_ptr<MetaOpExtras>
        clone(const ExtrasPtr &other)
        {
            return other.ptr_ ? std::make_unique<MetaOpExtras>(*other.ptr_)
                              : nullptr;
        }

        std::unique_ptr<MetaOpExtras> ptr_;
    };

    ExtrasPtr extras_;
};

} // namespace cimmlc

#endif // CIMMLC_MOP_METAOP_H

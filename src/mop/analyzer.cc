#include "mop/analyzer.h"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/strutil.h"
#include "common/table.h"
#include "tensor/shape.h"

namespace cimmlc {

namespace {

namespace check {
inline constexpr const char *kUbdBuffer = "use-before-def-buffer";
inline constexpr const char *kUbdXbar = "use-before-def-xbar";
inline constexpr const char *kUbdCore = "use-before-def-core";
inline constexpr const char *kRaceWriteWrite = "race-write-write";
inline constexpr const char *kRaceReadWrite = "race-read-write";
inline constexpr const char *kRaceXbar = "race-xbar";
inline constexpr const char *kRaceCore = "race-core";
inline constexpr const char *kCapacityL0 = "capacity-l0";
inline constexpr const char *kCapacityL1 = "capacity-l1";
inline constexpr const char *kDeadStore = "dead-store";
inline constexpr const char *kXbarOverwrite = "xbar-overwrite";
inline constexpr const char *kXbarUnused = "xbar-unused-write";
inline constexpr const char *kCoreOverwrite = "core-overwrite";
inline constexpr const char *kCoreUnused = "core-unused-write";
} // namespace check

struct Interval {
    std::int64_t begin = 0;
    std::int64_t end = 0;
};

/** A sorted set of disjoint half-open element intervals. */
class IntervalSet
{
  public:
    void
    add(std::int64_t begin, std::int64_t end)
    {
        if (begin >= end)
            return;
        // Find the run of intervals overlapping or adjacent to [b, e).
        const std::size_t lo = static_cast<std::size_t>(
            std::lower_bound(iv_.begin(), iv_.end(), begin,
                             [](const Interval &i, std::int64_t p) {
                                 return i.end < p;
                             }) -
            iv_.begin());
        std::size_t hi = lo;
        while (hi < iv_.size() && iv_[hi].begin <= end) {
            begin = std::min(begin, iv_[hi].begin);
            end = std::max(end, iv_[hi].end);
            ++hi;
        }
        if (hi == lo + 1) { // merged into one slot: no tail shuffle
            iv_[lo] = Interval{begin, end};
            return;
        }
        iv_.erase(iv_.begin() + static_cast<std::ptrdiff_t>(lo),
                  iv_.begin() + static_cast<std::ptrdiff_t>(hi));
        iv_.insert(iv_.begin() + static_cast<std::ptrdiff_t>(lo),
                   Interval{begin, end});
    }

    void
    subtract(std::int64_t begin, std::int64_t end)
    {
        if (begin >= end)
            return;
        std::vector<Interval> out;
        out.reserve(iv_.size() + 1);
        for (const Interval &i : iv_) {
            if (i.end <= begin || i.begin >= end) {
                out.push_back(i);
                continue;
            }
            if (i.begin < begin)
                out.push_back(Interval{i.begin, begin});
            if (i.end > end)
                out.push_back(Interval{end, i.end});
        }
        iv_ = std::move(out);
    }

    bool
    intersects(std::int64_t begin, std::int64_t end) const
    {
        if (begin >= end)
            return false;
        const auto it = firstReaching(begin);
        return it != iv_.end() && it->begin < end;
    }

    /** First overlapping interval with @p other, if any. */
    std::optional<Interval>
    firstOverlap(const IntervalSet &other) const
    {
        std::size_t a = 0, b = 0;
        while (a < iv_.size() && b < other.iv_.size()) {
            const Interval &x = iv_[a];
            const Interval &y = other.iv_[b];
            const std::int64_t lo = std::max(x.begin, y.begin);
            const std::int64_t hi = std::min(x.end, y.end);
            if (lo < hi)
                return Interval{lo, hi};
            if (x.end < y.end)
                ++a;
            else
                ++b;
        }
        return std::nullopt;
    }

    /** First maximal part of [begin, end) not covered by this set. */
    std::optional<Interval>
    firstUncovered(std::int64_t begin, std::int64_t end) const
    {
        std::int64_t cursor = begin;
        for (auto it = firstReaching(begin);
             it != iv_.end() && it->begin < end; ++it) {
            if (it->begin > cursor)
                return Interval{cursor, it->begin};
            cursor = std::max(cursor, it->end);
            if (cursor >= end)
                return std::nullopt;
        }
        if (cursor < end)
            return Interval{cursor, end};
        return std::nullopt;
    }

    void clear() { iv_.clear(); }
    bool empty() const { return iv_.empty(); }
    const std::vector<Interval> &intervals() const { return iv_; }

  private:
    /** First interval whose end extends past @p pos (they are sorted
     * and disjoint, so this is the only one that can cover pos). */
    std::vector<Interval>::const_iterator
    firstReaching(std::int64_t pos) const
    {
        return std::lower_bound(iv_.begin(), iv_.end(), pos,
                                [](const Interval &i, std::int64_t p) {
                                    return i.end <= p;
                                });
    }

    std::vector<Interval> iv_;
};

/**
 * First maximal part of [begin, end) covered by neither @p base nor
 * @p own (either may be null): the first interval of
 * `[begin, end) - base - own`.
 */
std::optional<Interval>
firstGap(const IntervalSet *base, const IntervalSet *own,
         std::int64_t begin, std::int64_t end)
{
    std::int64_t cursor = begin;
    while (cursor < end) {
        const std::optional<Interval> piece =
            base != nullptr ? base->firstUncovered(cursor, end)
                            : std::optional<Interval>(Interval{cursor, end});
        if (!piece || own == nullptr)
            return piece;
        if (auto gap = own->firstUncovered(piece->begin, piece->end))
            return gap;
        cursor = piece->end;
    }
    return std::nullopt;
}

/** Buffer identity: the L0 global buffer or one core's L1 bank. */
struct BufKey {
    MemSpace space = MemSpace::kL0;
    std::int64_t core = 0; //!< 0 for L0

    bool
    operator<(const BufKey &other) const
    {
        if (space != other.space)
            return space < other.space;
        return core < other.core;
    }
    bool operator==(const BufKey &) const = default;
};

/** Crossbar identity. */
struct XbKey {
    std::int64_t core = 0;
    std::int64_t xb = 0;

    bool
    operator<(const XbKey &other) const
    {
        return core != other.core ? core < other.core : xb < other.xb;
    }
    bool operator==(const XbKey &) const = default;
};

struct XbKeyHash {
    std::size_t
    operator()(const XbKey &key) const
    {
        return static_cast<std::size_t>(
            static_cast<std::uint64_t>(key.core) * 0x9E3779B97F4A7C15ull ^
            static_cast<std::uint64_t>(key.xb));
    }
};

BufKey
keyOf(const BufAddr &addr)
{
    BufKey key;
    key.space = addr.space;
    key.core = addr.space == MemSpace::kL1 ? addr.core : 0;
    return key;
}

std::string
bufKeyName(const BufKey &key)
{
    if (key.space == MemSpace::kL0)
        return "L0";
    return "L1c" + std::to_string(key.core);
}

std::string
rangeName(const Interval &i)
{
    return "[" + std::to_string(i.begin) + ", " + std::to_string(i.end) +
           ")";
}

std::string
regionName(const BufKey &key, const Interval &i)
{
    return bufKeyName(key) + rangeName(i);
}

std::string
xbName(std::int64_t core, std::int64_t xb)
{
    return "c" + std::to_string(core) + ".x" + std::to_string(xb);
}

/** One buffer-region access of an op. */
struct RegionRef {
    BufKey key;
    std::int64_t begin = 0;
    std::int64_t end = 0;
};

/** One crossbar row-range access of an op. */
struct XbRef {
    std::int64_t core = 0;
    std::int64_t xb = 0;
    std::int64_t begin = 0;
    std::int64_t end = 0;
};

/**
 * The memory footprint of one op, mirroring the functional simulator's
 * semantics (funcsim/simulator.cc): CIM reads *accumulate* into their
 * destination, kReadCore assigns per-window strided intervals, kMov is
 * a strided block copy, DCOM extents are per-function.
 */
struct OpEffects {
    std::vector<RegionRef> reads;
    std::vector<RegionRef> writes; //!< plain assignments
    std::vector<RegionRef> accums; //!< commutative read-modify-write
    std::vector<XbRef> xb_reads;
    std::vector<XbRef> xb_writes;
    std::vector<std::int64_t> core_reads;  //!< core-state uses
    std::vector<std::int64_t> core_writes; //!< core-state installs

    void
    clear()
    {
        reads.clear();
        writes.clear();
        accums.clear();
        xb_reads.clear();
        xb_writes.clear();
        core_reads.clear();
        core_writes.clear();
    }
};

/** Appends [begin, end) relative to @p addr. A region at a negative
 * base address, or reaching below element 0 or past
 * kMaxBufferElements, is left to the structural check. */
void
addRegion(std::vector<RegionRef> *out, const BufAddr &addr,
          std::int64_t begin, std::int64_t end)
{
    RegionRef ref{keyOf(addr), 0, 0};
    if (addr.offset < 0 || begin >= end ||
        __builtin_add_overflow(addr.offset, begin, &ref.begin) ||
        __builtin_add_overflow(addr.offset, end, &ref.end) ||
        ref.begin < 0 || ref.end > kMaxBufferElements)
        return;
    out->push_back(ref);
}

void
addExtent(std::vector<RegionRef> *out, const BufAddr &addr,
          std::int64_t extent)
{
    addRegion(out, addr, 0, extent);
}

/** Appends [begin * scale, end * scale) relative to @p addr, unless a
 * product overflows int64. */
void
addScaled(std::vector<RegionRef> *out, const BufAddr &addr,
          std::int64_t begin, std::int64_t end, std::int64_t scale)
{
    std::int64_t lo = 0, hi = 0;
    if (!__builtin_mul_overflow(begin, scale, &lo) &&
        !__builtin_mul_overflow(end, scale, &hi))
        addRegion(out, addr, lo, hi);
}

/** The product of @p factors; 0 (no extent) when one is negative or the
 * product overflows int64, as in a malformed parsed op. */
std::int64_t
product(std::initializer_list<std::int64_t> factors)
{
    std::int64_t result = 1;
    for (const std::int64_t factor : factors) {
        if (factor < 0 || __builtin_mul_overflow(result, factor, &result))
            return 0;
    }
    return result;
}

/** convOutDim; 0 (no output) for a stride below 1 or a window that
 * overflows int64, as in a malformed parsed op. */
std::int64_t
outDim(std::int64_t in, std::int64_t kernel, std::int64_t stride,
       std::int64_t padding)
{
    std::int64_t span = 0;
    if (stride < 1 || __builtin_mul_overflow(padding, 2, &span) ||
        __builtin_add_overflow(span, in, &span) ||
        __builtin_sub_overflow(span, kernel, &span))
        return 0;
    return convOutDim(in, kernel, stride, padding);
}

//! strided movs beyond this many blocks fall back to their hull
constexpr std::int64_t kMaxMovBlocks = 1024;
//! convs beyond this many output channels write their planes' hull (no
//! bundled model has more than 2,048, so emitted flows never do)
constexpr std::int64_t kMaxConvChannels = 65536;

/**
 * A strided operand of @p count blocks of @p len elements, @p stride
 * apart: each block at its own base, or the hull of all blocks when
 * they are more than @p max_blocks or run downwards. Operands with no
 * blocks or a hull past int64 are left to the structural check.
 */
void
addStrided(std::vector<RegionRef> *out, const BufAddr &addr,
           std::int64_t len, std::int64_t count, std::int64_t stride,
           std::int64_t max_blocks = kMaxMovBlocks)
{
    const std::optional<Footprint> hull = stridedHull(len, count, stride);
    if (!hull)
        return;
    if (count <= max_blocks && stride >= 0) {
        for (std::int64_t b = 0; b < count; ++b) {
            BufAddr block = addr;
            if (__builtin_add_overflow(addr.offset, b * stride,
                                       &block.offset))
                return;
            addExtent(out, block, len);
        }
        return;
    }
    addRegion(out, addr, hull->lo, hull->hi);
}

/** The writes of a conv readcore: each output channel's rows [w0, w1)
 * of its OH x OW plane, blocks of (w1 - w0) * OW elements, a plane
 * apart. */
void
addConvWindows(std::vector<RegionRef> *out, const BufAddr &dst,
               std::int64_t channels, std::int64_t OH, std::int64_t OW,
               std::int64_t w0, std::int64_t w1)
{
    BufAddr first = dst;
    std::int64_t skip = 0, rows = 0;
    const std::int64_t plane = product({OH, OW});
    if (dst.offset < 0 || plane == 0 ||
        __builtin_mul_overflow(w0, OW, &skip) ||
        __builtin_add_overflow(dst.offset, skip, &first.offset) ||
        __builtin_sub_overflow(w1, w0, &rows))
        return;
    addStrided(out, first, product({rows, OW}), channels, plane,
               kMaxConvChannels);
}

/** Fills @p fx (cleared first, so callers can reuse one scratch). */
void
computeEffects(const MetaOp &op, OpEffects *fx)
{
    fx->clear();
    switch (op.kind) {
      case MetaOpKind::kWriteCore:
        fx->core_writes.push_back(op.core);
        break;
      case MetaOpKind::kReadCore: {
        fx->core_reads.push_back(op.core);
        const CoreOpParams &p = op.coreParams();
        if (p.is_conv) {
            const std::int64_t OH =
                outDim(p.in_h, p.kernel, p.stride, p.padding);
            const std::int64_t OW =
                outDim(p.in_w, p.kernel, p.stride, p.padding);
            if (OH <= 0 || OW <= 0)
                break;
            addExtent(&fx->reads, op.src,
                      product({p.in_channels, p.in_h, p.in_w}));
            addConvWindows(&fx->writes, op.dst, p.out_channels, OH, OW,
                           p.win_begin, p.win_end > 0 ? p.win_end : OH);
        } else {
            const std::int64_t w0 = p.win_begin;
            const std::int64_t w1 = p.win_end > 0 ? p.win_end : 1;
            addScaled(&fx->reads, op.src, w0, w1, p.in_features);
            addScaled(&fx->writes, op.dst, w0, w1, p.out_features);
        }
        break;
      }
      case MetaOpKind::kReadXb: {
        fx->xb_reads.push_back(XbRef{op.core, op.xb, 0, op.rows});
        addExtent(&fx->reads, op.src, op.rows);
        addExtent(&fx->accums, op.dst, op.cols);
        break;
      }
      case MetaOpKind::kReadRow: {
        std::int64_t end = 0;
        if (!__builtin_add_overflow(op.row, op.len, &end))
            fx->xb_reads.push_back(XbRef{op.core, op.xb, op.row, end});
        addExtent(&fx->reads, op.src, op.len);
        addExtent(&fx->accums, op.dst, op.cols);
        break;
      }
      case MetaOpKind::kWriteXb:
      case MetaOpKind::kWriteRow: {
        const std::int64_t row_base =
            op.kind == MetaOpKind::kWriteRow ? op.row : 0;
        // With a payload the programmed rows are its rows; compressed
        // flows omit payloads, so fall back to the op's row count.
        std::int64_t rows = op.len;
        if (op.payload && op.payload->shape().rank() > 0)
            rows = op.payload->shape().dim(0);
        std::int64_t end = 0;
        if (rows > 0 && !__builtin_add_overflow(row_base, rows, &end))
            fx->xb_writes.push_back(XbRef{op.core, op.xb, row_base, end});
        break;
      }
      case MetaOpKind::kDcom: {
        const DcomParams &p = op.dcomParams();
        if (op.func == dcomfunc::kZero) {
            addExtent(&fx->writes, op.dst, op.len);
        } else if (op.func == dcomfunc::kRelu ||
                   op.func == dcomfunc::kRequant ||
                   op.func == dcomfunc::kSoftmax ||
                   op.func == dcomfunc::kLayerNorm ||
                   op.func == dcomfunc::kGelu) {
            addExtent(&fx->reads, op.src, op.len);
            addExtent(&fx->writes, op.dst, op.len);
        } else if (op.func == dcomfunc::kAdd) {
            addExtent(&fx->reads, op.src, op.len);
            addExtent(&fx->reads, op.src2(), op.len);
            addExtent(&fx->writes, op.dst, op.len);
        } else if (op.func == dcomfunc::kMaxPool ||
                   op.func == dcomfunc::kAvgPool) {
            addExtent(&fx->reads, op.src,
                      product({p.channels, p.in_h, p.in_w}));
            const std::int64_t oh =
                outDim(p.in_h, p.kernel, p.stride, p.padding);
            const std::int64_t ow =
                outDim(p.in_w, p.kernel, p.stride, p.padding);
            addExtent(&fx->writes, op.dst, product({p.channels, oh, ow}));
        } else if (op.func == dcomfunc::kGlobalAvgPool) {
            addExtent(&fx->reads, op.src,
                      product({p.channels, p.in_h, p.in_w}));
            addExtent(&fx->writes, op.dst, p.channels);
        } else if (op.func == dcomfunc::kMatMul) {
            const std::int64_t m = p.in_h, k = p.in_w, n = p.channels;
            addExtent(&fx->reads, op.src, product({m, k}));
            addExtent(&fx->reads, op.src2(), product({k, n}));
            addExtent(&fx->writes, op.dst, product({m, n}));
        }
        // Unknown functions are reported by the structural pass.
        break;
      }
      case MetaOpKind::kMov: {
        addStrided(&fx->reads, op.src, op.len, op.count, op.src_stride);
        addStrided(&fx->writes, op.dst, op.len, op.count, op.dst_stride);
        break;
      }
    }
}

/** Category of a parallel arm's access. */
enum Cat { kWrite = 0, kAccum = 1, kRead = 2 };

/** What an arm access touches: a buffer region, crossbar rows, or a
 * core's state (the one-element range [0, 1) of its core). */
enum Res { kBufRes = 0, kXbRes = 1, kCoreRes = 2 };

/**
 * The race rule: two arms of a parallel block race where an access of
 * one overlaps an access of the other on the same resource and their
 * categories are a pair listed for its class, in either order. Plain
 * writes race with everything, accumulates commute with each other
 * but not with reads, and crossbar rows and core state have only
 * writes (programming, installs) and reads (activations, uses). Each
 * pair names its findings' check id and wording.
 */
struct RaceRule {
    Res res;
    Cat x, y;
    const char *check;
    const char *what;
};

constexpr RaceRule kRaceRules[] = {
    {kBufRes, kWrite, kWrite, check::kRaceWriteWrite, "overlapping writes"},
    {kBufRes, kWrite, kAccum, check::kRaceWriteWrite, "write vs accumulate"},
    {kBufRes, kWrite, kRead, check::kRaceReadWrite, "write vs read"},
    {kBufRes, kAccum, kRead, check::kRaceReadWrite, "accumulate vs read"},
    {kXbRes, kWrite, kWrite, check::kRaceXbar, "both program"},
    {kXbRes, kWrite, kRead, check::kRaceXbar, "program vs activate"},
    {kCoreRes, kWrite, kWrite, check::kRaceCore, "both install"},
    {kCoreRes, kWrite, kRead, check::kRaceCore, "install vs use of"},
};

/** kRaceRules by [res][cat][cat]: 1 + the rule's index, or 0 where
 * the two categories do not race. */
constexpr auto kRaceTable = [] {
    std::array<std::array<std::array<int, 3>, 3>, 3> table{};
    for (std::size_t i = 0; i < std::size(kRaceRules); ++i) {
        const RaceRule &rule = kRaceRules[i];
        table[rule.res][rule.x][rule.y] = static_cast<int>(i) + 1;
        table[rule.res][rule.y][rule.x] = static_cast<int>(i) + 1;
    }
    return table;
}();

class Analyzer
{
  public:
    Analyzer(const CimArchitecture &arch, const AnalyzeOptions &options)
        : arch_(arch), options_(options)
    {
    }

    void
    run(const MopProgram &program, AnalyzeResult *result)
    {
        for (const LiveInRegion &region : options_.live_in) {
            if (region.begin < 0 || region.end > kMaxBufferElements)
                continue;
            BufKey key;
            key.space = region.space;
            key.core = region.space == MemSpace::kL1 ? region.core : 0;
            defined_[key].add(region.begin, region.end);
            if (region.begin < region.end) {
                addEvent(events_[key], Event{-1, region.begin, region.end,
                                             -1, "", true});
            }
        }

        // Statements are numbered in pre-order per section; the walk
        // carries the index instead of looking it up, and the index
        // past a section is its statement count.
        section_ = "init";
        result->statements = walkStmts(program.init(), 0);
        section_ = "compute";
        result->statements += walkStmts(program.compute(), 0);
        result->ops = ops_;

        finish(result);
    }

  private:
    struct Event {
        std::int64_t t = 0;
        std::int64_t begin = 0, end = 0;
        std::int64_t index = -1;
        const char *section = "";
        bool is_def = false;
    };

    /** One buffer's capacity events, plus the union of the defs made at
     * the latest timestamp (see addEvent). */
    struct BufEvents {
        std::vector<Event> events;
        std::int64_t t = -2; //!< timestamp of defs_at_t
        IntervalSet defs_at_t;
    };

    /** A plain write whose value is not yet fully overwritten. The
     * still-pending element ranges live in the per-buffer slice map;
     * the store just counts them so retirement is O(overlap). */
    struct PendingStore {
        std::int64_t remaining = 0; //!< pending elements left
        bool any_read = false;
        const MetaOp *op = nullptr;
        const char *section = "";
        std::int64_t index = -1;
    };

    /** Contiguous pending range [map key, end) owned by one store. */
    struct StoreSlice {
        std::int64_t end = 0;
        std::size_t store = 0; //!< index into store_pool_
    };

    struct XbStore {
        IntervalSet pending; //!< programmed rows not yet overwritten
        bool any_read = false;
        const MetaOp *op = nullptr;
        const char *section = "";
        std::int64_t index = -1;
    };

    /** Everything known about one crossbar. */
    struct XbState {
        IntervalSet programmed;      //!< rows programmed before now
        std::vector<XbStore> stores; //!< unread programming (executable)
    };

    struct CoreStore {
        bool any_read = false;
        const MetaOp *op = nullptr;
        const char *section = "";
        std::int64_t index = -1;
    };

    /** A definition made inside a parallel arm. Arms read the pre-block
     * state plus their own defs, never a sibling's, so defs are staged
     * here and merged into the global state after the block. */
    struct StagedDef {
        enum class Kind { kBuf, kXb, kCore };
        Kind kind = Kind::kBuf;
        std::int64_t a = 0, b = 0; //!< BufKey (space, core) / XbKey / core
        std::int64_t begin = 0, end = 0;
        XbState *xb = nullptr; //!< the crossbar's state (kXb)
    };

    /** The arm being walked: its anchor, where its staged defs start
     * in staged_, and its position in the block. */
    struct ArmCtx {
        std::int64_t anchor = -1;
        std::size_t first_staged = 0;
        int arm = 0;
    };

    /** Walks @p stmts whose first statement has pre-order index
     * @p index; returns the index after the last one's subtree. */
    std::int64_t
    walkStmts(const std::vector<Stmt> &stmts, std::int64_t index)
    {
        for (const Stmt &stmt : stmts) {
            const std::int64_t own = index++;
            switch (stmt.kind) {
              case Stmt::Kind::kOp:
                if (!replaying_)
                    ++ops_;
                processOp(stmt.op, own, nullptr);
                ++time_;
                break;
              case Stmt::Kind::kParallel:
                index = walkParallel(stmt, own);
                break;
              case Stmt::Kind::kRepeat: {
                // Two passes expose loop-carried dataflow (a store at
                // the end of the body read at the start of the next
                // iteration) and its capacity without unrolling;
                // findings dedup. Both passes see the same statement
                // indices. Race findings depend only on a block's
                // arms, so the second pass does not look for them.
                const int passes = stmt.repeat > 1 ? 2 : 1;
                const bool replaying = replaying_;
                std::int64_t next = index;
                for (int p = 0; p < passes; ++p) {
                    replaying_ = replaying || p > 0;
                    next = walkStmts(stmt.body, index);
                }
                replaying_ = replaying;
                index = next;
                break;
              }
            }
        }
        return index;
    }

    /** Walks one arm statement; returns its subtree's statement count. */
    std::int64_t
    walkArm(const Stmt &stmt, const ArmCtx &ctx)
    {
        if (stmt.kind == Stmt::Kind::kOp) {
            if (!replaying_)
                ++ops_;
            processOp(stmt.op, ctx.anchor, &ctx);
            return 1;
        }
        // Nested parallel blocks are structurally rejected; recurse.
        std::int64_t count = 1;
        for (const Stmt &sub : stmt.body)
            count += walkArm(sub, ctx);
        return count;
    }

    // ----- diagnostics plumbing ---------------------------------------

    void
    finalize(MopDiagnostic diag)
    {
        const std::string dedup_key =
            strformat("%d|%s|%s|%lld|%s",
                      static_cast<int>(diag.severity), diag.check.c_str(),
                      diag.section.c_str(),
                      static_cast<long long>(diag.stmt_index),
                      diag.message.c_str());
        if (!seen_.insert(dedup_key).second)
            return;
        diags_.push_back(std::move(diag));
    }

    void
    record(MopDiagnostic diag)
    {
        if (block_diags_ != nullptr)
            block_diags_->push_back(std::move(diag));
        else
            finalize(std::move(diag));
    }

    static MopDiagnostic
    makeDiag(DiagSeverity severity, const char *check_id, StatusCode code,
             const char *section, std::int64_t index, std::string message)
    {
        MopDiagnostic diag;
        diag.severity = severity;
        diag.check = check_id;
        diag.section = section;
        diag.stmt_index = index;
        diag.code = code;
        diag.message = std::move(message);
        return diag;
    }

    // ----- per-op dataflow --------------------------------------------

    /** Split the slice straddling @p pos so no slice crosses it. */
    static void
    splitSliceAt(std::map<std::int64_t, StoreSlice> &slices,
                 std::int64_t pos)
    {
        auto it = slices.upper_bound(pos);
        if (it == slices.begin())
            return;
        --it;
        if (it->first >= pos || it->second.end <= pos)
            return;
        StoreSlice tail = it->second;
        it->second.end = pos;
        slices.emplace(pos, tail);
    }

    /** The current arm's staged defs of one kind and key, gathered into
     * a scratch set; null when it has none. */
    const IntervalSet *
    armDefs(const ArmCtx *ctx, StagedDef::Kind kind, std::int64_t a,
            std::int64_t b)
    {
        if (ctx == nullptr)
            return nullptr;
        own_.clear();
        bool any = false;
        for (std::size_t i = ctx->first_staged; i < staged_.size(); ++i) {
            const StagedDef &def = staged_[i];
            if (def.kind == kind && def.a == a && def.b == b) {
                own_.add(def.begin, def.end);
                any = true;
            }
        }
        return any ? &own_ : nullptr;
    }

    void
    processOp(const MetaOp &op, std::int64_t at, const ArmCtx *ctx)
    {
        computeEffects(op, &fx_);
        const OpEffects &fx = fx_;
        const bool executable = options_.executable;
        if (ctx != nullptr && !replaying_)
            recordAccesses(op, ctx->arm);

        // 1. use-before-def on buffer regions (executable flows only:
        //    compressed templates only show window 0, so cross-window
        //    region dataflow is not statically meaningful).
        if (executable) {
            auto checkDefined = [&](const RegionRef &r,
                                    const char *verb) {
                const auto base = defined_.find(r.key);
                const std::optional<Interval> gap = firstGap(
                    base != defined_.end() ? &base->second : nullptr,
                    armDefs(ctx, StagedDef::Kind::kBuf,
                            static_cast<std::int64_t>(r.key.space),
                            r.key.core),
                    r.begin, r.end);
                if (!gap)
                    return;
                record(makeDiag(
                    DiagSeverity::kError, check::kUbdBuffer,
                    StatusCode::kFailedPrecondition, section_, at,
                    strformat("%s %s %s which is never written",
                              op.toString().c_str(), verb,
                              regionName(r.key, *gap).c_str())));
            };
            for (const RegionRef &r : fx.reads)
                checkDefined(r, "reads");
            for (const RegionRef &r : fx.accums)
                checkDefined(r, "accumulates into");
        }

        // 2. use-before-def on crossbar weights.
        for (const XbRef &x : fx.xb_reads) {
            const auto state = xbs_.find(XbKey{x.core, x.xb});
            const std::optional<Interval> gap = firstGap(
                state != xbs_.end() ? &state->second.programmed : nullptr,
                armDefs(ctx, StagedDef::Kind::kXb, x.core, x.xb), x.begin,
                x.end);
            if (gap) {
                record(makeDiag(
                    DiagSeverity::kError, check::kUbdXbar,
                    StatusCode::kFailedPrecondition, section_, at,
                    strformat("%s activates rows [%lld, %lld) of "
                              "crossbar %s but rows [%lld, %lld) were "
                              "never programmed",
                              op.toString().c_str(),
                              static_cast<long long>(x.begin),
                              static_cast<long long>(x.end),
                              xbName(x.core, x.xb).c_str(),
                              static_cast<long long>(gap->begin),
                              static_cast<long long>(gap->end))));
            }
            // The read consumes pending programming.
            if (state != xbs_.end()) {
                for (XbStore &store : state->second.stores) {
                    if (store.pending.intersects(x.begin, x.end))
                        store.any_read = true;
                }
            }
        }

        // 3. use-before-def on core state.
        for (std::int64_t core : fx.core_reads) {
            const bool programmed =
                cores_programmed_.count(core) > 0 ||
                armDefs(ctx, StagedDef::Kind::kCore, core, 0) != nullptr;
            if (!programmed) {
                record(makeDiag(
                    DiagSeverity::kError, check::kUbdCore,
                    StatusCode::kFailedPrecondition, section_, at,
                    strformat("%s runs on core %lld whose weights were "
                              "never installed",
                              op.toString().c_str(),
                              static_cast<long long>(core))));
            }
            auto it = core_stores_.find(core);
            if (it != core_stores_.end())
                it->second.any_read = true;
        }

        // 4. dead-store bookkeeping: reads acquit pending stores,
        //    plain writes retire them. The slice maps keep every
        //    operation proportional to the ranges actually overlapped.
        if (executable)
            trackStores(op, at);

        // 5. writes and accumulates define their regions. Only the
        //    executable-only buffer use-before-def check reads them.
        if (executable) {
            for (const auto *refs : {&fx.writes, &fx.accums}) {
                for (const RegionRef &r : *refs) {
                    if (ctx != nullptr) {
                        staged_.push_back(StagedDef{
                            StagedDef::Kind::kBuf,
                            static_cast<std::int64_t>(r.key.space),
                            r.key.core, r.begin, r.end});
                    } else {
                        defined_[r.key].add(r.begin, r.end);
                    }
                }
            }
        }

        // 6. crossbar programming: retire older unread programming of
        //    the same rows (weights replaced between program and use).
        //    Compressed templates only activate the representative
        //    replica's crossbars, so "never used" is only provable on
        //    executable flows; only they track the stores.
        for (const XbRef &x : fx.xb_writes) {
            XbState &state = xbs_[XbKey{x.core, x.xb}];
            if (executable)
                retireXbStores(state, x, op, at);
            if (ctx != nullptr) {
                staged_.push_back(StagedDef{StagedDef::Kind::kXb, x.core,
                                            x.xb, x.begin, x.end, &state});
            } else {
                state.programmed.add(x.begin, x.end);
            }
        }

        // 7. core-state installs (stores tracked as for crossbars).
        for (std::int64_t core : fx.core_writes) {
            if (executable) {
                auto it = core_stores_.find(core);
                if (it != core_stores_.end() && !it->second.any_read) {
                    record(makeDiag(
                        DiagSeverity::kWarning, check::kCoreOverwrite,
                        StatusCode::kFailedPrecondition, it->second.section,
                        it->second.index,
                        strformat("%s installs weights on core %lld that "
                                  "%s replaces before any use",
                                  it->second.op->toString().c_str(),
                                  static_cast<long long>(core),
                                  op.toString().c_str())));
                }
                core_stores_[core] = CoreStore{false, &op, section_, at};
            }
            if (ctx != nullptr)
                staged_.push_back(StagedDef{StagedDef::Kind::kCore, core});
            else
                cores_programmed_.insert(core);
        }

        // 8. capacity events: defs and uses at this op's timestamp.
        for (const RegionRef &w : fx.writes)
            addEvent(bufEvents(w.key),
                     Event{time_, w.begin, w.end, at, section_, true});
        for (const RegionRef &a : fx.accums) {
            BufEvents &buf = bufEvents(a.key);
            addEvent(buf, Event{time_, a.begin, a.end, at, section_, true});
            addEvent(buf, Event{time_, a.begin, a.end, at, section_, false});
        }
        for (const RegionRef &r : fx.reads)
            addEvent(bufEvents(r.key),
                     Event{time_, r.begin, r.end, at, section_, false});
    }

    BufEvents &
    bufEvents(const BufKey &key)
    {
        if (last_events_ == nullptr || !(last_events_key_ == key)) {
            last_events_ = &events_[key];
            last_events_key_ = key;
        }
        return *last_events_;
    }

    /**
     * Appends a capacity event, dropping the ones the live-range sweep
     * would treat as no-ops. Every event at one timestamp belongs to
     * one op or one parallel block, so they share a diagnostic anchor:
     *  - a def or use of elements all defined at this timestamp already
     *    changes nothing (their chain starts now and is live now);
     *  - consecutive defs, or consecutive uses, at one timestamp whose
     *    ranges touch act as their union (a strided mov's blocks).
     */
    static void
    addEvent(BufEvents &buf, const Event &ev)
    {
        if (buf.t != ev.t) {
            buf.t = ev.t;
            buf.defs_at_t.clear();
        } else if (!buf.defs_at_t.firstUncovered(ev.begin, ev.end)) {
            return;
        }
        if (ev.is_def)
            buf.defs_at_t.add(ev.begin, ev.end);
        if (!buf.events.empty()) {
            Event &last = buf.events.back();
            if (last.t == ev.t && last.is_def == ev.is_def &&
                ev.begin <= last.end && last.begin <= ev.end) {
                last.begin = std::min(last.begin, ev.begin);
                last.end = std::max(last.end, ev.end);
                return;
            }
        }
        buf.events.push_back(ev);
    }

    /** Dead-store bookkeeping of one op (fx_ holds its effects). */
    void
    trackStores(const MetaOp &op, std::int64_t at)
    {
        auto markReads = [&](const std::vector<RegionRef> &refs) {
            for (const RegionRef &r : refs) {
                auto it = stores_.find(r.key);
                if (it == stores_.end())
                    continue;
                auto &slices = it->second;
                auto s = slices.upper_bound(r.begin);
                if (s != slices.begin() &&
                    std::prev(s)->second.end > r.begin)
                    --s;
                for (; s != slices.end() && s->first < r.end; ++s)
                    store_pool_[s->second.store].any_read = true;
            }
        };
        markReads(fx_.reads);
        markReads(fx_.accums);
        for (const RegionRef &w : fx_.writes) {
            auto it = stores_.find(w.key);
            if (it == stores_.end())
                continue;
            auto &slices = it->second;
            splitSliceAt(slices, w.begin);
            splitSliceAt(slices, w.end);
            auto s = slices.lower_bound(w.begin);
            while (s != slices.end() && s->first < w.end) {
                PendingStore &store = store_pool_[s->second.store];
                store.remaining -= s->second.end - s->first;
                if (store.remaining == 0 && !store.any_read) {
                    record(makeDiag(
                        DiagSeverity::kWarning, check::kDeadStore,
                        StatusCode::kFailedPrecondition, store.section,
                        store.index,
                        strformat("%s is fully overwritten by %s before "
                                  "any read",
                                  store.op->toString().c_str(),
                                  op.toString().c_str())));
                }
                s = slices.erase(s);
            }
        }
        // Each plain write opens a pending store per buffer, over the
        // union of the op's write regions in that buffer.
        written_ = fx_.writes;
        std::sort(written_.begin(), written_.end(),
                  [](const RegionRef &x, const RegionRef &y) {
                      if (!(x.key == y.key))
                          return x.key < y.key;
                      return x.begin < y.begin;
                  });
        std::size_t i = 0;
        while (i < written_.size()) {
            const BufKey key = written_[i].key;
            const std::size_t id = store_pool_.size();
            store_pool_.push_back(PendingStore{0, false, &op, section_, at});
            auto &slices = stores_[key];
            while (i < written_.size() && written_[i].key == key) {
                std::int64_t begin = written_[i].begin;
                std::int64_t end = written_[i].end;
                for (++i; i < written_.size() && written_[i].key == key &&
                          written_[i].begin <= end;
                     ++i)
                    end = std::max(end, written_[i].end);
                store_pool_[id].remaining += end - begin;
                slices.insert_or_assign(begin, StoreSlice{end, id});
            }
        }
    }

    /** Crossbar programming @p x by @p op overwrites older programming
     * of the same rows; unread programming it fully replaces is lost. */
    void
    retireXbStores(XbState &state, const XbRef &x, const MetaOp &op,
                   std::int64_t at)
    {
        std::vector<XbStore> &list = state.stores;
        for (XbStore &store : list) {
            if (!store.pending.intersects(x.begin, x.end))
                continue;
            store.pending.subtract(x.begin, x.end);
            if (store.pending.empty() && !store.any_read) {
                record(makeDiag(
                    DiagSeverity::kError, check::kXbarOverwrite,
                    StatusCode::kFailedPrecondition, store.section,
                    store.index,
                    strformat("%s programs crossbar %s but is overwritten "
                              "by %s before the weights are ever used",
                              store.op->toString().c_str(),
                              xbName(x.core, x.xb).c_str(),
                              op.toString().c_str())));
            }
        }
        list.erase(std::remove_if(list.begin(), list.end(),
                                  [](const XbStore &s) {
                                      return s.pending.empty();
                                  }),
                   list.end());
        XbStore store;
        store.pending.add(x.begin, x.end);
        store.op = &op;
        store.section = section_;
        store.index = at;
        list.push_back(std::move(store));
    }

    // ----- parallel blocks --------------------------------------------

    /** One interval access of a parallel arm, as its op's dataflow
     * walk records it. */
    struct ArmAccess {
        std::int64_t a = 0, b = 0; //!< (space, core), (core, xb), (core, 0)
        std::int64_t begin = 0, end = 0;
        const MetaOp *op = nullptr;
        Res res = kBufRes;
        Cat cat = kRead;
        int arm = 0;
    };

    /** One interval endpoint in the conflict sweep. */
    struct SweepEv {
        std::int64_t pos = 0;
        int delta = 0; //!< +1 opens an interval, -1 closes it
        int arm = 0;
        Cat cat = kRead;
    };

    /** What a race finding names: an access, or a run of buffer
     * accesses consecutive in one arm's list for a category that share
     * the buffer and the op or its text (a strided mov's blocks). */
    struct RaceRecord {
        std::size_t access = 0; //!< its first access
        IntervalSet set;        //!< the ranges of all its accesses
    };

    /** A record's hull, first to last element, in the pair sweep. */
    struct RecordIv {
        std::int64_t begin = 0, end = 0;
        std::size_t rec = 0;
    };

    /** Two racing records of different arms, and their first overlap. */
    struct RaceHit {
        int arm_lo = 0, arm_hi = 0;
        int kind = 0; //!< 2 * rule, + 1 if the lower arm holds its y, not x
        std::size_t x = 0, y = 0; //!< records
        Interval at;
    };

    void
    addAccess(Res res, std::int64_t a, std::int64_t b, std::int64_t begin,
              std::int64_t end, int arm, Cat cat, const MetaOp &op)
    {
        if (begin < end) {
            accesses_.push_back(
                ArmAccess{a, b, begin, end, &op, res, cat, arm});
        }
    }

    /** Records the accesses of one arm op (fx_ holds its effects) for
     * its block's race check. */
    void
    recordAccesses(const MetaOp &op, int arm)
    {
        const std::pair<const std::vector<RegionRef> *, Cat> regions[] = {
            {&fx_.writes, kWrite}, {&fx_.accums, kAccum},
            {&fx_.reads, kRead}};
        for (const auto &[refs, cat] : regions) {
            for (const RegionRef &r : *refs)
                addAccess(kBufRes, static_cast<std::int64_t>(r.key.space),
                          r.key.core, r.begin, r.end, arm, cat, op);
        }
        for (const XbRef &x : fx_.xb_writes)
            addAccess(kXbRes, x.core, x.xb, x.begin, x.end, arm, kWrite, op);
        for (const XbRef &x : fx_.xb_reads)
            addAccess(kXbRes, x.core, x.xb, x.begin, x.end, arm, kRead, op);
        for (std::int64_t core : fx_.core_writes)
            addAccess(kCoreRes, core, 0, 0, 1, arm, kWrite, op);
        for (std::int64_t core : fx_.core_reads)
            addAccess(kCoreRes, core, 0, 0, 1, arm, kRead, op);
    }

    /**
     * The race check of one block, over its recorded accesses grouped
     * per buffer, crossbar or core: groupRaces sweeps a group that spans
     * two arms and holds two categories a rule pairs, and findRaces
     * lists a racing group's pairs. Each (arm pair, rule, direction)
     * takes the smallest message of its pairs, and the block reports
     * each message once. Clean blocks cost O(E log E) in their E
     * accesses; racing ones also their pairs.
     */
    void
    checkRaces(int arms, std::int64_t anchor)
    {
        // Sorted by resource through an index, so the list stays in op
        // order for the records.
        by_res_.resize(accesses_.size());
        for (std::size_t i = 0; i < by_res_.size(); ++i)
            by_res_[i] = i;
        std::sort(by_res_.begin(), by_res_.end(),
                  [this](std::size_t i, std::size_t j) {
                      const ArmAccess &x = accesses_[i];
                      const ArmAccess &y = accesses_[j];
                      return std::tie(x.res, x.a, x.b) <
                             std::tie(y.res, y.a, y.b);
                  });
        records_.clear();
        hits_.clear();
        for (std::size_t i = 0; i < by_res_.size();) {
            const ArmAccess &first = accesses_[by_res_[i]];
            std::size_t j = i;
            unsigned cats = 0;
            bool two_arms = false;
            for (; j < by_res_.size(); ++j) {
                const ArmAccess &acc = accesses_[by_res_[j]];
                if (acc.res != first.res || acc.a != first.a ||
                    acc.b != first.b)
                    break;
                cats |= 1U << acc.cat;
                two_arms = two_arms || acc.arm != first.arm;
            }
            const auto pairs = [&] {
                for (const RaceRule &r : kRaceRules) {
                    if (r.res == first.res && (cats >> r.x & cats >> r.y & 1U))
                        return true;
                }
                return false;
            };
            if (two_arms && pairs() && groupRaces(i, j, first.res, arms)) {
                if (records_.empty())
                    buildRecords();
                findRaces(i, j);
            }
            i = j;
        }

        const auto key = [](const RaceHit &h) {
            return std::tie(h.arm_lo, h.arm_hi, h.kind);
        };
        std::sort(hits_.begin(), hits_.end(),
                  [&key](const RaceHit &x, const RaceHit &y) {
                      return key(x) < key(y);
                  });
        // The block's findings share severity, section and anchor, and a
        // message names its rule and so its check: of equal messages,
        // finalize() would keep only the first.
        race_messages_.clear();
        std::string best, message;
        for (std::size_t i = 0; i < hits_.size();) {
            renderHit(hits_[i], &best);
            std::size_t j = i + 1;
            for (; j < hits_.size() && key(hits_[j]) == key(hits_[i]); ++j) {
                renderHit(hits_[j], &message);
                if (message < best)
                    best.swap(message);
            }
            if (race_messages_.insert(best).second) {
                record(makeDiag(DiagSeverity::kError,
                                kRaceRules[hits_[i].kind / 2].check,
                                StatusCode::kInvalidArgument, section_,
                                anchor, best));
            }
            i = j;
        }
    }

    /**
     * Whether two arms race on the group by_res_[first, last), all on
     * one resource of class @p res: an endpoint sweep (closes before
     * opens, so touching ranges do not overlap) that tracks per category
     * how many arms are open and the sum of their ids. An open races
     * when a category it pairs with has an arm open besides its own.
     */
    bool
    groupRaces(std::size_t first, std::size_t last, Res res, int arms)
    {
        sweep_.clear();
        for (std::size_t i = first; i < last; ++i) {
            const ArmAccess &acc = accesses_[by_res_[i]];
            sweep_.push_back(SweepEv{acc.begin, 1, acc.arm, acc.cat});
            sweep_.push_back(SweepEv{acc.end, -1, acc.arm, acc.cat});
        }
        std::sort(sweep_.begin(), sweep_.end(),
                  [](const SweepEv &x, const SweepEv &y) {
                      if (x.pos != y.pos)
                          return x.pos < y.pos;
                      return x.delta < y.delta;
                  });
        for (std::vector<int> &counts : open_)
            counts.assign(static_cast<std::size_t>(arms), 0);
        int n[3] = {0, 0, 0};            // arms with an open interval
        std::int64_t sum[3] = {0, 0, 0}; // sum of those arms' ids
        for (const SweepEv &ev : sweep_) {
            int &count = open_[ev.cat][static_cast<std::size_t>(ev.arm)];
            const bool was_open = count > 0;
            count += ev.delta;
            if (was_open != (count > 0)) {
                n[ev.cat] += ev.delta;
                sum[ev.cat] += ev.delta * ev.arm;
            }
            if (ev.delta < 0)
                continue; // state can only turn racy on an open
            for (int c = 0; c < 3; ++c) {
                if (kRaceTable[res][ev.cat][c] != 0 &&
                    (n[c] >= 2 || (n[c] == 1 && sum[c] != ev.arm)))
                    return true;
            }
        }
        return false;
    }

    /** @p op's text, rendered once per racing block. */
    const std::string &
    textOf(const MetaOp *op)
    {
        const auto [it, fresh] = texts_.try_emplace(op);
        if (fresh)
            it->second = op->toString();
        return it->second;
    }

    /** The records of the block's accesses, in op order (an arm's
     * accesses are contiguous). */
    void
    buildRecords()
    {
        texts_.clear();
        rec_of_.resize(accesses_.size());
        std::size_t last[3] = {0, 0, 0}; // + 1: the arm's last record
        for (std::size_t i = 0; i < accesses_.size(); ++i) {
            const ArmAccess &acc = accesses_[i];
            if (i > 0 && acc.arm != accesses_[i - 1].arm)
                last[kWrite] = last[kAccum] = last[kRead] = 0;
            const std::size_t prev = last[acc.cat];
            if (acc.res == kBufRes && prev > 0) {
                const ArmAccess &head = accesses_[records_[prev - 1].access];
                if (head.a == acc.a && head.b == acc.b &&
                    (head.op == acc.op ||
                     (head.op->kind == acc.op->kind &&
                      textOf(head.op) == textOf(acc.op)))) {
                    records_[prev - 1].set.add(acc.begin, acc.end);
                    rec_of_[i] = prev - 1;
                    continue;
                }
            }
            rec_of_[i] = records_.size();
            if (acc.res == kBufRes)
                last[acc.cat] = records_.size() + 1;
            records_.push_back(RaceRecord{i, {}});
            records_.back().set.add(acc.begin, acc.end);
        }
    }

    /**
     * Lists the racing pairs of the group by_res_[first, last): sweeps
     * its records' hulls in order of start, keeping the open ones per
     * category, and pairs each with the open ones of other arms in the
     * categories it races with whose ranges overlap its own. A pair of
     * records is named by its first overlap.
     */
    void
    findRaces(std::size_t first, std::size_t last)
    {
        ivs_.clear();
        for (std::size_t k = first; k < last; ++k) {
            const std::size_t i = by_res_[k];
            const RaceRecord &rec = records_[rec_of_[i]];
            if (rec.access != i)
                continue; // listed with its first access
            ivs_.push_back(RecordIv{rec.set.intervals().front().begin,
                                    rec.set.intervals().back().end,
                                    rec_of_[i]});
        }
        std::sort(ivs_.begin(), ivs_.end(),
                  [](const RecordIv &x, const RecordIv &y) {
                      return x.begin < y.begin;
                  });
        for (std::vector<RecordIv> &open : open_ivs_)
            open.clear();
        for (const RecordIv &x : ivs_) {
            const RaceRecord &rx = records_[x.rec];
            const ArmAccess &ax = accesses_[rx.access];
            for (int c = 0; c < 3; ++c) {
                const int rule = kRaceTable[ax.res][ax.cat][c] - 1;
                if (rule < 0)
                    continue;
                std::vector<RecordIv> &open = open_ivs_[c];
                std::erase_if(open, [&x](const RecordIv &y) {
                    return y.end <= x.begin;
                });
                for (const RecordIv &y : open) {
                    const RaceRecord &ry = records_[y.rec];
                    const ArmAccess &ay = accesses_[ry.access];
                    if (ay.arm == ax.arm)
                        continue;
                    const std::optional<Interval> at =
                        rx.set.firstOverlap(ry.set);
                    if (!at)
                        continue; // the hulls overlap, the ranges do not
                    const Cat lo_cat = ax.arm < ay.arm ? ax.cat : ay.cat;
                    hits_.push_back(RaceHit{
                        std::min(ax.arm, ay.arm), std::max(ax.arm, ay.arm),
                        2 * rule + (lo_cat != kRaceRules[rule].x ? 1 : 0),
                        x.rec, y.rec, *at});
                }
            }
            open_ivs_[ax.cat].push_back(x);
        }
    }

    /** Renders the finding of @p hit into @p out; the two op texts are
     * ordered, so it does not depend on arm order. */
    void
    renderHit(const RaceHit &hit, std::string *out)
    {
        const ArmAccess &x = accesses_[records_[hit.x].access];
        const std::string *lo = &textOf(x.op);
        const std::string *hi = &textOf(accesses_[records_[hit.y].access].op);
        if (*hi < *lo)
            std::swap(lo, hi);
        out->assign("parallel arms ").append(kRaceRules[hit.kind / 2].what);
        switch (x.res) {
          case kBufRes:
            out->append(" on ").append(
                regionName(BufKey{static_cast<MemSpace>(x.a), x.b}, hit.at));
            break;
          case kXbRes:
            out->append(" on crossbar ")
                .append(xbName(x.a, x.b))
                .append(" rows ")
                .append(rangeName(hit.at));
            break;
          case kCoreRes:
            out->append(" core ").append(std::to_string(x.a) + " state");
            break;
        }
        out->append(": ").append(*lo).append(" vs ").append(*hi);
    }

    /** Walks a parallel block anchored at statement @p anchor; returns
     * the index after its subtree. */
    std::int64_t
    walkParallel(const Stmt &block, std::int64_t anchor)
    {
        std::vector<MopDiagnostic> local;
        std::vector<MopDiagnostic> *saved = block_diags_;
        block_diags_ = &local;

        // Dataflow per arm against the pre-block state: arms may
        // execute in any order, so no arm may depend on a sibling.
        // Defs are staged and merged only after every arm has run.
        // Outside a replay the walk also records the arms' accesses.
        staged_.clear();
        accesses_.clear();
        const int arms = static_cast<int>(block.body.size());
        std::int64_t index = anchor + 1;
        for (int i = 0; i < arms; ++i)
            index += walkArm(block.body[static_cast<std::size_t>(i)],
                             ArmCtx{anchor, staged_.size(), i});

        // Races once per block: a replayed repeat body would only
        // repeat the findings.
        if (!replaying_)
            checkRaces(arms, anchor);

        for (const StagedDef &def : staged_) {
            switch (def.kind) {
              case StagedDef::Kind::kBuf:
                defined_[BufKey{static_cast<MemSpace>(def.a), def.b}].add(
                    def.begin, def.end);
                break;
              case StagedDef::Kind::kXb:
                def.xb->programmed.add(def.begin, def.end);
                break;
              case StagedDef::Kind::kCore:
                cores_programmed_.insert(def.a);
                break;
            }
        }
        ++time_; // all arms share one timestamp

        // Canonical order: findings inside a block are invariant under
        // arm permutation.
        block_diags_ = saved;
        std::sort(local.begin(), local.end(),
                  [](const MopDiagnostic &a, const MopDiagnostic &b) {
                      return std::tie(a.check, a.message, a.section,
                                      a.stmt_index) <
                             std::tie(b.check, b.message, b.section,
                                      b.stmt_index);
                  });
        for (MopDiagnostic &diag : local)
            record(std::move(diag));
        return index;
    }

    // ----- end-of-program reporting -----------------------------------

    void
    finish(AnalyzeResult *result)
    {
        // Unused programming: only meaningful for executable flows —
        // compressed templates activate just the representative
        // replica's crossbars.
        if (options_.executable) {
            std::vector<std::pair<XbKey, const XbState *>> xbs;
            xbs.reserve(xbs_.size());
            for (const auto &[key, state] : xbs_)
                xbs.emplace_back(key, &state);
            std::sort(xbs.begin(), xbs.end(),
                      [](const auto &x, const auto &y) {
                          return x.first < y.first;
                      });
            for (const auto &[key, state] : xbs) {
                for (const XbStore &store : state->stores) {
                    if (store.any_read)
                        continue;
                    finalize(makeDiag(
                        DiagSeverity::kWarning, check::kXbarUnused,
                        StatusCode::kFailedPrecondition, store.section,
                        store.index,
                        strformat("%s programs crossbar %s but it is never "
                                  "activated",
                                  store.op->toString().c_str(),
                                  xbName(key.core, key.xb).c_str())));
                }
            }
            for (const auto &[core, store] : core_stores_) {
                if (store.any_read)
                    continue;
                finalize(makeDiag(
                    DiagSeverity::kWarning, check::kCoreUnused,
                    StatusCode::kFailedPrecondition, store.section,
                    store.index,
                    strformat("%s installs weights on core %lld but it "
                              "never computes",
                              store.op->toString().c_str(),
                              static_cast<long long>(core))));
            }
        }

        sweepCapacity(result);
        result->crossbars_programmed =
            static_cast<std::int64_t>(xbs_.size());
        for (MopDiagnostic &diag : diags_)
            result->diagnostics.push_back(std::move(diag));
    }

    /** Peak live elements of one buffer, and the first timestamp at
     * which it is reached. */
    struct Peak {
        std::int64_t elems = 0;
        std::int64_t t = 0; //!< valid when elems > 0
    };

    /**
     * Live-range sweep over one buffer's events: a region is live from
     * each def to its last use before the next def (defs with no later
     * use stay live to the end — program outputs are read externally).
     * The events' endpoints cut the buffer into elementary segments,
     * each holding the open def chain of its elements, so the cost is
     * O(events + segments touched + timestamps), not region widths.
     */
    Peak
    peakLive(const std::vector<Event> &events, std::int64_t t_end)
    {
        if (events.empty())
            return Peak{};
        // Rank the endpoints once: event i spans segments
        // [rank_[2i], rank_[2i + 1]), and segment s is
        // [cuts_[s], cuts_[s + 1]).
        endpoints_.clear();
        endpoints_.reserve(2 * events.size());
        for (std::size_t i = 0; i < events.size(); ++i) {
            endpoints_.push_back(Endpoint{events[i].begin, 2 * i});
            endpoints_.push_back(Endpoint{events[i].end, 2 * i + 1});
        }
        std::sort(endpoints_.begin(), endpoints_.end(),
                  [](const Endpoint &x, const Endpoint &y) {
                      return x.pos < y.pos;
                  });
        cuts_.clear();
        rank_.resize(endpoints_.size());
        for (const Endpoint &e : endpoints_) {
            if (cuts_.empty() || cuts_.back() != e.pos)
                cuts_.push_back(e.pos);
            rank_[e.slot] = cuts_.size() - 1;
        }
        const std::size_t segments = cuts_.size() - 1;
        chains_.assign(segments, Chain{});

        // (timestamp, live-element change) pairs. The chains one def,
        // or the program end, closes with the same def and end add one
        // pair for their total width.
        deltas_.clear();
        std::int64_t run_def = kNoChain, run_end = 0, run_width = 0;
        const auto flush = [this, &run_def, &run_end, &run_width]() {
            if (run_width > 0) {
                deltas_.emplace_back(run_def, run_width);
                deltas_.emplace_back(run_end + 1, -run_width);
            }
            run_width = 0;
        };
        const auto closeChain = [&](std::size_t s, std::int64_t live_end) {
            if (run_width > 0 &&
                (run_def != chains_[s].def || run_end != live_end))
                flush();
            run_def = chains_[s].def;
            run_end = live_end;
            run_width += cuts_[s + 1] - cuts_[s];
        };
        for (std::size_t i = 0; i < events.size(); ++i) {
            const Event &ev = events[i];
            const std::size_t first = rank_[2 * i], last = rank_[2 * i + 1];
            if (!ev.is_def) {
                // Uses outside any chain are use-before-def — reported
                // elsewhere, ignored here.
                for (std::size_t s = first; s < last; ++s) {
                    if (chains_[s].def != kNoChain)
                        chains_[s].use = ev.t;
                }
                continue;
            }
            // Defs at the same timestamp (parallel arms) extend the same
            // chain; a later def closes it. Either way the range ends
            // up defined now (a use at the def's own timestamp does not
            // extend its live range).
            for (std::size_t s = first; s < last; ++s) {
                Chain &chain = chains_[s];
                if (chain.def != kNoChain && chain.def != ev.t)
                    closeChain(s, std::max(chain.use, chain.def));
                chain = Chain{ev.t, -2};
            }
            flush();
        }
        // Chains never redefined stay live to the program end.
        for (std::size_t s = 0; s < segments; ++s) {
            if (chains_[s].def != kNoChain)
                closeChain(s, t_end);
        }
        flush();
        return peakOfDeltas(events.front().t, t_end + 1);
    }

    /**
     * The highest live count after any timestamp in deltas_, which lie
     * in [t_lo, t_hi], and the first timestamp reaching it. Within one
     * timestamp frees before allocations can never exceed the count
     * after it, so only per-timestamp sums matter: a dense array over
     * the range when the pairs are many, a sort when they are few.
     */
    Peak
    peakOfDeltas(std::int64_t t_lo, std::int64_t t_hi)
    {
        Peak peak;
        std::int64_t live = 0;
        const std::int64_t span = t_hi - t_lo + 1;
        if (span <= 16 * static_cast<std::int64_t>(deltas_.size())) {
            live_at_.assign(static_cast<std::size_t>(span), 0);
            for (const auto &[t, change] : deltas_)
                live_at_[static_cast<std::size_t>(t - t_lo)] += change;
            for (std::int64_t i = 0; i < span; ++i) {
                live += live_at_[static_cast<std::size_t>(i)];
                if (live > peak.elems)
                    peak = Peak{live, t_lo + i};
            }
            return peak;
        }
        std::sort(deltas_.begin(), deltas_.end(),
                  [](const auto &x, const auto &y) {
                      return x.first < y.first;
                  });
        for (std::size_t i = 0; i < deltas_.size();) {
            const std::int64_t t = deltas_[i].first;
            for (; i < deltas_.size() && deltas_[i].first == t; ++i)
                live += deltas_[i].second;
            if (live > peak.elems)
                peak = Peak{live, t};
        }
        return peak;
    }

    /** Capacity check per buffer against the architecture's sizes. */
    void
    sweepCapacity(AnalyzeResult *result)
    {
        const std::int64_t t_end = time_ + 1;
        for (const auto &[key, buf] : events_) {
            const Peak live = peakLive(buf.events, t_end);
            const std::int64_t peak = live.elems;

            std::int64_t capacity = 0;
            const char *check_id = check::kCapacityL0;
            double size_kib = 0.0;
            if (key.space == MemSpace::kL0) {
                size_kib = arch_.chip.l0_size_kib;
                result->l0_peak_live_elems =
                    std::max(result->l0_peak_live_elems, peak);
            } else {
                size_kib = arch_.core.l1_size_kib;
                check_id = check::kCapacityL1;
                result->l1_peak_live_elems =
                    std::max(result->l1_peak_live_elems, peak);
            }
            if (size_kib > 0)
                capacity =
                    static_cast<std::int64_t>(size_kib * 1024.0 / 4.0);
            // The L0 footprint check follows the same knob as the
            // structural L0 address bound: emitted flows address a
            // virtual L0 space (see ValidateOptions).
            const bool enforce =
                key.space != MemSpace::kL0
                || options_.validate.enforce_l0_capacity;
            if (enforce && capacity > 0 && peak > capacity) {
                // Every event at one timestamp shares its anchor.
                const Event &ev = *std::lower_bound(
                    buf.events.begin(), buf.events.end(), live.t,
                    [](const Event &e, std::int64_t t) { return e.t < t; });
                finalize(makeDiag(
                    DiagSeverity::kError, check_id,
                    StatusCode::kResourceExhausted, ev.section, ev.index,
                    strformat("peak live %s footprint %lld elems (%lld "
                              "bytes) exceeds capacity %lld elems (%.5g "
                              "KiB)",
                              bufKeyName(key).c_str(),
                              static_cast<long long>(peak),
                              static_cast<long long>(peak * 4),
                              static_cast<long long>(capacity),
                              size_kib)));
            }
        }
    }

    const CimArchitecture &arch_;
    AnalyzeOptions options_;
    const char *section_ = "";
    std::int64_t time_ = 0;
    bool replaying_ = false; //!< in a repeat body's second pass
    std::int64_t ops_ = 0;   //!< op statements walked outside replays

    std::vector<MopDiagnostic> diags_;
    std::vector<MopDiagnostic> *block_diags_ = nullptr;
    std::set<std::string> seen_;

    std::map<BufKey, IntervalSet> defined_; //!< executable flows only
    std::vector<PendingStore> store_pool_;
    std::map<BufKey, std::map<std::int64_t, StoreSlice>> stores_;
    std::unordered_map<XbKey, XbState, XbKeyHash> xbs_;
    std::map<std::int64_t, CoreStore> core_stores_;
    std::set<std::int64_t> cores_programmed_;
    std::map<BufKey, BufEvents> events_;
    BufEvents *last_events_ = nullptr; //!< events_[last_events_key_]
    BufKey last_events_key_;

    // Scratch reused across ops and blocks.
    OpEffects fx_;
    std::vector<RegionRef> written_;
    IntervalSet own_;
    std::vector<StagedDef> staged_;
    std::vector<ArmAccess> accesses_; //!< the current block's, op order
    std::vector<std::size_t> by_res_; //!< accesses_ sorted by resource
    std::vector<SweepEv> sweep_;
    std::vector<int> open_[3]; //!< per category: open intervals per arm

    // Race findings scratch (racing blocks only; see checkRaces).
    std::vector<std::size_t> rec_of_; //!< per access: its record
    std::vector<RaceRecord> records_;
    std::vector<RecordIv> ivs_;
    std::vector<RecordIv> open_ivs_[3]; //!< per category
    std::vector<RaceHit> hits_;
    std::unordered_map<const MetaOp *, std::string> texts_;
    std::unordered_set<std::string> race_messages_; //!< the block's so far

    // Capacity sweep scratch (see peakLive).
    static constexpr std::int64_t kNoChain =
        std::numeric_limits<std::int64_t>::min();
    struct Endpoint {
        std::int64_t pos = 0;
        std::size_t slot = 0; //!< 2 * event index, + 1 for its end
    };
    std::vector<Endpoint> endpoints_;
    std::vector<std::size_t> rank_;       //!< per endpoint slot
    std::vector<std::int64_t> cuts_;      //!< segment boundaries
    /** The open def chain of one segment's elements. */
    struct Chain {
        std::int64_t def = kNoChain; //!< defining timestamp, if any
        std::int64_t use = -2;       //!< latest use, < def if none
    };
    std::vector<Chain> chains_; //!< per segment
    std::vector<std::pair<std::int64_t, std::int64_t>> deltas_;
    std::vector<std::int64_t> live_at_; //!< dense per-timestamp sums
};

} // namespace

std::int64_t
AnalyzeResult::errors() const
{
    return countDiagnostics(diagnostics, DiagSeverity::kError);
}

std::int64_t
AnalyzeResult::warnings() const
{
    return countDiagnostics(diagnostics, DiagSeverity::kWarning);
}

std::string
AnalyzeResult::summary() const
{
    const std::string stats = strformat(
        "%lld statements, peak live L0 %lld / L1 %lld elems, "
        "%lld crossbars programmed",
        static_cast<long long>(statements),
        static_cast<long long>(l0_peak_live_elems),
        static_cast<long long>(l1_peak_live_elems),
        static_cast<long long>(crossbars_programmed));
    if (clean())
        return "mopcheck: clean (" + stats + ")";
    return strformat("mopcheck: %lld errors, %lld warnings (%s)",
                     static_cast<long long>(errors()),
                     static_cast<long long>(warnings()), stats.c_str());
}

std::string
AnalyzeResult::table() const
{
    return renderDiagnosticsTable(diagnostics);
}

AnalyzeResult
analyzeProgram(const MopProgram &program, const CimArchitecture &arch,
               const AnalyzeOptions &options)
{
    AnalyzeResult result;
    if (options.structural) {
        result.diagnostics =
            collectProgramDiagnostics(program, arch, options.validate);
    }
    Analyzer analyzer(arch, options);
    analyzer.run(program, &result);
    return result;
}

} // namespace cimmlc

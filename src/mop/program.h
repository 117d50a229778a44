/**
 * @file
 * Meta-operator programs: the statement tree (sequence / parallel /
 * repeat) that code generation emits and the simulators consume.
 */
#ifndef CIMMLC_MOP_PROGRAM_H
#define CIMMLC_MOP_PROGRAM_H

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "mop/metaop.h"

namespace cimmlc {

/** A statement: one op, or a structured block of statements. */
struct Stmt {
    enum class Kind { kOp, kParallel, kRepeat };

    Kind kind = Kind::kOp;
    MetaOp op;               //!< valid when kind == kOp
    std::vector<Stmt> body;  //!< valid for kParallel / kRepeat
    std::int64_t repeat = 1; //!< valid for kRepeat

    static Stmt
    makeOp(MetaOp op)
    {
        Stmt s;
        s.kind = Kind::kOp;
        s.op = std::move(op);
        return s;
    }

    static Stmt
    makeParallel(std::vector<Stmt> body)
    {
        Stmt s;
        s.kind = Kind::kParallel;
        s.body = std::move(body);
        return s;
    }

    static Stmt
    makeRepeat(std::int64_t count, std::vector<Stmt> body)
    {
        Stmt s;
        s.kind = Kind::kRepeat;
        s.repeat = count;
        s.body = std::move(body);
        return s;
    }
};

// Large flows hold hundreds of thousands of statements, and the page
// faults of a compile scale with their bytes (DESIGN.md "Meta-op IR
// layout"): keep kind-specific operands out of line.
static_assert(sizeof(Stmt) <= 200, "Stmt grew past 200 bytes");
static_assert(std::is_nothrow_move_constructible_v<Stmt>,
              "growing a statement vector must move, not copy");

/**
 * Aggregate op counts of a program (reported by `summary()`), with
 * repeats expanded. A repeat of count <= 0 runs zero times, as in the
 * simulators, so it adds nothing; every sum and product saturates at
 * INT64_MAX.
 */
struct MopCounts {
    std::int64_t cim_reads = 0;
    std::int64_t cim_writes = 0;
    std::int64_t dcom = 0;
    std::int64_t mov = 0;
    std::int64_t parallel_blocks = 0;

    std::int64_t total() const;

    /** Counts one more op of @p kind. */
    void
    addOp(MetaOpKind kind)
    {
        std::int64_t &n = opsOf(kind);
        n += n < std::numeric_limits<std::int64_t>::max() ? 1 : 0;
    }

    MopCounts &operator+=(const MopCounts &other);

    /** These counts run @p times times. */
    MopCounts repeated(std::int64_t times) const;

    bool operator==(const MopCounts &) const = default;

  private:
    std::int64_t &
    opsOf(MetaOpKind kind)
    {
        switch (kind) {
          case MetaOpKind::kReadCore:
          case MetaOpKind::kReadXb:
          case MetaOpKind::kReadRow:
            return cim_reads;
          case MetaOpKind::kWriteCore:
          case MetaOpKind::kWriteXb:
          case MetaOpKind::kWriteRow:
            return cim_writes;
          case MetaOpKind::kDcom:
            return dcom;
          case MetaOpKind::kMov:
            break;
        }
        return mov;
    }
};

/**
 * Statements under construction and their op counts: a section of a
 * flow, a `parallel` block's arms or a `repeat` body. Statements go in
 * only through the append members, and each adds what it appends to
 * counts(), so nothing walks a finished flow to count it. See
 * DESIGN.md "Meta-op IR layout".
 */
class StmtBuilder
{
  public:
    /** Appends an op statement of @p kind and returns its op, to fill
     * in place before appending again; its kind stays @p kind. */
    MetaOp &
    appendOp(MetaOpKind kind)
    {
        counts_.addOp(kind);
        MetaOp &op = stmts_.emplace_back().op;
        op.kind = kind;
        return op;
    }

    /** Appends @p op as one statement. */
    void
    append(MetaOp op)
    {
        MetaOp &slot = appendOp(op.kind);
        slot = std::move(op);
    }

    /** Appends a hand-built statement, counting its subtree once. */
    void append(Stmt stmt);

    /** Appends `parallel { arms }`. */
    void appendParallel(StmtBuilder arms);

    /** Appends `repeat count { body }`. */
    void appendRepeat(std::int64_t count, StmtBuilder body);

    void reserve(std::size_t n) { stmts_.reserve(n); }

    const std::vector<Stmt> &stmts() const { return stmts_; }
    const MopCounts &counts() const { return counts_; }

  private:
    friend class MopProgram; // edit() recounts a section it changed

    void recount();

    std::vector<Stmt> stmts_;
    MopCounts counts_;
};

/**
 * A compiled meta-operator flow.
 *
 * Mirrors the Figure 16 structure: an `init` section programs weights
 * (cim.writexb / cim.writerow), a `compute` section carries the steady-
 * state flow. Each section is built through its StmtBuilder, which
 * keeps the section's counts.
 */
class MopProgram
{
  public:
    MopProgram() = default;
    MopProgram(std::string name, std::string mode)
        : name_(std::move(name)), mode_(std::move(mode))
    {
    }

    const std::string &name() const { return name_; }
    const std::string &mode() const { return mode_; }

    const std::vector<Stmt> &init() const { return init_.stmts(); }
    const std::vector<Stmt> &compute() const { return compute_.stmts(); }

    /** Appends to the init section. */
    StmtBuilder &initBuilder() { return init_; }

    /** Appends to the compute section. */
    StmtBuilder &computeBuilder() { return compute_; }

    /** Appends a single op to the compute section. */
    void emit(MetaOp op) { compute_.append(std::move(op)); }

    /** Appends a single op to the init section. */
    void emitInit(MetaOp op) { init_.append(std::move(op)); }

    /** Op counts across both sections, kept as they were built: O(1). */
    MopCounts counts() const;

    /**
     * Lets @p fn change both sections in place, then recounts them.
     * Only tests that inject faults into a compiled flow need this.
     */
    void edit(const std::function<void(std::vector<Stmt> &init,
                                       std::vector<Stmt> &compute)> &fn);

    /** Visits every op in execution order, expanding repeat blocks. */
    void forEachOp(const std::function<void(const MetaOp &)> &fn) const;

    /** One-line statistics string. */
    std::string summary() const;

  private:
    std::string name_;
    std::string mode_;
    StmtBuilder init_;
    StmtBuilder compute_;
};

} // namespace cimmlc

#endif // CIMMLC_MOP_PROGRAM_H

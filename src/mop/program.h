/**
 * @file
 * Meta-operator programs: the statement tree (sequence / parallel /
 * repeat) that code generation emits and the simulators consume.
 */
#ifndef CIMMLC_MOP_PROGRAM_H
#define CIMMLC_MOP_PROGRAM_H

#include <cstdint>
#include <functional>
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

/** Appends an op statement to @p stmts; fill the returned op in place
 * before appending again. */
inline MetaOp &
appendOp(std::vector<Stmt> *stmts)
{
    return stmts->emplace_back().op;
}

/** Aggregate op counts of a program (reported by `summary()`). */
struct MopCounts {
    std::int64_t cim_reads = 0;
    std::int64_t cim_writes = 0;
    std::int64_t dcom = 0;
    std::int64_t mov = 0;
    std::int64_t parallel_blocks = 0;

    std::int64_t
    total() const
    {
        return cim_reads + cim_writes + dcom + mov;
    }
};

/**
 * A compiled meta-operator flow.
 *
 * Mirrors the Figure 16 structure: an `init` section programs weights
 * (cim.writexb / cim.writerow), a `compute` section carries the steady-
 * state flow.
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

    std::vector<Stmt> &init() { return init_; }
    const std::vector<Stmt> &init() const { return init_; }
    std::vector<Stmt> &compute() { return compute_; }
    const std::vector<Stmt> &compute() const { return compute_; }

    /** Appends a single op to the compute section. */
    void emit(MetaOp op) { appendOp(&compute_) = std::move(op); }

    /** Appends a single op to the init section. */
    void emitInit(MetaOp op) { appendOp(&init_) = std::move(op); }

    /** Counts ops across both sections, expanding repeats. */
    MopCounts counts() const;

    /** Visits every op in execution order, expanding repeat blocks. */
    void forEachOp(const std::function<void(const MetaOp &)> &fn) const;

    /** One-line statistics string. */
    std::string summary() const;

  private:
    std::string name_;
    std::string mode_;
    std::vector<Stmt> init_;
    std::vector<Stmt> compute_;
};

} // namespace cimmlc

#endif // CIMMLC_MOP_PROGRAM_H

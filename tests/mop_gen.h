/**
 * @file
 * Seeded random meta-op programs shared by the property tests.
 *
 * BlockGen makes the arms of one `parallel` block for the race check's
 * test: 2-12 arms (or a given number) of one to three ops, an arm of
 * several ops being a `repeat`, over L0, two L1 banks, two crossbars of
 * two cores and both cores' state, with ranges that overlap, touch or
 * miss. makeProgram puts such arms after some lead ops, sometimes
 * inside a `repeat`.
 *
 * ProgramGen makes whole programs for the capacity sweep's test: L0
 * and three L1 banks, `repeat` 1-3 (nested too), `parallel` arms,
 * strided movs on both sides of the analyzer's block limit, live-in
 * regions, and base offsets that are negative, zero or at least 2^32.
 */
#ifndef CIMMLC_TESTS_MOP_GEN_H
#define CIMMLC_TESTS_MOP_GEN_H

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "mop/analyzer.h"
#include "mop/program.h"

namespace cimmlc {

constexpr std::int64_t kMovBlockLimit = 1024; // the analyzer's kMaxMovBlocks

class BlockGen
{
  public:
    /** Blocks of @p arms arms, or of 2-12 when it is 0. */
    explicit BlockGen(std::uint64_t seed, int arms = 0)
        : rng_(seed), arm_count_(arms)
    {
    }

    /** The arms of one block: a single op, or a repeat of 2-3 ops. In a
     * sparse block each arm keeps to its own address window and rarely
     * writes crossbars or core state, so many blocks are clean. */
    std::vector<Stmt>
    arms()
    {
        sparse_ = rng_.uniformInt(0, 2) == 0;
        std::vector<Stmt> arms;
        const int count = arm_count_ > 0
                              ? arm_count_
                              : static_cast<int>(rng_.uniformInt(2, 12));
        for (arm_ = 0; arm_ < count; ++arm_) {
            const int ops = static_cast<int>(rng_.uniformInt(1, 3));
            if (ops == 1) {
                arms.push_back(Stmt::makeOp(op()));
                continue;
            }
            std::vector<Stmt> body;
            for (int i = ops; i > 0; --i)
                body.push_back(Stmt::makeOp(op()));
            arms.push_back(
                Stmt::makeRepeat(rng_.uniformInt(1, 3), std::move(body)));
        }
        return arms;
    }

    MetaOp op() { return pick(rng_.uniformInt(0, 11)); }

    Rng &rng() { return rng_; }

  private:
    BufAddr
    addr()
    {
        BufAddr at;
        const std::int64_t bank = rng_.uniformInt(-1, 1);
        at.space = bank < 0 ? MemSpace::kL0 : MemSpace::kL1;
        at.core = bank < 0 ? 0 : bank;
        // A sparse arm keeps to its own 32-element window, except now
        // and then, when it reaches into its neighbour's.
        const std::int64_t window =
            sparse_ && rng_.uniformInt(0, 7) != 0 ? 32 * arm_ : 0;
        at.offset = rng_.uniformInt(0, 19) == 0 ? rng_.uniformInt(-3, -1)
                                                : window +
                                                      rng_.uniformInt(0, 20);
        return at;
    }

    std::int64_t len() { return rng_.uniformInt(1, 8); }
    std::int64_t unit() { return rng_.uniformInt(0, 1); }

    MetaOp
    pick(std::int64_t kind)
    {
        MetaOp op;
        // Sparse arms mostly read crossbars and cores.
        if (sparse_ && (kind == 2 || kind == 3 || kind == 5) &&
            rng_.uniformInt(0, 3) != 0)
            kind = 0;
        switch (kind) {
          case 0:
            op.kind = MetaOpKind::kReadXb;
            op.core = unit();
            op.xb = unit();
            op.rows = rng_.uniformInt(0, 8);
            op.cols = len();
            op.src = addr();
            op.dst = addr();
            break;
          case 1:
            op.kind = MetaOpKind::kReadRow;
            op.core = unit();
            op.xb = unit();
            op.row = rng_.uniformInt(0, 8);
            op.len = len();
            op.cols = len();
            op.src = addr();
            op.dst = addr();
            break;
          case 2:
            op.kind = MetaOpKind::kWriteXb;
            op.core = unit();
            op.xb = unit();
            op.len = len();
            break;
          case 3:
            op.kind = MetaOpKind::kWriteRow;
            op.core = unit();
            op.xb = unit();
            op.row = rng_.uniformInt(0, 8);
            op.len = len();
            break;
          case 4: {
            op.kind = MetaOpKind::kReadCore;
            op.core = unit();
            op.src = addr();
            op.dst = addr();
            CoreOpParams &p = op.mutableCoreParams();
            p.is_conv = rng_.uniformInt(0, 1) == 0;
            if (p.is_conv) {
                p.in_channels = rng_.uniformInt(1, 2);
                p.in_h = rng_.uniformInt(2, 4);
                p.in_w = rng_.uniformInt(2, 4);
                p.out_channels = rng_.uniformInt(1, 3);
                p.kernel = rng_.uniformInt(1, 3);
                p.stride = rng_.uniformInt(1, 2);
                p.padding = rng_.uniformInt(0, 1);
            } else {
                p.in_features = rng_.uniformInt(1, 4);
                p.out_features = rng_.uniformInt(1, 4);
            }
            p.win_begin = rng_.uniformInt(0, 2);
            p.win_end = rng_.uniformInt(0, 1) == 0
                            ? 0
                            : p.win_begin + rng_.uniformInt(1, 2);
            break;
          }
          case 5:
            op.kind = MetaOpKind::kWriteCore;
            op.core = unit();
            break;
          case 6:
            op.kind = MetaOpKind::kDcom;
            op.func = dcomfunc::kZero;
            op.dst = addr();
            op.len = len();
            break;
          case 7:
            op.kind = MetaOpKind::kDcom;
            op.func = dcomfunc::kRelu;
            op.src = addr();
            op.dst = rng_.uniformInt(0, 3) == 0 ? op.src : addr();
            op.len = len();
            break;
          case 8:
            op.kind = MetaOpKind::kDcom;
            op.func = dcomfunc::kAdd;
            op.src = addr();
            op.mutableSrc2() = addr();
            op.dst = addr();
            op.len = len();
            break;
          default:
            op.kind = MetaOpKind::kMov;
            op.src = addr();
            op.dst = addr();
            op.count = rng_.uniformInt(1, 4);
            op.len = rng_.uniformInt(1, 6);
            op.src_stride = rng_.uniformInt(-8, 8);
            op.dst_stride = rng_.uniformInt(-8, 8);
            break;
        }
        return op;
    }

    Rng rng_;
    int arm_count_ = 0;
    bool sparse_ = false;
    std::int64_t arm_ = 0;
};

/** @p arms as one block after the @p lead ops, itself inside a
 * `repeat 2` when @p in_repeat. */
inline MopProgram
makeProgram(const std::vector<MetaOp> &lead, std::vector<Stmt> arms,
            bool in_repeat)
{
    MopProgram program("p", "XBM");
    StmtBuilder &compute = program.computeBuilder();
    for (const MetaOp &op : lead)
        compute.append(op);
    Stmt block = Stmt::makeParallel(std::move(arms));
    if (in_repeat)
        compute.append(Stmt::makeRepeat(2, {std::move(block)}));
    else
        compute.append(std::move(block));
    return program;
}

class ProgramGen
{
  public:
    explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

    MopProgram
    program()
    {
        MopProgram program("p", "XBM");
        for (int i = static_cast<int>(rng_.uniformInt(0, 2)); i > 0; --i)
            program.initBuilder().append(stmt(0));
        // A long program leaves the banks it rarely touches with few
        // live-range changes over many timestamps.
        const bool long_program = rng_.uniformInt(0, 3) == 0;
        for (int i = static_cast<int>(long_program ? rng_.uniformInt(16, 32)
                                                   : rng_.uniformInt(2, 7));
             i > 0; --i)
            program.computeBuilder().append(stmt(0));
        return program;
    }

    std::vector<LiveInRegion>
    liveIn()
    {
        std::vector<LiveInRegion> regions;
        for (int i = static_cast<int>(rng_.uniformInt(0, 2)); i > 0; --i) {
            const BufAddr at = addr();
            LiveInRegion region;
            region.space = at.space;
            region.core = at.core;
            region.begin = at.offset;
            region.end = at.offset + rng_.uniformInt(0, 40);
            regions.push_back(region);
        }
        return regions;
    }

  private:
    static constexpr std::int64_t kHigh = std::int64_t{1} << 32;

    BufAddr
    addr()
    {
        // L0 and bank 0 take most accesses, bank 2 few: a bank with few
        // live-range changes sums them by sorting, the others densely.
        BufAddr at;
        const std::int64_t pick_bank = rng_.uniformInt(0, 19);
        const std::int64_t bank = pick_bank < 8    ? -1
                                  : pick_bank < 16 ? 0
                                  : pick_bank < 19 ? 1
                                                   : 2;
        at.space = bank < 0 ? MemSpace::kL0 : MemSpace::kL1;
        at.core = bank < 0 ? 0 : bank;
        const std::int64_t pick = rng_.uniformInt(0, 19);
        if (pick < 2)
            at.offset = rng_.uniformInt(-8, -1);
        else if (pick < 5)
            at.offset = 0;
        else if (pick < 15)
            at.offset = rng_.uniformInt(1, 48);
        else
            at.offset = kHigh + rng_.uniformInt(0, 48);
        return at;
    }

    std::int64_t len() { return rng_.uniformInt(1, 40); }

    MetaOp
    op()
    {
        MetaOp op;
        switch (rng_.uniformInt(0, 4)) {
          case 0:
            op.kind = MetaOpKind::kDcom;
            op.func = dcomfunc::kZero;
            op.dst = addr();
            op.len = len();
            break;
          case 1:
            op.kind = MetaOpKind::kDcom;
            op.func = dcomfunc::kRelu;
            op.src = addr();
            op.dst = rng_.uniformInt(0, 3) == 0 ? op.src : addr();
            op.len = len();
            break;
          case 2:
            op.kind = MetaOpKind::kDcom;
            op.func = dcomfunc::kAdd;
            op.src = addr();
            op.mutableSrc2() = addr();
            op.dst = addr();
            op.len = len();
            break;
          case 3:
            op.kind = MetaOpKind::kReadXb;
            op.core = rng_.uniformInt(0, 2);
            op.rows = len();
            op.cols = len();
            op.src = addr();
            op.dst = addr();
            break;
          default:
            op.kind = MetaOpKind::kMov;
            op.src = addr();
            op.dst = addr();
            if (rng_.uniformInt(0, 9) == 0) {
                // Around the block limit: one-element blocks, so the
                // per-block events do not merge.
                op.count = kMovBlockLimit + rng_.uniformInt(-2, 2);
                op.len = 1;
                op.src_stride = rng_.uniformInt(-2, 2);
                op.dst_stride = rng_.uniformInt(-2, 2);
            } else {
                op.count = rng_.uniformInt(1, 4);
                op.len = rng_.uniformInt(1, 12);
                op.src_stride = rng_.uniformInt(-16, 16);
                op.dst_stride = rng_.uniformInt(-16, 16);
            }
            break;
        }
        return op;
    }

    Stmt
    stmt(int depth)
    {
        const std::int64_t pick = depth < 2 ? rng_.uniformInt(0, 9) : 0;
        if (pick < 6)
            return Stmt::makeOp(op());
        std::vector<Stmt> body;
        if (pick < 8) {
            // Arms: single ops, or a short sequence or repeat (walked
            // once, at the block's timestamp).
            for (int i = static_cast<int>(rng_.uniformInt(2, 3)); i > 0;
                 --i) {
                if (rng_.uniformInt(0, 3) == 0) {
                    body.push_back(Stmt::makeRepeat(
                        rng_.uniformInt(1, 3),
                        {Stmt::makeOp(op()), Stmt::makeOp(op())}));
                } else {
                    body.push_back(Stmt::makeOp(op()));
                }
            }
            return Stmt::makeParallel(std::move(body));
        }
        for (int i = static_cast<int>(rng_.uniformInt(1, 4)); i > 0; --i)
            body.push_back(stmt(depth + 1));
        return Stmt::makeRepeat(rng_.uniformInt(1, 3), std::move(body));
    }

    Rng rng_;
};

} // namespace cimmlc

#endif // CIMMLC_TESTS_MOP_GEN_H

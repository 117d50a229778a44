/**
 * @file
 * Property test of mopcheck's capacity sweep: seeded random programs
 * checked against a brute-force, per-element oracle of the live-range
 * rule in DESIGN.md ("Capacity sweep"). The programs mix L0 and three
 * L1 banks, `repeat` 1-3 (nested too), `parallel` arms that define at
 * one shared timestamp, strided movs on both sides of the analyzer's
 * 1024-block limit, live-in regions, and base offsets that are
 * negative, zero or at least 2^32, against L1 capacities of 8 to 512
 * elements.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/presets.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "mop/analyzer.h"
#include "mop_gen.h"

namespace cimmlc {
namespace {

// ----- oracle -------------------------------------------------------------

using BufId = std::pair<int, std::int64_t>; //!< (space, L1 core or 0)

/** Elements one operand touches, in one buffer. */
struct Touch {
    BufId buf;
    std::vector<std::int64_t> elems;
};

/**
 * DESIGN.md's live-range rule, one element at a time. Each op runs at
 * its own timestamp (all arms of a parallel block share one; a repeat
 * body of count > 1 runs twice, at fresh timestamps; live-in regions
 * at -1) and, per element, first defines its writes, then defines and
 * uses its accumulates, then uses its reads (see extent and strided
 * for which elements an operand touches). A def closes the element's
 * open chain unless the chain was defined at the same timestamp; the
 * closed chain is live from its def through its last use (or just at
 * its def if unused). Chains still open at the end stay live to the
 * end of the program.
 */
class Oracle
{
  public:
    struct Capacity {
        std::string section;
        std::int64_t index = 0;
        std::int64_t core = 0;
        std::int64_t peak = 0;
    };

    Oracle(const MopProgram &program,
           const std::vector<LiveInRegion> &live_in,
           std::int64_t l1_capacity)
    {
        anchors_[-1] = {"", -1};
        for (const LiveInRegion &region : live_in) {
            const BufId buf{static_cast<int>(region.space),
                            region.space == MemSpace::kL1 ? region.core
                                                          : 0};
            for (std::int64_t e = region.begin; region.begin >= 0 &&
                                                e < region.end;
                 ++e)
                def(buf, e, -1);
        }
        walkSection(program.init(), "init");
        walkSection(program.compute(), "compute");
        const std::int64_t t_end = time_ + 1;
        for (const auto &[key, chain] : chains_)
            live_[key.first].emplace_back(chain.def, t_end);

        for (const auto &[buf, ranges] : live_) {
            // change[t + 1]: live elements gained at timestamp t
            std::vector<std::int64_t> change(
                static_cast<std::size_t>(t_end + 3), 0);
            for (const auto &[from, to] : ranges) {
                ++change[static_cast<std::size_t>(from + 1)];
                --change[static_cast<std::size_t>(to + 2)];
            }
            std::int64_t live = 0, peak = 0, peak_t = 0;
            for (std::int64_t t = -1; t <= t_end; ++t) {
                live += change[static_cast<std::size_t>(t + 1)];
                if (live > peak) {
                    peak = live;
                    peak_t = t;
                }
            }
            if (buf.first == static_cast<int>(MemSpace::kL0)) {
                l0_peak = std::max(l0_peak, peak);
                continue;
            }
            l1_peak = std::max(l1_peak, peak);
            if (peak > l1_capacity) {
                const auto &[section, index] = anchors_.at(peak_t);
                capacity.push_back(Capacity{section, index, buf.second, peak});
            }
        }
    }

    std::int64_t l0_peak = 0;
    std::int64_t l1_peak = 0;
    std::vector<Capacity> capacity; //!< in bank order

  private:
    struct Chain {
        std::int64_t def = 0;
        std::int64_t use = -2; //!< < def when unused
    };
    using ElemKey = std::pair<BufId, std::int64_t>;

    static std::int64_t
    subtreeSize(const Stmt &stmt)
    {
        std::int64_t size = 1;
        for (const Stmt &sub : stmt.body)
            size += subtreeSize(sub);
        return size;
    }

    void
    walkSection(const std::vector<Stmt> &stmts, const char *section)
    {
        section_ = section;
        std::int64_t index = 0;
        walk(stmts, &index);
    }

    void
    walk(const std::vector<Stmt> &stmts, std::int64_t *index)
    {
        for (const Stmt &stmt : stmts) {
            const std::int64_t own = (*index)++;
            if (stmt.kind == Stmt::Kind::kOp) {
                anchors_[time_] = {section_, own};
                apply(stmt.op);
                ++time_;
            } else if (stmt.kind == Stmt::Kind::kParallel) {
                anchors_[time_] = {section_, own};
                for (const Stmt &arm : stmt.body)
                    applyFlat(arm);
                *index = own + subtreeSize(stmt);
                ++time_;
            } else {
                const int passes = stmt.repeat > 1 ? 2 : 1;
                for (int p = 0; p < passes; ++p) {
                    *index = own + 1;
                    walk(stmt.body, index);
                }
            }
        }
    }

    void
    applyFlat(const Stmt &stmt)
    {
        if (stmt.kind == Stmt::Kind::kOp) {
            apply(stmt.op);
            return;
        }
        for (const Stmt &sub : stmt.body)
            applyFlat(sub);
    }

    static BufId
    bufOf(const BufAddr &addr)
    {
        return {static_cast<int>(addr.space),
                addr.space == MemSpace::kL1 ? addr.core : 0};
    }

    /** [offset, offset + len), or nothing below a negative base. */
    static Touch
    extent(const BufAddr &addr, std::int64_t len)
    {
        Touch touch{bufOf(addr), {}};
        if (addr.offset >= 0) {
            for (std::int64_t e = 0; e < len; ++e)
                touch.elems.push_back(addr.offset + e);
        }
        return touch;
    }

    /** Every block with a non-negative base, or the hull of all blocks
     * (from a non-negative base, and only if it stays above element 0)
     * when they are many or run down. */
    static Touch
    strided(const BufAddr &addr, std::int64_t len, std::int64_t count,
            std::int64_t stride)
    {
        Touch touch{bufOf(addr), {}};
        if (count <= kMovBlockLimit && stride >= 0) {
            for (std::int64_t b = 0; b < count; ++b) {
                const std::int64_t base = addr.offset + b * stride;
                for (std::int64_t e = 0; base >= 0 && e < len; ++e)
                    touch.elems.push_back(base + e);
            }
        } else if (const std::int64_t span = stride * (count - 1);
                   addr.offset >= 0 &&
                   addr.offset + std::min<std::int64_t>(0, span) >= 0) {
            for (std::int64_t e = std::min<std::int64_t>(0, span);
                 e < std::max<std::int64_t>(0, span) + len; ++e)
                touch.elems.push_back(addr.offset + e);
        }
        return touch;
    }

    void
    apply(const MetaOp &op)
    {
        std::vector<Touch> writes, accums, reads;
        if (op.kind == MetaOpKind::kMov) {
            writes.push_back(
                strided(op.dst, op.len, op.count, op.dst_stride));
            reads.push_back(
                strided(op.src, op.len, op.count, op.src_stride));
        } else if (op.kind == MetaOpKind::kReadXb) {
            accums.push_back(extent(op.dst, op.cols));
            reads.push_back(extent(op.src, op.rows));
        } else {
            writes.push_back(extent(op.dst, op.len));
            if (op.func != dcomfunc::kZero)
                reads.push_back(extent(op.src, op.len));
            if (op.func == dcomfunc::kAdd)
                reads.push_back(extent(op.src2(), op.len));
        }
        for (const Touch &touch : writes) {
            for (std::int64_t e : touch.elems)
                def(touch.buf, e, time_);
        }
        for (const Touch &touch : accums) {
            for (std::int64_t e : touch.elems) {
                def(touch.buf, e, time_);
                use(touch.buf, e, time_);
            }
        }
        for (const Touch &touch : reads) {
            for (std::int64_t e : touch.elems)
                use(touch.buf, e, time_);
        }
    }

    void
    def(const BufId &buf, std::int64_t elem, std::int64_t t)
    {
        const auto [it, fresh] = chains_.try_emplace({buf, elem});
        Chain &chain = it->second;
        if (!fresh && chain.def != t) {
            live_[buf].emplace_back(chain.def,
                                    std::max(chain.use, chain.def));
        }
        chain = Chain{t, -2};
    }

    void
    use(const BufId &buf, std::int64_t elem, std::int64_t t)
    {
        const auto it = chains_.find({buf, elem});
        if (it != chains_.end())
            it->second.use = t;
    }

    const char *section_ = "";
    std::int64_t time_ = 0;
    std::map<ElemKey, Chain> chains_;
    //! closed live ranges [from, to] per buffer, one per element chain
    std::map<BufId, std::vector<std::pair<std::int64_t, std::int64_t>>>
        live_;
    std::map<std::int64_t, std::pair<std::string, std::int64_t>> anchors_;
};

// ----- the property -------------------------------------------------------

TEST(MopCapacityPropertyTest, SweepMatchesPerElementOracle)
{
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kXBM);
    int findings = 0;
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        const std::int64_t l1_capacity = std::int64_t{8} << (seed % 4 * 2);
        arch.core.l1_size_kib = static_cast<double>(l1_capacity) * 4 / 1024;
        ProgramGen gen(seed);
        const MopProgram program = gen.program();
        AnalyzeOptions options;
        options.structural = false;
        options.executable = seed % 3 != 0;
        options.live_in = gen.liveIn();

        const AnalyzeResult result = analyzeProgram(program, arch, options);
        const Oracle oracle(program, options.live_in, l1_capacity);
        ASSERT_EQ(result.l0_peak_live_elems, oracle.l0_peak)
            << "seed " << seed;
        ASSERT_EQ(result.l1_peak_live_elems, oracle.l1_peak)
            << "seed " << seed;
        std::vector<const MopDiagnostic *> capacity;
        for (const MopDiagnostic &diag : result.diagnostics) {
            if (diag.check == "capacity-l1")
                capacity.push_back(&diag);
        }
        ASSERT_EQ(capacity.size(), oracle.capacity.size()) << "seed " << seed;
        for (std::size_t i = 0; i < capacity.size(); ++i) {
            const Oracle::Capacity &want = oracle.capacity[i];
            EXPECT_EQ(capacity[i]->section, want.section) << "seed " << seed;
            EXPECT_EQ(capacity[i]->stmt_index, want.index) << "seed " << seed;
            EXPECT_NE(capacity[i]->message.find(strformat(
                          "L1c%lld footprint %lld elems",
                          static_cast<long long>(want.core),
                          static_cast<long long>(want.peak))),
                      std::string::npos)
                << "seed " << seed << ": " << capacity[i]->message;
        }
        findings += static_cast<int>(capacity.size());
    }
    // The generator reaches the finding, not just the statistics.
    EXPECT_GT(findings, 100);
}

} // namespace
} // namespace cimmlc

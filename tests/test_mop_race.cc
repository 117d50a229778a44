/**
 * @file
 * Property test of mopcheck's race check: seeded random `parallel`
 * blocks checked against a brute-force, per-element oracle of the race
 * rule in DESIGN.md ("Race check"). A block has 2-12 arms of one to
 * three ops (an arm of several ops is a `repeat`) and sometimes sits in
 * a `repeat` itself. Its ops are readxb, readrow, writexb, writerow,
 * readcore (conv and linear), writecore, DCOM zero/relu/add and strided
 * movs with strides of either sign, over L0, two L1 banks, two
 * crossbars of two cores, and both cores' state, with ranges that
 * overlap, touch or miss. Wide blocks of 64-256 arms, generated or
 * quiet but for one racing pair, get the same check, and one case
 * pins the rule that merges an arm's same-text accesses into one
 * record.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/presets.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "mop/analyzer.h"
#include "mop_gen.h"

namespace cimmlc {
namespace {

/** The ops of @p stmt in walk order. */
void
flatten(const Stmt &stmt, std::vector<const MetaOp *> *out)
{
    if (stmt.kind == Stmt::Kind::kOp) {
        out->push_back(&stmt.op);
        return;
    }
    for (const Stmt &sub : stmt.body)
        flatten(sub, out);
}

// ----- oracle -------------------------------------------------------------

enum Cat { kWrite, kAccum, kRead };

/** A buffer (space, core, 0), a crossbar (2, core, xb) or a core's
 * state (3, core, 0). */
using Res = std::tuple<int, std::int64_t, std::int64_t>;
constexpr int kBufferRes = -1; //!< either buffer space
constexpr int kXbarRes = 2;
constexpr int kCoreRes = 3;

/** The elements (buffer elements, crossbar rows, or element 0 of a
 * core's state) one op touches, per category and resource. */
using Footprint = std::map<std::pair<Cat, Res>, std::set<std::int64_t>>;

/** The footprint of @p op, as DESIGN.md's footprint rules have it. */
Footprint
footprintOf(const MetaOp &op)
{
    Footprint fp;
    // [offset + begin, offset + end), or nothing from a negative base or
    // below element 0 (left to the structural check).
    const auto region = [&fp](Cat cat, const BufAddr &addr,
                              std::int64_t begin, std::int64_t end) {
        if (addr.offset < 0 || addr.offset + begin < 0)
            return;
        const Res res{static_cast<int>(addr.space),
                      addr.space == MemSpace::kL1 ? addr.core : 0, 0};
        for (std::int64_t e = begin; e < end; ++e)
            fp[{cat, res}].insert(addr.offset + e);
    };
    // Every block of a mov of at most 1,024 blocks with a non-negative
    // stride, else the hull of all blocks.
    const auto strided = [&region](Cat cat, const BufAddr &addr,
                                   std::int64_t len, std::int64_t count,
                                   std::int64_t stride) {
        if (len < 1 || count < 1)
            return;
        if (count <= kMovBlockLimit && stride >= 0) {
            for (std::int64_t b = 0; b < count; ++b) {
                BufAddr block = addr;
                block.offset += b * stride;
                region(cat, block, 0, len);
            }
            return;
        }
        const std::int64_t span = stride * (count - 1);
        region(cat, addr, std::min<std::int64_t>(0, span),
               std::max<std::int64_t>(0, span) + len);
    };
    const auto rows = [&fp, &op](Cat cat, std::int64_t begin,
                                 std::int64_t end) {
        for (std::int64_t r = begin; r < end; ++r)
            fp[{cat, Res{kXbarRes, op.core, op.xb}}].insert(r);
    };
    switch (op.kind) {
      case MetaOpKind::kReadXb:
        rows(kRead, 0, op.rows);
        region(kRead, op.src, 0, op.rows);
        region(kAccum, op.dst, 0, op.cols);
        break;
      case MetaOpKind::kReadRow:
        rows(kRead, op.row, op.row + op.len);
        region(kRead, op.src, 0, op.len);
        region(kAccum, op.dst, 0, op.cols);
        break;
      case MetaOpKind::kWriteXb:
        rows(kWrite, 0, op.len);
        break;
      case MetaOpKind::kWriteRow:
        rows(kWrite, op.row, op.row + op.len);
        break;
      case MetaOpKind::kWriteCore:
        fp[{kWrite, Res{kCoreRes, op.core, 0}}].insert(0);
        break;
      case MetaOpKind::kReadCore: {
        fp[{kRead, Res{kCoreRes, op.core, 0}}].insert(0);
        const CoreOpParams &p = op.coreParams();
        const std::int64_t w0 = p.win_begin;
        if (!p.is_conv) {
            const std::int64_t w1 = p.win_end > 0 ? p.win_end : 1;
            region(kRead, op.src, w0 * p.in_features, w1 * p.in_features);
            region(kWrite, op.dst, w0 * p.out_features, w1 * p.out_features);
            break;
        }
        const std::int64_t oh =
            (p.in_h + 2 * p.padding - p.kernel) / p.stride + 1;
        const std::int64_t ow =
            (p.in_w + 2 * p.padding - p.kernel) / p.stride + 1;
        if (oh <= 0 || ow <= 0)
            break;
        region(kRead, op.src, 0, p.in_channels * p.in_h * p.in_w);
        // Each output channel's window rows [w0, w1) of its plane.
        const std::int64_t w1 = p.win_end > 0 ? p.win_end : oh;
        if (op.dst.offset < 0)
            break;
        for (std::int64_t c = 0; c < p.out_channels; ++c)
            region(kWrite, op.dst, c * oh * ow + w0 * ow,
                   c * oh * ow + w1 * ow);
        break;
      }
      case MetaOpKind::kDcom:
        if (op.func != dcomfunc::kZero)
            region(kRead, op.src, 0, op.len);
        if (op.func == dcomfunc::kAdd)
            region(kRead, op.src2(), 0, op.len);
        region(kWrite, op.dst, 0, op.len);
        break;
      case MetaOpKind::kMov:
        strided(kRead, op.src, op.len, op.count, op.src_stride);
        strided(kWrite, op.dst, op.len, op.count, op.dst_stride);
        break;
    }
    return fp;
}

/** One way two ops of different arms race: a check id, the message's
 * wording, the two categories (first op's, second op's), and the
 * resources it covers. */
struct RaceKind {
    const char *check;
    const char *what;
    Cat x, y;
    int res; //!< kBufferRes, kXbarRes or kCoreRes
};

/**
 * DESIGN.md's race rule: two arms race on an element one of them
 * writes and the other writes, accumulates or reads, or one of them
 * accumulates and the other reads. Crossbar rows and core state have
 * only writes (programming, installs) and reads (activations, uses).
 */
const RaceKind kKinds[] = {
    {"race-write-write", "overlapping writes", kWrite, kWrite, kBufferRes},
    {"race-write-write", "write vs accumulate", kWrite, kAccum, kBufferRes},
    {"race-write-write", "write vs accumulate", kAccum, kWrite, kBufferRes},
    {"race-read-write", "write vs read", kWrite, kRead, kBufferRes},
    {"race-read-write", "write vs read", kRead, kWrite, kBufferRes},
    {"race-read-write", "accumulate vs read", kAccum, kRead, kBufferRes},
    {"race-read-write", "accumulate vs read", kRead, kAccum, kBufferRes},
    {"race-xbar", "both program", kWrite, kWrite, kXbarRes},
    {"race-xbar", "program vs activate", kWrite, kRead, kXbarRes},
    {"race-xbar", "program vs activate", kRead, kWrite, kXbarRes},
    {"race-core", "both install", kWrite, kWrite, kCoreRes},
    {"race-core", "install vs use of", kWrite, kRead, kCoreRes},
    {"race-core", "install vs use of", kRead, kWrite, kCoreRes},
};

/** Whether @p kind covers resource @p res. */
bool
covers(const RaceKind &kind, const Res &res)
{
    const int cls = std::get<0>(res);
    return (cls < kXbarRes ? kBufferRes : cls) == kind.res;
}

/** A race finding taken apart: its wording, where, and its two ops. */
struct Parsed {
    std::string what;
    Res res{-1, 0, 0};
    std::int64_t begin = 0, end = 0; //!< the named range ([0, 1) for core)
    std::string lo, hi;              //!< op texts, as printed
};

bool
parseRace(const MopDiagnostic &diag, Parsed *out)
{
    const std::string &m = diag.message;
    const std::size_t colon = m.find(": ");
    const std::size_t vs = m.find(" vs ", colon);
    if (colon == std::string::npos || vs == std::string::npos)
        return false;
    out->lo = m.substr(colon + 2, vs - colon - 2);
    out->hi = m.substr(vs + 4);
    const std::string head = m.substr(0, colon);
    for (const RaceKind &kind : kKinds) {
        const std::string prefix =
            std::string("parallel arms ") + kind.what + " ";
        if (diag.check != kind.check || head.rfind(prefix, 0) != 0)
            continue;
        out->what = kind.what;
        const std::string where = head.substr(prefix.size());
        long long a = 0, b = 0, lo = 0, hi = 0;
        if (std::sscanf(where.c_str(), "on L0[%lld, %lld)", &lo, &hi) == 2) {
            out->res = Res{static_cast<int>(MemSpace::kL0), 0, 0};
        } else if (std::sscanf(where.c_str(), "on L1c%lld[%lld, %lld)", &a,
                               &lo, &hi) == 3) {
            out->res = Res{static_cast<int>(MemSpace::kL1), a, 0};
        } else if (std::sscanf(where.c_str(),
                               "on crossbar c%lld.x%lld rows [%lld, %lld)",
                               &a, &b, &lo, &hi) == 4) {
            out->res = Res{kXbarRes, a, b};
        } else if (std::sscanf(where.c_str(), "core %lld state", &a) == 1) {
            out->res = Res{kCoreRes, a, 0};
            lo = 0;
            hi = 1;
        } else {
            return false;
        }
        out->begin = lo;
        out->end = hi;
        return true;
    }
    return false;
}

std::vector<const MopDiagnostic *>
raceFindings(const AnalyzeResult &result)
{
    std::vector<const MopDiagnostic *> out;
    for (const MopDiagnostic &diag : result.diagnostics) {
        if (diag.check.rfind("race-", 0) == 0)
            out.push_back(&diag);
    }
    return out;
}

/** The race findings as comparable lines. */
std::vector<std::string>
raceLines(const AnalyzeResult &result)
{
    std::vector<std::string> out;
    for (const MopDiagnostic *diag : raceFindings(result))
        out.push_back(strformat("%s|%s|%lld|%s", diag->check.c_str(),
                                diag->section.c_str(),
                                static_cast<long long>(diag->stmt_index),
                                diag->message.c_str()));
    return out;
}

// ----- the property -------------------------------------------------------

/**
 * Checks the race findings of @p result, the analysis of a program
 * whose parallel block @p block sits at statement @p anchor, against
 * the oracle: every racing (arm pair, kind) has a finding of that kind
 * naming a racing op of each arm, and every finding names a range on
 * which such a pair races. Counts the findings per check in @p found
 * and the racing arm pairs in @p racing_pairs; @p where labels
 * failures.
 */
void
checkAgainstOracle(const std::string &where, const Stmt &block,
                   std::int64_t anchor, const AnalyzeResult &result,
                   std::map<std::string, int> *found, int *racing_pairs)
{
    // Per arm, its ops in walk order and their footprints.
    std::vector<std::vector<const MetaOp *>> ops(block.body.size());
    std::vector<std::vector<Footprint>> fps(block.body.size());
    std::vector<std::vector<std::string>> texts(block.body.size());
    for (std::size_t i = 0; i < block.body.size(); ++i) {
        flatten(block.body[i], &ops[i]);
        for (const MetaOp *op : ops[i]) {
            fps[i].push_back(footprintOf(*op));
            texts[i].push_back(op->toString());
        }
    }
    const std::vector<const MopDiagnostic *> findings =
        raceFindings(result);
    std::vector<Parsed> parsed(findings.size());
    for (std::size_t f = 0; f < findings.size(); ++f) {
        ASSERT_TRUE(parseRace(*findings[f], &parsed[f]))
            << where << ": " << findings[f]->message;
        EXPECT_EQ(findings[f]->section, "compute") << where;
        EXPECT_EQ(findings[f]->stmt_index, anchor) << where;
        EXPECT_EQ(findings[f]->severity, DiagSeverity::kError);
    }
    std::vector<bool> explained(findings.size(), false);
    // The findings by what they name: check, wording, resource and
    // the two op texts.
    std::multimap<std::tuple<std::string, std::string, Res, std::string,
                             std::string>,
                  std::size_t>
        named;
    for (std::size_t f = 0; f < findings.size(); ++f) {
        const Parsed &got = parsed[f];
        named.emplace(std::make_tuple(findings[f]->check, got.what,
                                      got.res, got.lo, got.hi),
                      f);
    }

    // Every racing (arm pair, kind) has a finding of that kind
    // naming one racing op of each arm; a finding is explained by
    // such a pair when the range it names races for them.
    *racing_pairs = 0;
    constexpr std::size_t kKindCount = std::size(kKinds);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        for (std::size_t j = i + 1; j < ops.size(); ++j) {
            bool races[kKindCount] = {};
            bool reported[kKindCount] = {};
            for (std::size_t p = 0; p < ops[i].size(); ++p) {
                for (std::size_t q = 0; q < ops[j].size(); ++q) {
                    const Footprint &a = fps[i][p];
                    const Footprint &b = fps[j][q];
                    std::string lo = texts[i][p], hi = texts[j][q];
                    if (hi < lo)
                        std::swap(lo, hi);
                    for (std::size_t k = 0; k < kKindCount; ++k) {
                        const RaceKind &kind = kKinds[k];
                        for (const auto &[key, mine] : a) {
                            const Res &res = key.second;
                            if (key.first != kind.x || !covers(kind, res))
                                continue;
                            const auto theirs = b.find({kind.y, res});
                            if (theirs == b.end())
                                continue;
                            std::set<std::int64_t> elems;
                            std::set_intersection(
                                mine.begin(), mine.end(),
                                theirs->second.begin(),
                                theirs->second.end(),
                                std::inserter(elems, elems.end()));
                            if (elems.empty())
                                continue;
                            races[k] = true;
                            const auto [first, last] = named.equal_range(
                                std::make_tuple(std::string(kind.check),
                                                std::string(kind.what),
                                                res, lo, hi));
                            for (auto it = first; it != last; ++it) {
                                const Parsed &got = parsed[it->second];
                                reported[k] = true;
                                bool inside = got.begin < got.end;
                                for (std::int64_t e = got.begin;
                                     inside && e < got.end; ++e)
                                    inside = elems.count(e) > 0;
                                if (inside)
                                    explained[it->second] = true;
                            }
                        }
                    }
                }
            }
            bool any = false;
            for (std::size_t k = 0; k < kKindCount; ++k) {
                any = any || races[k];
                EXPECT_TRUE(!races[k] || reported[k])
                    << where << ": arms " << i << " and " << j
                    << " race (" << kKinds[k].check << ", "
                    << kKinds[k].what
                    << ") but no finding names a racing pair of ops";
            }
            *racing_pairs += any ? 1 : 0;
        }
    }
    for (std::size_t f = 0; f < findings.size(); ++f) {
        EXPECT_TRUE(explained[f])
            << where << ": no two arms race as "
            << findings[f]->message;
        ++(*found)[findings[f]->check];
    }
}

/**
 * Analyzes @p arms as one block after the @p lead ops, itself inside a
 * `repeat 2` when @p in_repeat, checks the race findings against the
 * oracle (checkAgainstOracle), and checks that the same arms in the
 * order @p shuffled give the same race findings.
 */
void
checkBlock(const std::string &where, std::vector<Stmt> arms,
           std::vector<Stmt> shuffled, const std::vector<MetaOp> &lead,
           bool in_repeat, bool executable, std::map<std::string, int> *found,
           int *racing_pairs)
{
    const CimArchitecture arch = presets::tutorialTable2(ComputeMode::kXBM);
    const MopProgram program = makeProgram(lead, std::move(arms), in_repeat);
    const MopProgram permuted =
        makeProgram(lead, std::move(shuffled), in_repeat);
    const std::int64_t anchor =
        static_cast<std::int64_t>(lead.size()) + (in_repeat ? 1 : 0);
    const Stmt &block = in_repeat ? program.compute().back().body.front()
                                  : program.compute().back();

    AnalyzeOptions options;
    options.structural = false;
    options.executable = executable;
    const AnalyzeResult result = analyzeProgram(program, arch, options);
    checkAgainstOracle(where, block, anchor, result, found, racing_pairs);

    // Arm order does not change the race findings.
    const AnalyzeResult again = analyzeProgram(permuted, arch, options);
    EXPECT_EQ(raceLines(again), raceLines(result)) << where;
}

/** @p arms in a seeded random order. */
std::vector<Stmt>
shuffle(std::vector<Stmt> arms, Rng &rng)
{
    for (std::size_t i = arms.size(); i > 1; --i) {
        std::swap(arms[i - 1],
                  arms[static_cast<std::size_t>(rng.uniformInt(
                      0, static_cast<std::int64_t>(i) - 1))]);
    }
    return arms;
}

TEST(MopRacePropertyTest, FindingsMatchPerElementOracle)
{
    std::map<std::string, int> found;
    int racing = 0, clean = 0;
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        BlockGen gen(seed);
        std::vector<Stmt> arms = gen.arms();
        std::vector<Stmt> shuffled = shuffle(arms, gen.rng());
        std::vector<MetaOp> lead;
        for (int i = static_cast<int>(gen.rng().uniformInt(0, 2)); i > 0; --i)
            lead.push_back(gen.op());
        const bool in_repeat = gen.rng().uniformInt(0, 3) == 0;
        int pairs = 0;
        checkBlock("seed " + std::to_string(seed), std::move(arms),
                   std::move(shuffled), lead, in_repeat, seed % 2 == 0,
                   &found, &pairs);
        ++(pairs > 0 ? racing : clean);
    }
    // The generator reaches every kind, and clean blocks too.
    for (const char *check :
         {"race-write-write", "race-read-write", "race-xbar", "race-core"})
        EXPECT_GT(found[check], 100) << check;
    EXPECT_GT(racing, 300);
    EXPECT_GT(clean, 50);
}

/** L0 address @p offset. */
BufAddr
l0(std::int64_t offset)
{
    BufAddr at;
    at.offset = offset;
    return at;
}

/**
 * Arm @p k of a quiet block: it activates crossbar c<k>.x0 on its own
 * L0 window, applies a relu there and moves the result to its own
 * range of L1 bank k % 2, so no two quiet arms race.
 */
std::vector<MetaOp>
quietArm(std::int64_t k)
{
    MetaOp read;
    read.kind = MetaOpKind::kReadXb;
    read.core = k;
    read.rows = 8;
    read.cols = 8;
    read.src = l0(64 * k);
    read.dst = l0(64 * k + 16);
    MetaOp relu;
    relu.kind = MetaOpKind::kDcom;
    relu.func = dcomfunc::kRelu;
    relu.src = l0(64 * k + 16);
    relu.dst = l0(64 * k + 32);
    relu.len = 8;
    MetaOp mov;
    mov.kind = MetaOpKind::kMov;
    mov.src = l0(64 * k + 32);
    mov.dst.space = MemSpace::kL1;
    mov.dst.core = k % 2;
    mov.dst.offset = 32 * k;
    mov.len = 8;
    mov.count = 1;
    return {read, relu, mov};
}

std::vector<Stmt>
asArms(const std::vector<std::vector<MetaOp>> &arms)
{
    std::vector<Stmt> out;
    for (const std::vector<MetaOp> &ops : arms) {
        std::vector<Stmt> body;
        for (const MetaOp &op : ops)
            body.push_back(Stmt::makeOp(op));
        out.push_back(Stmt::makeRepeat(1, std::move(body)));
    }
    return out;
}

TEST(MopRacePropertyTest, WideBlocksMatchPerElementOracle)
{
    std::map<std::string, int> found;
    Rng rng(0x5EEDull);
    // Generated blocks: seed 5 is dense, seeds 3 and 7 are sparse.
    for (const auto &[seed, width] :
         {std::pair{3, 64}, std::pair{5, 64}, std::pair{3, 128},
          std::pair{5, 128}, std::pair{3, 256}, std::pair{7, 256}}) {
        BlockGen gen(static_cast<std::uint64_t>(seed), width);
        std::vector<Stmt> arms = gen.arms();
        std::vector<Stmt> shuffled = shuffle(arms, rng);
        int pairs = 0;
        checkBlock(strformat("seed %d, %d arms", seed, width),
                   std::move(arms), std::move(shuffled), {}, seed % 2 == 0,
                   seed % 3 != 0, &found, &pairs);
        EXPECT_GT(pairs, 0) << "seed " << seed;
    }

    // 256 quiet arms but one racing pair: two arms move into one L1
    // range, or one arm programs the crossbar another one activates.
    std::vector<std::vector<MetaOp>> same_range;
    for (std::int64_t k = 0; k < 256; ++k)
        same_range.push_back(quietArm(k));
    std::vector<std::vector<MetaOp>> programs = same_range;
    same_range[200][2].dst = same_range[7][2].dst;
    programs[100][0] = MetaOp();
    programs[100][0].kind = MetaOpKind::kWriteXb;
    programs[100][0].core = 7;
    programs[100][0].len = 8;
    for (const auto &[name, arms] :
         {std::pair{"one L1 range", &same_range},
          std::pair{"one crossbar", &programs}}) {
        int pairs = 0;
        std::map<std::string, int> checks;
        checkBlock(name, asArms(*arms), shuffle(asArms(*arms), rng), {},
                   false, true, &checks, &pairs);
        EXPECT_EQ(pairs, 1) << name;
        EXPECT_EQ(checks.size(), 1U) << name;
    }
}

TEST(MopRaceRecordTest, SameTextAccessesMergeIntoOneRecord)
{
    // Two matmuls that print alike (the text leaves out m, k and n) but
    // write L0[0, 4) and L0[0, 8): one record, so the race with a read
    // of L0[2, 6) names their union's overlap, not the first one's.
    const auto matmul = [](std::int64_t n) {
        MetaOp op;
        op.kind = MetaOpKind::kDcom;
        op.func = dcomfunc::kMatMul;
        op.src = l0(100);
        op.mutableSrc2() = l0(200);
        op.dst = l0(0);
        op.len = 4;
        DcomParams &p = op.mutableDcomParams();
        p.in_h = 2;
        p.in_w = 1;
        p.channels = n;
        return op;
    };
    MetaOp relu;
    relu.kind = MetaOpKind::kDcom;
    relu.func = dcomfunc::kRelu;
    relu.src = l0(2);
    relu.dst = l0(300);
    relu.len = 4;
    ASSERT_EQ(matmul(2).toString(), matmul(4).toString());
    const MopProgram program =
        makeProgram({}, asArms({{matmul(2), matmul(4)}, {relu}}), false);
    AnalyzeOptions options;
    options.structural = false;
    const AnalyzeResult result = analyzeProgram(
        program, presets::tutorialTable2(ComputeMode::kXBM), options);
    EXPECT_EQ(raceLines(result),
              std::vector<std::string>{
                  "race-read-write|compute|0|parallel arms write vs read on "
                  "L0[2, 6): " +
                  matmul(2).toString() + " vs " + relu.toString()});
}

} // namespace
} // namespace cimmlc

#include "mop/program.h"

#include <limits>
#include <map>
#include <mutex>

#include "common/strutil.h"

namespace cimmlc {

FuncName::FuncName(std::string_view name)
{
    if (name.empty())
        return;
    for (const std::string_view &known : dcomfunc::kKnown) {
        if (known == name) {
            text_ = &known;
            return;
        }
    }
    // Unknown names (only the text parser makes them) live until exit.
    // Map nodes never move, so a name's entry keeps its address.
    static std::mutex mutex;
    static std::map<std::string, std::string_view, std::less<>> pool;
    const std::lock_guard<std::mutex> lock(mutex);
    auto it = pool.find(name);
    if (it == pool.end()) {
        it = pool.emplace(std::string(name), std::string_view()).first;
        it->second = it->first;
    }
    text_ = &it->second;
}

bool
FuncName::isKnown() const
{
    for (const std::string_view &known : dcomfunc::kKnown) {
        if (text_ == &known)
            return true;
    }
    return false;
}

const char *
metaOpKindName(MetaOpKind kind)
{
    switch (kind) {
      case MetaOpKind::kReadCore: return "cim.readcore";
      case MetaOpKind::kWriteCore: return "cim.writecore";
      case MetaOpKind::kReadXb: return "cim.readxb";
      case MetaOpKind::kWriteXb: return "cim.writexb";
      case MetaOpKind::kReadRow: return "cim.readrow";
      case MetaOpKind::kWriteRow: return "cim.writerow";
      case MetaOpKind::kDcom: return "dcom";
      case MetaOpKind::kMov: return "mov";
    }
    return "?";
}

bool
isCimMetaOp(MetaOpKind kind)
{
    switch (kind) {
      case MetaOpKind::kReadCore:
      case MetaOpKind::kWriteCore:
      case MetaOpKind::kReadXb:
      case MetaOpKind::kWriteXb:
      case MetaOpKind::kReadRow:
      case MetaOpKind::kWriteRow:
        return true;
      default:
        return false;
    }
}

std::string
bufAddrToString(const BufAddr &addr)
{
    if (addr.space == MemSpace::kL0)
        return strformat("L0[%lld]", static_cast<long long>(addr.offset));
    return strformat("L1c%lld[%lld]", static_cast<long long>(addr.core),
                     static_cast<long long>(addr.offset));
}

namespace {

std::string
coreParamsToString(const CoreOpParams &p)
{
    std::string win;
    if (p.win_begin != 0 || p.win_end != 0) {
        win = strformat(", wb=%lld, we=%lld",
                        static_cast<long long>(p.win_begin),
                        static_cast<long long>(p.win_end));
    }
    if (p.is_conv) {
        return strformat(
            "conv, cin=%lld, h=%lld, w=%lld, cout=%lld, k=%lld, s=%lld, "
            "p=%lld%s",
            static_cast<long long>(p.in_channels),
            static_cast<long long>(p.in_h),
            static_cast<long long>(p.in_w),
            static_cast<long long>(p.out_channels),
            static_cast<long long>(p.kernel),
            static_cast<long long>(p.stride),
            static_cast<long long>(p.padding), win.c_str());
    }
    return strformat("linear, fin=%lld, fout=%lld%s",
                     static_cast<long long>(p.in_features),
                     static_cast<long long>(p.out_features), win.c_str());
}

std::string
payloadShapeToString(const std::shared_ptr<const Int8Tensor> &payload)
{
    return payload ? payload->shape().toString() : "[]";
}

} // namespace

std::string
MetaOp::toString() const
{
    switch (kind) {
      case MetaOpKind::kReadCore:
        return strformat(
            "cim.readcore(%s, coreaddr=%lld, src=%s, dst=%s)",
            coreParamsToString(coreParams()).c_str(),
            static_cast<long long>(core), bufAddrToString(src).c_str(),
            bufAddrToString(dst).c_str());
      case MetaOpKind::kWriteCore:
        return strformat("cim.writecore(%s, coreaddr=%lld, weights=%s)",
                         coreParamsToString(coreParams()).c_str(),
                         static_cast<long long>(core),
                         payloadShapeToString(payload).c_str());
      case MetaOpKind::kReadXb:
        return strformat(
            "cim.readxb(xbaddr=c%lld.x%lld, len=%lld, rows=%lld, "
            "cols=%lld, src=%s, dst=%s)",
            static_cast<long long>(core), static_cast<long long>(xb),
            static_cast<long long>(len), static_cast<long long>(rows),
            static_cast<long long>(cols), bufAddrToString(src).c_str(),
            bufAddrToString(dst).c_str());
      case MetaOpKind::kWriteXb:
        return strformat("cim.writexb(xbaddr=c%lld.x%lld, mat=%s)",
                         static_cast<long long>(core),
                         static_cast<long long>(xb),
                         payloadShapeToString(payload).c_str());
      case MetaOpKind::kReadRow:
        return strformat(
            "cim.readrow(rowaddr=c%lld.x%lld.r%lld, len=%lld, cols=%lld, "
            "src=%s, dst=%s)",
            static_cast<long long>(core), static_cast<long long>(xb),
            static_cast<long long>(row), static_cast<long long>(len),
            static_cast<long long>(cols), bufAddrToString(src).c_str(),
            bufAddrToString(dst).c_str());
      case MetaOpKind::kWriteRow:
        return strformat(
            "cim.writerow(rowaddr=c%lld.x%lld.r%lld, len=%lld, value=%s)",
            static_cast<long long>(core), static_cast<long long>(xb),
            static_cast<long long>(row), static_cast<long long>(len),
            payloadShapeToString(payload).c_str());
      case MetaOpKind::kDcom: {
        const DcomParams &p = dcomParams();
        std::string extras;
        if (func == dcomfunc::kRequant) {
            extras = strformat(", shift=%d", p.shift);
        } else if (func == dcomfunc::kMaxPool ||
                   func == dcomfunc::kAvgPool ||
                   func == dcomfunc::kGlobalAvgPool) {
            extras = strformat(
                ", k=%lld, s=%lld, p=%lld, c=%lld, h=%lld, w=%lld",
                static_cast<long long>(p.kernel),
                static_cast<long long>(p.stride),
                static_cast<long long>(p.padding),
                static_cast<long long>(p.channels),
                static_cast<long long>(p.in_h),
                static_cast<long long>(p.in_w));
        } else if (func == dcomfunc::kSoftmax ||
                   func == dcomfunc::kLayerNorm) {
            extras = strformat(", w=%lld", static_cast<long long>(p.in_w));
        }
        if (host)
            extras += ", host=1";
        if (func == dcomfunc::kAdd || func == dcomfunc::kMatMul) {
            return strformat("%s(src1=%s, src2=%s, dst=%s, len=%lld%s)",
                             func.c_str(), bufAddrToString(src).c_str(),
                             bufAddrToString(src2()).c_str(),
                             bufAddrToString(dst).c_str(),
                             static_cast<long long>(len), extras.c_str());
        }
        return strformat("%s(src=%s, dst=%s, len=%lld%s)", func.c_str(),
                         bufAddrToString(src).c_str(),
                         bufAddrToString(dst).c_str(),
                         static_cast<long long>(len), extras.c_str());
      }
      case MetaOpKind::kMov: {
        const char *host_tag = host ? ", host=1" : "";
        if (count > 1) {
            return strformat(
                "mov(src=%s, dst=%s, len=%lld, count=%lld, sstride=%lld, "
                "dstride=%lld%s)",
                bufAddrToString(src).c_str(),
                bufAddrToString(dst).c_str(), static_cast<long long>(len),
                static_cast<long long>(count),
                static_cast<long long>(src_stride),
                static_cast<long long>(dst_stride), host_tag);
        }
        return strformat("mov(src=%s, dst=%s, len=%lld%s)",
                         bufAddrToString(src).c_str(),
                         bufAddrToString(dst).c_str(),
                         static_cast<long long>(len), host_tag);
      }
    }
    return "?";
}

namespace {

constexpr std::int64_t kCountMax = std::numeric_limits<std::int64_t>::max();

std::int64_t
saturatingAdd(std::int64_t a, std::int64_t b)
{
    std::int64_t out = 0;
    return __builtin_add_overflow(a, b, &out) ? kCountMax : out;
}

std::int64_t
saturatingMul(std::int64_t a, std::int64_t b)
{
    std::int64_t out = 0;
    return __builtin_mul_overflow(a, b, &out) ? kCountMax : out;
}

/** The counts of @p stmt's subtree, composed as the builder composes
 * them. */
MopCounts
countOf(const Stmt &stmt)
{
    MopCounts out;
    switch (stmt.kind) {
      case Stmt::Kind::kOp:
        out.addOp(stmt.op.kind);
        break;
      case Stmt::Kind::kParallel:
        out.parallel_blocks = 1;
        for (const Stmt &child : stmt.body)
            out += countOf(child);
        break;
      case Stmt::Kind::kRepeat:
        for (const Stmt &child : stmt.body)
            out += countOf(child);
        out = out.repeated(stmt.repeat);
        break;
    }
    return out;
}

void
visitStmt(const Stmt &stmt, const std::function<void(const MetaOp &)> &fn)
{
    switch (stmt.kind) {
      case Stmt::Kind::kOp:
        fn(stmt.op);
        break;
      case Stmt::Kind::kParallel:
        for (const Stmt &child : stmt.body)
            visitStmt(child, fn);
        break;
      case Stmt::Kind::kRepeat:
        for (std::int64_t i = 0; i < stmt.repeat; ++i) {
            for (const Stmt &child : stmt.body)
                visitStmt(child, fn);
        }
        break;
    }
}

} // namespace

std::int64_t
MopCounts::total() const
{
    return saturatingAdd(saturatingAdd(cim_reads, cim_writes),
                         saturatingAdd(dcom, mov));
}

MopCounts &
MopCounts::operator+=(const MopCounts &other)
{
    cim_reads = saturatingAdd(cim_reads, other.cim_reads);
    cim_writes = saturatingAdd(cim_writes, other.cim_writes);
    dcom = saturatingAdd(dcom, other.dcom);
    mov = saturatingAdd(mov, other.mov);
    parallel_blocks = saturatingAdd(parallel_blocks, other.parallel_blocks);
    return *this;
}

MopCounts
MopCounts::repeated(std::int64_t times) const
{
    if (times <= 0)
        return MopCounts{};
    MopCounts out;
    out.cim_reads = saturatingMul(cim_reads, times);
    out.cim_writes = saturatingMul(cim_writes, times);
    out.dcom = saturatingMul(dcom, times);
    out.mov = saturatingMul(mov, times);
    out.parallel_blocks = saturatingMul(parallel_blocks, times);
    return out;
}

void
StmtBuilder::append(Stmt stmt)
{
    counts_ += countOf(stmt);
    stmts_.push_back(std::move(stmt));
}

void
StmtBuilder::appendParallel(StmtBuilder arms)
{
    counts_ += arms.counts_;
    counts_ += MopCounts{.parallel_blocks = 1};
    stmts_.push_back(Stmt::makeParallel(std::move(arms.stmts_)));
}

void
StmtBuilder::appendRepeat(std::int64_t count, StmtBuilder body)
{
    counts_ += body.counts_.repeated(count);
    stmts_.push_back(Stmt::makeRepeat(count, std::move(body.stmts_)));
}

void
StmtBuilder::recount()
{
    counts_ = MopCounts{};
    for (const Stmt &stmt : stmts_)
        counts_ += countOf(stmt);
}

MopCounts
MopProgram::counts() const
{
    MopCounts out = init_.counts();
    out += compute_.counts();
    return out;
}

void
MopProgram::edit(const std::function<void(std::vector<Stmt> &init,
                                          std::vector<Stmt> &compute)> &fn)
{
    fn(init_.stmts_, compute_.stmts_);
    init_.recount();
    compute_.recount();
}

void
MopProgram::forEachOp(const std::function<void(const MetaOp &)> &fn) const
{
    for (const Stmt &stmt : init())
        visitStmt(stmt, fn);
    for (const Stmt &stmt : compute())
        visitStmt(stmt, fn);
}

std::string
MopProgram::summary() const
{
    const MopCounts c = counts();
    return strformat(
        "%s [%s]: %lld ops (%lld cim-read, %lld cim-write, %lld dcom, "
        "%lld mov), %lld parallel blocks",
        name_.c_str(), mode_.c_str(), static_cast<long long>(c.total()),
        static_cast<long long>(c.cim_reads),
        static_cast<long long>(c.cim_writes),
        static_cast<long long>(c.dcom), static_cast<long long>(c.mov),
        static_cast<long long>(c.parallel_blocks));
}

} // namespace cimmlc

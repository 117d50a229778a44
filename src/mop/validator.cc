#include "mop/validator.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/strutil.h"

namespace cimmlc {

namespace {

/** Per-mode op legality: which CIM meta-ops each interface exposes. */
bool
opAllowedInMode(MetaOpKind kind, ComputeMode mode)
{
    switch (kind) {
      case MetaOpKind::kReadCore:
      case MetaOpKind::kWriteCore:
        // Core-granularity ops exist on every interface.
        return true;
      case MetaOpKind::kReadXb:
      case MetaOpKind::kWriteXb:
        return mode == ComputeMode::kXBM || mode == ComputeMode::kWLM;
      case MetaOpKind::kReadRow:
      case MetaOpKind::kWriteRow:
        return mode == ComputeMode::kWLM;
      case MetaOpKind::kDcom:
      case MetaOpKind::kMov:
        return true;
    }
    return false;
}

namespace check {
inline constexpr const char *kParallelNest = "struct-parallel-nest";
inline constexpr const char *kRepeatCount = "struct-repeat-count";
inline constexpr const char *kMode = "struct-mode";
inline constexpr const char *kCoreRange = "struct-core-range";
inline constexpr const char *kXbarRange = "struct-xbar-range";
inline constexpr const char *kGeometry = "struct-geometry";
inline constexpr const char *kWritePolicy = "struct-write-policy";
inline constexpr const char *kDcomFunc = "struct-dcom-func";
inline constexpr const char *kMov = "struct-mov";
inline constexpr const char *kAddr = "struct-addr";
} // namespace check

class Validator
{
  public:
    Validator(const CimArchitecture &arch, const ValidateOptions &options)
        : arch_(arch), options_(options)
    {
    }

    std::vector<MopDiagnostic>
    run(const MopProgram &program)
    {
        section_ = "init";
        next_index_ = 0;
        walk(program.init(), /*in_init=*/true, /*in_parallel=*/false);
        section_ = "compute";
        next_index_ = 0;
        walk(program.compute(), false, false);
        return std::move(diags_);
    }

  private:
    void
    walk(const std::vector<Stmt> &stmts, bool in_init, bool in_parallel)
    {
        for (const Stmt &stmt : stmts) {
            const std::int64_t index = next_index_++;
            switch (stmt.kind) {
              case Stmt::Kind::kOp:
                checkOp(stmt.op, in_init, index);
                break;
              case Stmt::Kind::kParallel:
                if (in_parallel) {
                    add(index, check::kParallelNest,
                        StatusCode::kInvalidArgument,
                        "nested parallel blocks are not supported");
                }
                walk(stmt.body, in_init, /*in_parallel=*/true);
                break;
              case Stmt::Kind::kRepeat:
                if (stmt.repeat <= 0) {
                    add(index, check::kRepeatCount,
                        StatusCode::kInvalidArgument,
                        strformat(
                            "repeat count must be positive, got %lld",
                            static_cast<long long>(stmt.repeat)));
                }
                walk(stmt.body, in_init, in_parallel);
                break;
            }
        }
    }

    void
    add(std::int64_t index, const char *check_id, StatusCode code,
        std::string message)
    {
        MopDiagnostic diag;
        diag.severity = DiagSeverity::kError;
        diag.check = check_id;
        diag.section = section_;
        diag.stmt_index = index;
        diag.code = code;
        diag.message = std::move(message);
        diags_.push_back(std::move(diag));
    }

    bool
    checkBufAddr(const BufAddr &addr, std::int64_t extent,
                 const MetaOp &op, std::int64_t index)
    {
        return checkBufAddr(addr, Footprint{0, extent}, op, index);
    }

    /** Checks the elements [offset + lo, offset + hi) of @p addr; a
     * null footprint is one that overflowed int64. */
    bool
    checkBufAddr(const BufAddr &addr, const std::optional<Footprint> &fp,
                 const MetaOp &op, std::int64_t index)
    {
        std::int64_t first = 0, end = 0;
        const bool fits =
            fp && !__builtin_add_overflow(addr.offset, fp->lo, &first) &&
            !__builtin_add_overflow(addr.offset, fp->hi, &end);
        if (addr.offset < 0 || (fits && (first < 0 || fp->hi < 0))) {
            add(index, check::kAddr, StatusCode::kOutOfRange,
                "negative buffer address in " + op.toString());
            return false;
        }
        if (!fits || end > kMaxBufferElements) {
            add(index, check::kAddr, StatusCode::kOutOfRange,
                "buffer extent past 2^59 elements in " + op.toString());
            return false;
        }
        if (addr.space == MemSpace::kL1) {
            if (addr.core < 0 || addr.core >= arch_.chip.coreNumber()) {
                add(index, check::kAddr, StatusCode::kOutOfRange,
                    "L1 core out of range in " + op.toString());
                return false;
            }
            // Element size is int32 in the executable model.
            if (arch_.core.l1_size_kib > 0) {
                const std::int64_t capacity = static_cast<std::int64_t>(
                    arch_.core.l1_size_kib * 1024.0 / 4.0);
                if (end > capacity) {
                    add(index, check::kAddr, StatusCode::kOutOfRange,
                        strformat(
                            "L1 overflow (%lld > %lld elems) in %s",
                            static_cast<long long>(end),
                            static_cast<long long>(capacity),
                            op.toString().c_str()));
                    return false;
                }
            }
        } else if (options_.enforce_l0_capacity
                   && arch_.chip.l0_size_kib > 0) {
            const std::int64_t capacity = static_cast<std::int64_t>(
                arch_.chip.l0_size_kib * 1024.0 / 4.0);
            if (end > capacity) {
                add(index, check::kAddr, StatusCode::kOutOfRange,
                    strformat("L0 overflow (%lld > %lld elems) in %s",
                              static_cast<long long>(end),
                              static_cast<long long>(capacity),
                              op.toString().c_str()));
                return false;
            }
        }
        return true;
    }

    // Mirrors the historical first-error semantics per op: after a
    // finding, the remaining checks on the same op are skipped (they
    // would cascade misleadingly); the walk continues with the next
    // statement.
    void
    checkOp(const MetaOp &op, bool in_init, std::int64_t index)
    {
        if (!opAllowedInMode(op.kind, arch_.mode)) {
            add(index, check::kMode, StatusCode::kFailedPrecondition,
                strformat(
                    "%s is not exposed by the %s programming interface",
                    metaOpKindName(op.kind), computeModeName(arch_.mode)));
            return;
        }
        if (isCimMetaOp(op.kind)) {
            if (op.core < 0 || op.core >= arch_.chip.coreNumber()) {
                add(index, check::kCoreRange, StatusCode::kOutOfRange,
                    strformat("core %lld out of range [0, %lld) in %s",
                              static_cast<long long>(op.core),
                              static_cast<long long>(
                                  arch_.chip.coreNumber()),
                              op.toString().c_str()));
                return;
            }
        }
        switch (op.kind) {
          case MetaOpKind::kReadXb:
          case MetaOpKind::kWriteXb:
          case MetaOpKind::kReadRow:
          case MetaOpKind::kWriteRow: {
            if (op.xb < 0 || op.xb >= arch_.core.xbNumber()) {
                add(index, check::kXbarRange, StatusCode::kOutOfRange,
                    strformat(
                        "crossbar %lld out of range [0, %lld) in %s",
                        static_cast<long long>(op.xb),
                        static_cast<long long>(arch_.core.xbNumber()),
                        op.toString().c_str()));
                return;
            }
            break;
          }
          default:
            break;
        }
        switch (op.kind) {
          case MetaOpKind::kReadXb: {
            // The bounds are written so that parsed fields cannot
            // overflow them (op.xb is already in range).
            if (op.len > arch_.core.xbNumber() - op.xb) {
                add(index, check::kGeometry, StatusCode::kOutOfRange,
                    "readxb len exceeds crossbars in " + op.toString());
                return;
            }
            if (op.rows > arch_.xbar.rows) {
                add(index, check::kGeometry, StatusCode::kOutOfRange,
                    "readxb rows exceed crossbar rows in " +
                        op.toString());
                return;
            }
            // cols > logical cols * len: a product past int64 is below
            // every cols when len < 0 and above every cols otherwise.
            std::int64_t cols = 0;
            if (__builtin_mul_overflow(arch_.logicalColsPerCrossbar(),
                                       op.len, &cols)
                    ? op.len < 0
                    : op.cols > cols) {
                add(index, check::kGeometry, StatusCode::kOutOfRange,
                    "readxb cols exceed capacity in " + op.toString());
                return;
            }
            if (!checkBufAddr(op.src, op.rows, op, index))
                return;
            checkBufAddr(op.dst, op.cols, op, index);
            break;
          }
          case MetaOpKind::kReadRow: {
            if (op.row < 0 || op.len > arch_.xbar.rows - op.row) {
                add(index, check::kGeometry, StatusCode::kOutOfRange,
                    "readrow range exceeds crossbar in " + op.toString());
                return;
            }
            if (op.len > arch_.xbar.parallel_row) {
                add(index, check::kGeometry, StatusCode::kOutOfRange,
                    strformat("readrow activates %lld rows but "
                              "parallel_row is %lld in %s",
                              static_cast<long long>(op.len),
                              static_cast<long long>(
                                  arch_.xbar.parallel_row),
                              op.toString().c_str()));
                return;
            }
            if (op.cols > arch_.logicalColsPerCrossbar()) {
                add(index, check::kGeometry, StatusCode::kOutOfRange,
                    "readrow cols exceed capacity in " + op.toString());
                return;
            }
            if (!checkBufAddr(op.src, op.len, op, index))
                return;
            checkBufAddr(op.dst, op.cols, op, index);
            break;
          }
          case MetaOpKind::kWriteXb:
          case MetaOpKind::kWriteRow: {
            if (!in_init && options_.enforce_write_policy &&
                arch_.weightsStationary()) {
                add(index, check::kWritePolicy,
                    StatusCode::kFailedPrecondition,
                    strformat("%s devices freeze weights after init; "
                              "runtime write in %s",
                              cellTypeName(arch_.xbar.cell_type),
                              op.toString().c_str()));
                return;
            }
            if (op.kind == MetaOpKind::kWriteRow &&
                (op.row < 0 || op.len > arch_.xbar.rows - op.row)) {
                add(index, check::kGeometry, StatusCode::kOutOfRange,
                    "writerow range exceeds crossbar in " +
                        op.toString());
                return;
            }
            if (op.payload && op.payload->shape().rank() > 0) {
                const std::int64_t prows = op.payload->shape().dim(0);
                const std::int64_t pcols =
                    op.payload->shape().rank() > 1
                        ? op.payload->shape().dim(1) : 1;
                if (op.kind == MetaOpKind::kWriteXb &&
                    (prows > arch_.xbar.rows ||
                     pcols > arch_.logicalColsPerCrossbar())) {
                    add(index, check::kGeometry, StatusCode::kOutOfRange,
                        "writexb payload exceeds crossbar in " +
                            op.toString());
                    return;
                }
                if (op.kind == MetaOpKind::kWriteRow &&
                    (prows > op.len ||
                     pcols > arch_.logicalColsPerCrossbar())) {
                    add(index, check::kGeometry, StatusCode::kOutOfRange,
                        "writerow payload exceeds range in " +
                            op.toString());
                    return;
                }
            }
            break;
          }
          case MetaOpKind::kDcom: {
            if (!op.func.isKnown()) {
                add(index, check::kDcomFunc,
                    StatusCode::kInvalidArgument,
                    "unknown DCOM function '" +
                        std::string(op.func.view()) + "'");
                return;
            }
            if (!checkBufAddr(op.src, op.len, op, index))
                return;
            checkBufAddr(op.dst, 0, op, index);
            break;
          }
          case MetaOpKind::kMov: {
            if (op.len <= 0 || op.count <= 0) {
                add(index, check::kMov, StatusCode::kInvalidArgument,
                    "mov len/count must be positive in " + op.toString());
                return;
            }
            if (!checkBufAddr(op.src,
                              stridedHull(op.len, op.count, op.src_stride),
                              op, index))
                return;
            checkBufAddr(op.dst, stridedHull(op.len, op.count, op.dst_stride),
                         op, index);
            break;
          }
          case MetaOpKind::kReadCore:
          case MetaOpKind::kWriteCore:
            break;
        }
    }

    const CimArchitecture &arch_;
    ValidateOptions options_;
    std::string section_;
    std::int64_t next_index_ = 0;
    std::vector<MopDiagnostic> diags_;
};

} // namespace

std::optional<Footprint>
stridedHull(std::int64_t len, std::int64_t count, std::int64_t stride)
{
    std::int64_t span = 0, hi = 0;
    if (len < 1 || count < 1 ||
        __builtin_mul_overflow(stride, count - 1, &span) ||
        __builtin_add_overflow(std::max<std::int64_t>(span, 0), len, &hi))
        return std::nullopt;
    return Footprint{std::min<std::int64_t>(span, 0), hi};
}

std::vector<MopDiagnostic>
collectProgramDiagnostics(const MopProgram &program,
                          const CimArchitecture &arch,
                          const ValidateOptions &options)
{
    Validator validator(arch, options);
    return validator.run(program);
}

Status
validateProgram(const MopProgram &program, const CimArchitecture &arch,
                const ValidateOptions &options)
{
    return firstError(collectProgramDiagnostics(program, arch, options));
}

} // namespace cimmlc

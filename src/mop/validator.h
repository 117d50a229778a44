/**
 * @file
 * Structural validation of meta-operator flows against a target
 * architecture: address ranges, row/column bounds, parallel-row limits,
 * computing-mode legality, and device write policy.
 *
 * Two entry points over the same traversal:
 *  - collectProgramDiagnostics() reports every violation as a
 *    MopDiagnostic ("struct-*" check ids) — used by the mopcheck lint
 *    stage;
 *  - validateProgram() keeps the historical first-error Status
 *    contract as a thin wrapper.
 */
#ifndef CIMMLC_MOP_VALIDATOR_H
#define CIMMLC_MOP_VALIDATOR_H

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/arch.h"
#include "common/status.h"
#include "mop/diagnostics.h"
#include "mop/program.h"

namespace cimmlc {

/** Validation knobs. */
struct ValidateOptions {
    //! reject runtime crossbar writes on weights-stationary devices
    bool enforce_write_policy = true;
    /**
     * Treat l0_size_kib as a hard address bound. Hand-built flows
     * address physical L0; codegen, however, assigns tensor offsets in
     * a virtual L0 space (the global buffer is backed by off-chip
     * memory, and l0_size_kib prices bandwidth/energy), so the lint
     * stage disables this for emitted programs. L1 bounds are always
     * enforced — per-core scratchpads are physically addressed.
     */
    bool enforce_l0_capacity = true;
};

/** Elements [lo, hi) around an operand's base address. */
struct Footprint {
    std::int64_t lo = 0;
    std::int64_t hi = 0;
};

/**
 * The elements a strided operand of @p count blocks of @p len elements,
 * @p stride apart, spans around its base address (a negative stride
 * puts the later blocks below it); nullopt for a len or count below 1
 * or a hull that does not fit in int64. The structural check bounds a
 * mov by it, and mopcheck falls back to it for many or downward blocks.
 */
std::optional<Footprint> stridedHull(std::int64_t len, std::int64_t count,
                                     std::int64_t stride);

/**
 * Collect-all mode: every structural violation in @p program, in
 * traversal order (init section before compute, pre-order within a
 * section). Per op, only the first violation is reported — follow-on
 * checks on an already-broken op would cascade misleadingly. All
 * structural findings are error severity.
 */
std::vector<MopDiagnostic>
collectProgramDiagnostics(const MopProgram &program,
                          const CimArchitecture &arch,
                          const ValidateOptions &options = {});

/**
 * Checks @p program against @p arch. The first violation is returned;
 * OK means the flow is structurally executable on the architecture.
 */
Status validateProgram(const MopProgram &program,
                       const CimArchitecture &arch,
                       const ValidateOptions &options = {});

} // namespace cimmlc

#endif // CIMMLC_MOP_VALIDATOR_H

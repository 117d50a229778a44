/**
 * @file
 * "mopcheck": dataflow static analysis over meta-operator programs.
 *
 * Walks the sequential / `parallel {}` / `repeat N {}` structure of a
 * MopProgram and checks properties the structural validator cannot see
 * because they span statements. A `repeat` body of count > 1 is walked
 * twice: the second walk sees what the first left behind, as the next
 * iteration would, so loop-carried dataflow and live ranges across
 * iterations are checked without unrolling. Races are checked in the
 * first walk only; they depend on nothing but the block. The checks:
 *
 *  - def-before-use on buffer regions (use-before-def-buffer), crossbar
 *    weights (use-before-def-xbar, xbar-overwrite) and core state
 *    (use-before-def-core);
 *  - races across the arms of a `parallel {}` block: overlapping
 *    write-write / read-write buffer ranges (race-write-write,
 *    race-read-write), conflicting crossbar programming (race-xbar) and
 *    core-state updates (race-core). CIM reads accumulate commutatively
 *    (`dst[j] += ...` in the functional simulator), so overlapping
 *    accumulates across arms are legal;
 *  - capacity: peak live elements per buffer — live ranges run from
 *    first def to last use — against the architecture's l0/l1 sizes
 *    (capacity-l0, capacity-l1);
 *  - warnings: stores fully overwritten before any read (dead-store),
 *    programmed crossbars that are never activated (xbar-unused-write),
 *    core state replaced before use (core-overwrite).
 *
 * Every finding is reported (std::vector<MopDiagnostic>), unlike
 * validateProgram's first-error Status. Diagnostics are deterministic
 * and invariant under permutation of parallel arms: findings inside a
 * block are anchored at the block's statement index and canonically
 * ordered.
 *
 * Compressed flows (CodegenResult::executable == false) emit one
 * representative window inside `repeat` blocks and only activate the
 * representative replica's crossbars, so reads are under-approximated
 * and no "never read / never written" conclusion is provable. Set
 * AnalyzeOptions::executable = false to restrict the analysis to the
 * sound subset: races, crossbar/core use-before-def, capacity and
 * structure stay on; buffer use-before-def, dead-store,
 * xbar-overwrite / core-overwrite and the unused-programming warnings
 * are suppressed.
 *
 * ValidateOptions::enforce_l0_capacity gates both the structural L0
 * address bound and the capacity-l0 finding: emitted flows address a
 * virtual L0 space (see ValidateOptions), so the lint stage disables
 * it while hand-built programs keep the physical bound. Peak-live
 * statistics are recorded either way.
 */
#ifndef CIMMLC_MOP_ANALYZER_H
#define CIMMLC_MOP_ANALYZER_H

#include <cstdint>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "mop/diagnostics.h"
#include "mop/program.h"
#include "mop/validator.h"

namespace cimmlc {

/** A buffer region defined before the program runs (e.g. a graph input
 * loaded by the host, or a scratch area owned by the caller). A region
 * outside [0, kMaxBufferElements) is ignored. */
struct LiveInRegion {
    MemSpace space = MemSpace::kL0;
    std::int64_t core = 0; //!< L1 bank (ignored for L0)
    std::int64_t begin = 0;
    std::int64_t end = 0; //!< exclusive, elements
};

/** Analyzer knobs. */
struct AnalyzeOptions {
    //! regions externally initialized before execution
    std::vector<LiveInRegion> live_in;
    //! the flow is unrolled/executable: enables the buffer-region
    //! use-before-def, dead-store and unused-crossbar checks
    bool executable = true;
    //! run the structural validator first ("struct-*" findings)
    bool structural = true;
    //! options for the structural pass
    ValidateOptions validate;
};

/** Everything one analyzer run learned about a program. */
struct AnalyzeResult {
    std::vector<MopDiagnostic> diagnostics;
    std::int64_t statements = 0; //!< statement nodes in both sections
    std::int64_t ops = 0;        //!< op statements in both sections
    std::int64_t l0_peak_live_elems = 0;
    std::int64_t l1_peak_live_elems = 0; //!< max over cores
    std::int64_t crossbars_programmed = 0;

    std::int64_t errors() const;
    std::int64_t warnings() const;
    bool clean() const { return diagnostics.empty(); }

    /** One-line "mopcheck: ..." statistics string. */
    std::string summary() const;
    /** Findings as a severity|check|loc|message table. */
    std::string table() const;
};

/** Runs mopcheck on @p program against @p arch. */
AnalyzeResult analyzeProgram(const MopProgram &program,
                             const CimArchitecture &arch,
                             const AnalyzeOptions &options = {});

} // namespace cimmlc

#endif // CIMMLC_MOP_ANALYZER_H

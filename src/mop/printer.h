/**
 * @file
 * Pretty-printer for meta-operator flows in the Figure 16 surface syntax
 * (BNF of Figure 10).
 */
#ifndef CIMMLC_MOP_PRINTER_H
#define CIMMLC_MOP_PRINTER_H

#include <string>

#include "mop/program.h"

namespace cimmlc {

/** Printer options. */
struct PrintOptions {
    //! truncate each section after this many statements (0 = no limit);
    //! every op, `parallel {` and `repeat N {` line counts as one. The
    //! first statement cut is replaced by one "... (truncated)" line at
    //! its indentation, and open blocks still print their closing brace.
    std::int64_t max_statements = 0;
    //! include the header comment with the program summary
    bool header = true;
};

/** Renders @p program as indented text. */
std::string printProgram(const MopProgram &program,
                         const PrintOptions &options = {});

/** Renders a statement list at @p indent (used for section excerpts). */
std::string printStatements(const std::vector<Stmt> &stmts, int indent,
                            std::int64_t max_statements = 0);

} // namespace cimmlc

#endif // CIMMLC_MOP_PRINTER_H

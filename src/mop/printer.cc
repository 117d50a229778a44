#include "mop/printer.h"

#include <sstream>

#include "common/strutil.h"

namespace cimmlc {

namespace {

/** Statements a section may still print. */
struct Budget {
    std::int64_t left; //!< < 0: no limit
    bool cut = false;  //!< the truncation marker has been printed
};

/**
 * Prints @p stmts at @p indent. The first statement past the budget is
 * replaced by one "... (truncated)" marker at its own indentation;
 * after that, open blocks print only their closing braces.
 */
void
printBody(const std::vector<Stmt> &stmts, int indent, Budget *budget,
          std::ostringstream *out)
{
    const std::string pad(static_cast<std::size_t>(indent) * 4, ' ');
    for (const Stmt &stmt : stmts) {
        if (budget->cut)
            return;
        if (budget->left == 0) {
            *out << pad << "... (truncated)\n";
            budget->cut = true;
            return;
        }
        if (budget->left > 0)
            --budget->left;
        switch (stmt.kind) {
          case Stmt::Kind::kOp:
            *out << pad << stmt.op.toString() << "\n";
            break;
          case Stmt::Kind::kParallel:
            *out << pad << "parallel {\n";
            printBody(stmt.body, indent + 1, budget, out);
            *out << pad << "}\n";
            break;
          case Stmt::Kind::kRepeat:
            *out << pad << "repeat " << stmt.repeat << " {\n";
            printBody(stmt.body, indent + 1, budget, out);
            *out << pad << "}\n";
            break;
        }
    }
}

} // namespace

std::string
printStatements(const std::vector<Stmt> &stmts, int indent,
                std::int64_t max_statements)
{
    std::ostringstream out;
    Budget budget{max_statements == 0 ? -1 : max_statements};
    printBody(stmts, indent, &budget, &out);
    return out.str();
}

std::string
printProgram(const MopProgram &program, const PrintOptions &options)
{
    std::ostringstream out;
    if (options.header)
        out << "// " << program.summary() << "\n";
    if (!program.init().empty()) {
        out << "init:\n";
        out << printStatements(program.init(), 1,
                               options.max_statements);
    }
    out << "compute:\n";
    out << printStatements(program.compute(), 1, options.max_statements);
    return out.str();
}

} // namespace cimmlc

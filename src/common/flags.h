/**
 * @file
 * Command-line flags from one table per binary.
 *
 * A binary lists each flag once, as a Flag row: its name, the value it
 * takes, where the value lands, its --help line, and the modes of the
 * binary that read it. parseFlags() walks argv in order against the
 * rows, printFlagHelp() renders --help from them, and checkFlagModes()
 * rejects a given flag that the chosen mode does not read, so no mode
 * drops a flag silently.
 */
#ifndef CIMMLC_COMMON_FLAGS_H
#define CIMMLC_COMMON_FLAGS_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace cimmlc {

/** Target of the flag that prints --help; it also answers to -h. */
struct FlagHelp {};

/**
 * Where a flag lands when it appears. A bool is set and takes no
 * value; a string takes the next argument, whatever it is; an int or
 * std::int64_t takes a non-negative integer no larger than its row's
 * `max`, or than its type holds. An action (--version) and FlagHelp print to stdout and end
 * the run with exit 0 where they appear.
 */
using FlagTarget = std::variant<bool *, std::string *, int *, std::int64_t *,
                                std::function<void()>, FlagHelp>;

/** One row of a binary's flag table. */
struct Flag {
    const char *name; //!< "--model"
    //! the value as --help shows it: nullptr when the flag takes none,
    //! in brackets ("[N]") when it may be left out, which it is when no
    //! argument follows or the next one starts with '-'
    const char *value;
    FlagTarget target;
    const char *help;
    unsigned modes = ~0U; //!< bit i set: FlagTable::modes[i] reads it
    //! any value but one of the '|'-separated words of `value` is a
    //! usage error
    bool closed = false;
    //! the largest value an integer target takes (0: its type's)
    std::int64_t max = 0;
};

/** A mode of a binary, as --help shows it and a rejection names it. */
struct FlagMode {
    char letter;      //!< its column in --help
    const char *name; //!< "--batch"
};

/** A binary's flags. */
struct FlagTable {
    const char *program; //!< prefixes every usage error
    const char *usage;   //!< the text --help prints above the flags
    std::vector<FlagMode> modes; //!< empty: the binary has one mode
    std::vector<Flag> flags;
};

/** What parseFlags() found. */
struct FlagParse {
    //! set when the run ends at the parse: 0 after an action or --help,
    //! 2 after a usage error (reported on stderr)
    std::optional<int> exit;
    std::vector<const Flag *> given; //!< in argv order, repeats kept

    /** True when a given flag writes @p target. */
    bool has(const void *target) const;
};

/** Walks argv[1..argc) in order against @p table's rows. */
FlagParse parseFlags(const FlagTable &table, int argc,
                     const char *const *argv);

/** Prints the usage text, the mode legend and one line per flag. */
void printFlagHelp(std::FILE *out, const FlagTable &table);

/**
 * Fails naming the first of @p given that @p mode (one mode bit of
 * @p table) does not read.
 */
Status checkFlagModes(const FlagTable &table,
                      const std::vector<const Flag *> &given, unsigned mode);

} // namespace cimmlc

#endif // CIMMLC_COMMON_FLAGS_H

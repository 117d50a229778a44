#include "common/flags.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/strutil.h"

namespace cimmlc {

namespace {

/** Parses @p text as an integer in [0, @p max]: strtoll, so leading
 * blanks pass and anything after the digits fails. */
bool
parseNonNegative(const char *text, std::int64_t max, std::int64_t *out)
{
    char *end = nullptr;
    const long long parsed = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || parsed < 0 || parsed > max)
        return false;
    *out = parsed;
    return true;
}

/** Stores @p value (nullptr: an optional value left out) into @p flag's
 * target; false when an integer is malformed or out of range. */
bool
store(const Flag &flag, const char *value)
{
    return std::visit(
        [&flag, value](const auto &dest) {
            using T = std::decay_t<decltype(dest)>;
            if constexpr (std::is_same_v<T, bool *>) {
                *dest = true;
            } else if constexpr (std::is_same_v<T, std::string *>) {
                if (value != nullptr)
                    *dest = value;
            } else if constexpr (std::is_same_v<T, int *>
                                 || std::is_same_v<T, std::int64_t *>) {
                using Int = std::remove_pointer_t<T>;
                std::int64_t parsed = 0;
                if (value == nullptr)
                    return true;
                if (!parseNonNegative(value,
                                      flag.max > 0
                                          ? flag.max
                                          : std::numeric_limits<Int>::max(),
                                      &parsed))
                    return false;
                *dest = static_cast<Int>(parsed);
            }
            return true;
        },
        flag.target);
}

} // namespace

bool
FlagParse::has(const void *target) const
{
    return std::any_of(given.begin(), given.end(), [target](const Flag *f) {
        return std::visit(
            [target](const auto &dest) {
                if constexpr (std::is_pointer_v<std::decay_t<decltype(dest)>>)
                    return static_cast<const void *>(dest) == target;
                else
                    return false;
            },
            f->target);
    });
}

FlagParse
parseFlags(const FlagTable &table, int argc, const char *const *argv)
{
    FlagParse parse;
    const auto fail = [&](const std::string &message) {
        std::fprintf(stderr, "%s: %s (see --help)\n", table.program,
                     message.c_str());
        parse.exit = 2;
        return parse;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto row = std::find_if(
            table.flags.begin(), table.flags.end(), [&](const Flag &f) {
                return arg == f.name
                       || (arg == "-h"
                           && std::holds_alternative<FlagHelp>(f.target));
            });
        if (row == table.flags.end())
            return fail("unknown flag '" + arg + "'");
        const Flag &flag = *row;
        parse.given.push_back(&flag);

        const char *value = nullptr;
        if (flag.value != nullptr) {
            const bool optional = flag.value[0] == '[';
            if (i + 1 < argc && (!optional || argv[i + 1][0] != '-'))
                value = argv[++i];
            else if (!optional)
                return fail(arg + " needs a value");
        }
        if (value != nullptr && flag.closed) {
            const std::vector<std::string> words = split(flag.value, '|');
            if (std::find(words.begin(), words.end(), value) == words.end())
                return fail(arg + " expects one of " + flag.value
                            + ", got '" + value + "'");
        }
        if (std::holds_alternative<FlagHelp>(flag.target)) {
            printFlagHelp(stdout, table);
            parse.exit = 0;
            return parse;
        }
        if (const auto *action =
                std::get_if<std::function<void()>>(&flag.target)) {
            (*action)();
            parse.exit = 0;
            return parse;
        }
        if (!store(flag, value))
            return fail(arg
                        + (flag.max > 0 ? " expects an integer from 0 to "
                                              + std::to_string(flag.max)
                                        : " expects a non-negative integer")
                        + ", got '" + value + "'");
    }
    return parse;
}

void
printFlagHelp(std::FILE *out, const FlagTable &table)
{
    std::fputs(table.usage, out);
    if (!table.modes.empty()) {
        std::fputs("\nmodes (a flag is an error in every mode its column "
                   "does not name):\n",
                   out);
        for (const FlagMode &mode : table.modes)
            std::fprintf(out, "  %c  %s\n", mode.letter, mode.name);
    }
    std::fputs("\nflags:\n", out);
    std::size_t width = 0;
    for (const Flag &flag : table.flags)
        width = std::max(width, std::strlen(flag.name)
                                    + (flag.value != nullptr
                                           ? 1 + std::strlen(flag.value)
                                           : 0));
    for (const Flag &flag : table.flags) {
        std::string head = flag.name;
        if (flag.value != nullptr)
            head += std::string(" ") + flag.value;
        std::string column;
        for (std::size_t i = 0; i < table.modes.size(); ++i)
            column += (flag.modes >> i & 1U) != 0 ? table.modes[i].letter
                                                  : '-';
        std::fprintf(out, "  %-*s  %s%s%s\n", static_cast<int>(width),
                     head.c_str(), column.c_str(),
                     column.empty() ? "" : "  ", flag.help);
    }
}

Status
checkFlagModes(const FlagTable &table,
               const std::vector<const Flag *> &given, unsigned mode)
{
    const auto unread =
        std::find_if(given.begin(), given.end(), [mode](const Flag *flag) {
            return (flag->modes & mode) == 0;
        });
    if (unread == given.end())
        return Status::ok();
    const FlagMode &named =
        table.modes[static_cast<std::size_t>(std::countr_zero(mode))];
    return invalidArgument(std::string((*unread)->name)
                           + " is not read by the " + named.name + " mode");
}

} // namespace cimmlc

/**
 * @file
 * Logging and invariant-checking utilities.
 *
 * Follows the gem5 split between user-caused and simulator-caused failures:
 *  - CIMMLC_FATAL: the input/configuration is at fault; exit(1).
 *  - CIMMLC_PANIC / CIMMLC_CHECK: an internal invariant broke; abort().
 *  - inform/warn: status messages that never stop execution.
 */
#ifndef CIMMLC_COMMON_LOGGING_H
#define CIMMLC_COMMON_LOGGING_H

#include <sstream>
#include <string>

namespace cimmlc {

/** Severity levels for runtime log messages. */
enum class LogLevel { kDebug = 0, kInfo, kWarn, kError };

/**
 * Process-wide logging.
 *
 * Messages below the threshold, kInfo, are dropped.
 */
class Logger
{
  public:
    static LogLevel threshold();

    /** Emits @p message at @p level if it passes the threshold. */
    static void log(LogLevel level, const std::string &message);

    /** Number of messages emitted at kWarn or above since start. */
    static long warningCount();
};

/** Logs an informational message (never fatal). */
void inform(const std::string &message);
/** Logs a warning about questionable but survivable conditions. */
void warn(const std::string &message);

/** Terminates with exit(1); for user-caused unrecoverable conditions. */
[[noreturn]] void fatal(const std::string &message);
/** Terminates with abort(); for internal bugs. */
[[noreturn]] void panic(const std::string &message);

namespace detail {

/** Stream builder used by the logging macros. */
class LogMessageBuilder
{
  public:
    LogMessageBuilder(LogLevel level, const char *file, int line);
    ~LogMessageBuilder();

    template <typename T>
    LogMessageBuilder &
    operator<<(const T &value)
    {
        stream_ << value;
        return *this;
    }

  private:
    LogLevel level_;
    std::ostringstream stream_;
};

[[noreturn]] void checkFailed(const char *file, int line, const char *expr,
                              const std::string &extra);

/** Stream collector for CHECK failure annotations. */
class CheckMessageCollector
{
  public:
    CheckMessageCollector(const char *file, int line, const char *expr)
        : file_(file), line_(line), expr_(expr)
    {
    }

    ~CheckMessageCollector() { checkFailed(file_, line_, expr_, stream_.str()); }

    template <typename T>
    CheckMessageCollector &
    operator<<(const T &value)
    {
        stream_ << value;
        return *this;
    }

  private:
    const char *file_;
    int line_;
    const char *expr_;
    std::ostringstream stream_;
};

} // namespace detail

#define CIMMLC_LOG(level)                                                   \
    ::cimmlc::detail::LogMessageBuilder(level, __FILE__, __LINE__)
#define CIMMLC_DEBUG() CIMMLC_LOG(::cimmlc::LogLevel::kDebug)
#define CIMMLC_INFO() CIMMLC_LOG(::cimmlc::LogLevel::kInfo)
#define CIMMLC_WARN() CIMMLC_LOG(::cimmlc::LogLevel::kWarn)

/** Aborts with a diagnostic when @p cond is false. Internal invariants. */
#define CIMMLC_CHECK(cond)                                                  \
    if (cond) {                                                             \
    } else                                                                  \
        ::cimmlc::detail::CheckMessageCollector(__FILE__, __LINE__, #cond)

#define CIMMLC_CHECK_EQ(a, b) CIMMLC_CHECK((a) == (b))
#define CIMMLC_CHECK_NE(a, b) CIMMLC_CHECK((a) != (b))
#define CIMMLC_CHECK_LE(a, b) CIMMLC_CHECK((a) <= (b))
#define CIMMLC_CHECK_LT(a, b) CIMMLC_CHECK((a) < (b))
#define CIMMLC_CHECK_GE(a, b) CIMMLC_CHECK((a) >= (b))
#define CIMMLC_CHECK_GT(a, b) CIMMLC_CHECK((a) > (b))

} // namespace cimmlc

#endif // CIMMLC_COMMON_LOGGING_H

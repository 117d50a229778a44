#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/status.h"

namespace cimmlc {

namespace {

constexpr LogLevel kThreshold = LogLevel::kInfo;
std::atomic<long> g_warning_count{0};
std::mutex g_log_mutex;

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::kDebug: return "DEBUG";
      case LogLevel::kInfo: return "INFO";
      case LogLevel::kWarn: return "WARN";
      case LogLevel::kError: return "ERROR";
    }
    return "?";
}

} // namespace

const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
      case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
      case StatusCode::kNotFound: return "NOT_FOUND";
      case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
      case StatusCode::kUnimplemented: return "UNIMPLEMENTED";
      case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
      case StatusCode::kInternal: return "INTERNAL";
      case StatusCode::kParseError: return "PARSE_ERROR";
    }
    return "UNKNOWN";
}

namespace detail {

void
statusOrAbort(const std::string &message)
{
    panic("StatusOr::value() called on error status: " + message);
}

LogMessageBuilder::LogMessageBuilder(LogLevel level, const char *file,
                                     int line)
    : level_(level)
{
    // File and line only matter for debug-level triage.
    if (level == LogLevel::kDebug)
        stream_ << file << ":" << line << " ";
}

LogMessageBuilder::~LogMessageBuilder()
{
    Logger::log(level_, stream_.str());
}

void
checkFailed(const char *file, int line, const char *expr,
            const std::string &extra)
{
    std::string message = std::string("CHECK failed at ") + file + ":" +
                          std::to_string(line) + ": " + expr;
    if (!extra.empty())
        message += " — " + extra;
    panic(message);
}

} // namespace detail

LogLevel
Logger::threshold()
{
    return kThreshold;
}

void
Logger::log(LogLevel level, const std::string &message)
{
    if (level >= LogLevel::kWarn)
        g_warning_count.fetch_add(1, std::memory_order_relaxed);
    if (level < threshold())
        return;
    std::lock_guard<std::mutex> guard(g_log_mutex);
    std::fprintf(stderr, "[cim-mlc %s] %s\n", levelName(level),
                 message.c_str());
}

long
Logger::warningCount()
{
    return g_warning_count.load(std::memory_order_relaxed);
}

void
inform(const std::string &message)
{
    Logger::log(LogLevel::kInfo, message);
}

void
warn(const std::string &message)
{
    Logger::log(LogLevel::kWarn, message);
}

void
fatal(const std::string &message)
{
    std::lock_guard<std::mutex> guard(g_log_mutex);
    std::fprintf(stderr, "[cim-mlc FATAL] %s\n", message.c_str());
    std::exit(1);
}

void
panic(const std::string &message)
{
    {
        std::lock_guard<std::mutex> guard(g_log_mutex);
        std::fprintf(stderr, "[cim-mlc PANIC] %s\n", message.c_str());
    }
    std::abort();
}

} // namespace cimmlc

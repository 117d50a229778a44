#include "common/config.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "common/strutil.h"

namespace cimmlc {

ConfigValue
ConfigValue::makeBool(bool v)
{
    ConfigValue out;
    out.type_ = ConfigType::kBool;
    out.bool_value_ = v;
    return out;
}

ConfigValue
ConfigValue::makeNumber(double v)
{
    ConfigValue out;
    out.type_ = ConfigType::kNumber;
    out.number_value_ = v;
    return out;
}

ConfigValue
ConfigValue::makeString(std::string v)
{
    ConfigValue out;
    out.type_ = ConfigType::kString;
    out.string_value_ = std::move(v);
    return out;
}

ConfigValue
ConfigValue::makeArray(Array v)
{
    ConfigValue out;
    out.type_ = ConfigType::kArray;
    out.array_value_ = std::move(v);
    return out;
}

ConfigValue
ConfigValue::makeObject(Object v)
{
    ConfigValue out;
    out.type_ = ConfigType::kObject;
    out.object_value_ = std::move(v);
    return out;
}

bool
ConfigValue::asBool() const
{
    CIMMLC_CHECK(isBool()) << "config value is not a bool";
    return bool_value_;
}

double
ConfigValue::asNumber() const
{
    CIMMLC_CHECK(isNumber()) << "config value is not a number";
    return number_value_;
}

std::int64_t
ConfigValue::asInt() const
{
    return static_cast<std::int64_t>(asNumber());
}

const std::string &
ConfigValue::asString() const
{
    CIMMLC_CHECK(isString()) << "config value is not a string";
    return string_value_;
}

const ConfigValue::Array &
ConfigValue::asArray() const
{
    CIMMLC_CHECK(isArray()) << "config value is not an array";
    return array_value_;
}

const ConfigValue::Object &
ConfigValue::asObject() const
{
    CIMMLC_CHECK(isObject()) << "config value is not an object";
    return object_value_;
}

bool
ConfigValue::has(const std::string &key) const
{
    return isObject() && object_value_.count(key) > 0;
}

StatusOr<ConfigValue>
ConfigValue::get(const std::string &key) const
{
    if (!isObject())
        return failedPrecondition("config value is not an object");
    auto it = object_value_.find(key);
    if (it == object_value_.end())
        return notFound("config key '" + key + "' not found");
    return it->second;
}

double
ConfigValue::getNumberOr(const std::string &key, double fallback) const
{
    if (!has(key))
        return fallback;
    const ConfigValue &v = object_value_.at(key);
    return v.isNumber() ? v.asNumber() : fallback;
}

std::int64_t
ConfigValue::getIntOr(const std::string &key, std::int64_t fallback) const
{
    if (!has(key))
        return fallback;
    const ConfigValue &v = object_value_.at(key);
    if (!v.isNumber())
        return fallback;
    // The int64 cast is undefined outside [-2^63, 2^63), so such
    // numbers read as absent.
    const double number = v.asNumber();
    return number >= -0x1p63 && number < 0x1p63 ? v.asInt() : fallback;
}

std::string
ConfigValue::getStringOr(const std::string &key, std::string fallback) const
{
    if (!has(key))
        return fallback;
    const ConfigValue &v = object_value_.at(key);
    return v.isString() ? v.asString() : fallback;
}

bool
ConfigValue::getBoolOr(const std::string &key, bool fallback) const
{
    if (!has(key))
        return fallback;
    const ConfigValue &v = object_value_.at(key);
    return v.isBool() ? v.asBool() : fallback;
}

namespace {

Status
wrongType(const std::string &surface, const std::string &key,
          const char *type)
{
    return parseError(surface + " key '" + key + "' must be " + type);
}

/** Whether @p v is an integral number in [lo, hi_exclusive). Casting a
 * double outside the target type is undefined, so callers check this
 * first; 2^63 is exact as a double, so int64's upper edge is too. */
bool
integralIn(const ConfigValue &v, double lo, double hi_exclusive)
{
    return v.isNumber() && v.asNumber() == std::trunc(v.asNumber())
           && v.asNumber() >= lo && v.asNumber() < hi_exclusive;
}

} // namespace

Status
readTypedKey(const std::string &surface, const std::string &key,
             const ConfigValue &v, std::string *out)
{
    if (!v.isString())
        return wrongType(surface, key, "a string");
    *out = v.asString();
    return Status::ok();
}

Status
readTypedKey(const std::string &surface, const std::string &key,
             const ConfigValue &v, bool *out)
{
    if (!v.isBool())
        return wrongType(surface, key, "a bool");
    *out = v.asBool();
    return Status::ok();
}

Status
readTypedKey(const std::string &surface, const std::string &key,
             const ConfigValue &v, double *out)
{
    if (!v.isNumber())
        return wrongType(surface, key, "a number");
    *out = v.asNumber();
    return Status::ok();
}

Status
readTypedKey(const std::string &surface, const std::string &key,
             const ConfigValue &v, std::int64_t *out)
{
    if (!integralIn(v, -0x1p63, 0x1p63))
        return wrongType(surface, key, "an integer in int64 range");
    *out = static_cast<std::int64_t>(v.asNumber());
    return Status::ok();
}

Status
readTypedKey(const std::string &surface, const std::string &key,
             const ConfigValue &v, int *out)
{
    if (!integralIn(v, std::numeric_limits<int>::min(),
                    std::numeric_limits<int>::max() + 1.0))
        return wrongType(surface, key, "an integer in int range");
    *out = static_cast<int>(v.asNumber());
    return Status::ok();
}

Status
rejectUnknownKeys(const std::string &surface, const ConfigValue &doc,
                  const std::vector<std::string> &known)
{
    for (const auto &[key, value] : doc.asObject()) {
        (void)value;
        if (std::find(known.begin(), known.end(), key) == known.end())
            return parseError(surface + " has unknown key '" + key + "'");
    }
    return Status::ok();
}

Status
readStatusMembers(const std::string &surface, const ConfigValue &doc,
                  Status *out)
{
    std::int64_t code = -1;
    std::string message;
    CIMMLC_RETURN_IF_ERROR(readTypedMember(surface, doc, "code", &code));
    CIMMLC_RETURN_IF_ERROR(
        readTypedMember(surface, doc, "message", &message));
    if (code < 0 || code > static_cast<std::int64_t>(StatusCode::kParseError))
        return parseError(strformat("%s has unknown status code %lld",
                                    surface.c_str(),
                                    static_cast<long long>(code)));
    *out = code == 0 ? Status::ok()
                     : Status(static_cast<StatusCode>(code), message);
    return Status::ok();
}

namespace {

void
appendEscaped(std::string *out, const std::string &text)
{
    out->push_back('"');
    for (char c : text) {
        switch (c) {
          case '"': out->append("\\\""); break;
          case '\\': out->append("\\\\"); break;
          case '\n': out->append("\\n"); break;
          case '\t': out->append("\\t"); break;
          case '\r': out->append("\\r"); break;
          default: out->push_back(c);
        }
    }
    out->push_back('"');
}

std::string
numberToString(double v)
{
    if (std::isfinite(v) && v == std::floor(v) &&
        std::abs(v) < 9.0e15) {
        return std::to_string(static_cast<long long>(v));
    }
    return strformat("%.17g", v);
}

} // namespace

std::string
ConfigValue::dump(bool pretty, int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
    std::string out;
    switch (type_) {
      case ConfigType::kNull:
        return "null";
      case ConfigType::kBool:
        return bool_value_ ? "true" : "false";
      case ConfigType::kNumber:
        return numberToString(number_value_);
      case ConfigType::kString:
        appendEscaped(&out, string_value_);
        return out;
      case ConfigType::kArray: {
        if (array_value_.empty())
            return "[]";
        out.push_back('[');
        for (std::size_t i = 0; i < array_value_.size(); ++i) {
            if (i > 0)
                out.push_back(',');
            if (pretty) {
                out.push_back('\n');
                out.append(pad_in);
            }
            out.append(array_value_[i].dump(pretty, indent + 1));
        }
        if (pretty) {
            out.push_back('\n');
            out.append(pad);
        }
        out.push_back(']');
        return out;
      }
      case ConfigType::kObject: {
        if (object_value_.empty())
            return "{}";
        out.push_back('{');
        bool first = true;
        for (const auto &[key, value] : object_value_) {
            if (!first)
                out.push_back(',');
            first = false;
            if (pretty) {
                out.push_back('\n');
                out.append(pad_in);
            }
            appendEscaped(&out, key);
            out.append(pretty ? ": " : ":");
            out.append(value.dump(pretty, indent + 1));
        }
        if (pretty) {
            out.push_back('\n');
            out.append(pad);
        }
        out.push_back('}');
        return out;
      }
    }
    return out;
}

namespace {

/** Recursive-descent parser over the kvjson grammar. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    StatusOr<ConfigValue>
    parse()
    {
        skipFluff();
        CIMMLC_ASSIGN_OR_RETURN(ConfigValue value, parseValue());
        skipFluff();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return value;
    }

  private:
    Status
    fail(const std::string &what) const
    {
        return parseError(strformat("%s at offset %zu (line %d)",
                                    what.c_str(), pos_, line_));
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void
    advance()
    {
        if (text_[pos_] == '\n')
            ++line_;
        ++pos_;
    }

    void
    skipFluff()
    {
        while (!atEnd()) {
            char c = peek();
            if (std::isspace(static_cast<unsigned char>(c))) {
                advance();
            } else if (c == '#') {
                while (!atEnd() && peek() != '\n')
                    advance();
            } else if (c == '/' && pos_ + 1 < text_.size() &&
                       text_[pos_ + 1] == '/') {
                while (!atEnd() && peek() != '\n')
                    advance();
            } else {
                break;
            }
        }
    }

    bool
    consumeLiteral(std::string_view literal)
    {
        if (text_.compare(pos_, literal.size(), literal) != 0)
            return false;
        for (std::size_t i = 0; i < literal.size(); ++i)
            advance();
        return true;
    }

    StatusOr<ConfigValue>
    parseValue()
    {
        if (atEnd())
            return fail("unexpected end of input");
        char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return parseString();
        if (consumeLiteral("true"))
            return ConfigValue::makeBool(true);
        if (consumeLiteral("false"))
            return ConfigValue::makeBool(false);
        if (consumeLiteral("null"))
            return ConfigValue::makeNull();
        return parseNumber();
    }

    StatusOr<ConfigValue>
    parseString()
    {
        advance(); // opening quote
        std::string out;
        while (true) {
            if (atEnd())
                return fail("unterminated string");
            char c = peek();
            advance();
            if (c == '"')
                break;
            if (c == '\\') {
                if (atEnd())
                    return fail("unterminated escape");
                char e = peek();
                advance();
                switch (e) {
                  case 'n': out.push_back('\n'); break;
                  case 't': out.push_back('\t'); break;
                  case 'r': out.push_back('\r'); break;
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  default:
                    return fail("unsupported escape sequence");
                }
            } else {
                out.push_back(c);
            }
        }
        return ConfigValue::makeString(std::move(out));
    }

    StatusOr<ConfigValue>
    parseNumber()
    {
        std::size_t start = pos_;
        while (!atEnd() &&
               (std::isdigit(static_cast<unsigned char>(peek())) ||
                peek() == '-' || peek() == '+' || peek() == '.' ||
                peek() == 'e' || peek() == 'E')) {
            advance();
        }
        double value = 0.0;
        if (pos_ == start ||
            !parseDouble(text_.substr(start, pos_ - start), &value)) {
            return fail("malformed number");
        }
        return ConfigValue::makeNumber(value);
    }

    StatusOr<ConfigValue>
    parseArray()
    {
        advance(); // '['
        ConfigValue::Array items;
        skipFluff();
        if (!atEnd() && peek() == ']') {
            advance();
            return ConfigValue::makeArray(std::move(items));
        }
        while (true) {
            skipFluff();
            CIMMLC_ASSIGN_OR_RETURN(ConfigValue item, parseValue());
            items.push_back(std::move(item));
            skipFluff();
            if (atEnd())
                return fail("unterminated array");
            if (peek() == ',') {
                advance();
                continue;
            }
            if (peek() == ']') {
                advance();
                return ConfigValue::makeArray(std::move(items));
            }
            return fail("expected ',' or ']' in array");
        }
    }

    StatusOr<ConfigValue>
    parseObject()
    {
        advance(); // '{'
        ConfigValue::Object members;
        skipFluff();
        if (!atEnd() && peek() == '}') {
            advance();
            return ConfigValue::makeObject(std::move(members));
        }
        while (true) {
            skipFluff();
            if (atEnd() || peek() != '"')
                return fail("expected string key in object");
            CIMMLC_ASSIGN_OR_RETURN(ConfigValue key, parseString());
            skipFluff();
            if (atEnd() || peek() != ':')
                return fail("expected ':' after object key");
            advance();
            skipFluff();
            CIMMLC_ASSIGN_OR_RETURN(ConfigValue value, parseValue());
            members[key.asString()] = std::move(value);
            skipFluff();
            if (atEnd())
                return fail("unterminated object");
            if (peek() == ',') {
                advance();
                continue;
            }
            if (peek() == '}') {
                advance();
                return ConfigValue::makeObject(std::move(members));
            }
            return fail("expected ',' or '}' in object");
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    int line_ = 1;
};

} // namespace

StatusOr<ConfigValue>
parseConfig(const std::string &text)
{
    Parser parser(text);
    return parser.parse();
}

StatusOr<ConfigValue>
loadConfigFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return notFound("cannot open config file '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto result = parseConfig(buffer.str());
    if (!result.isOk())
        return result.status().withContext(path);
    return result;
}

Status
saveConfigFile(const std::string &path, const ConfigValue &value)
{
    // The rename replaces the file a symlink names, not the link, and
    // never a device, FIFO or directory (as root it would replace
    // /dev/null).
    std::error_code error;
    const std::filesystem::path target =
        std::filesystem::weakly_canonical(path, error);
    if (error)
        return invalidArgument("cannot resolve '" + path
                               + "': " + error.message());
    if (std::filesystem::exists(target, error) &&
        !std::filesystem::is_regular_file(target, error))
        return invalidArgument("cannot save to '" + path
                               + "': not a regular file");
    // Same-directory temp file: rename(2) is only atomic within one
    // filesystem. The pid and a per-process count make each call's
    // temp name its own, so saves of one path from two threads or two
    // processes never write or rename each other's temp file.
    static std::atomic<std::uint64_t> saves{0};
    const std::string temp = target.string() + ".tmp." +
                             std::to_string(::getpid()) + "." +
                             std::to_string(saves.fetch_add(1));
    {
        std::ofstream out(temp);
        if (!out)
            return invalidArgument("cannot open '" + path
                                   + "' for writing");
        out << value.dump(/*pretty=*/true) << "\n";
        out.flush();
        if (!out) {
            std::remove(temp.c_str());
            return internalError("write to '" + path + "' failed");
        }
    }
    if (std::rename(temp.c_str(), target.c_str()) != 0) {
        std::remove(temp.c_str());
        return internalError("rename '" + temp + "' -> '" + path
                             + "' failed");
    }
    return Status::ok();
}

} // namespace cimmlc

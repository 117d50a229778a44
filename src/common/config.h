/**
 * @file
 * kvjson: a small, self-contained JSON-subset document model.
 *
 * Architecture descriptions (Abs-arch) are serialized in this format so
 * users can describe new CIM chips without recompiling, mirroring the
 * Figure 17-19 abstractions in the paper. Supports objects, arrays,
 * strings, numbers, booleans, and null; comments beginning with '#' or
 * "//" run to end-of-line (an extension for hand-written configs).
 */
#ifndef CIMMLC_COMMON_CONFIG_H
#define CIMMLC_COMMON_CONFIG_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace cimmlc {

/** Discriminator for ConfigValue payloads. */
enum class ConfigType { kNull, kBool, kNumber, kString, kArray, kObject };

/**
 * A node in a parsed configuration document.
 *
 * Values are immutable after parsing; builders construct documents
 * programmatically for serialization round-trips.
 */
class ConfigValue
{
  public:
    using Array = std::vector<ConfigValue>;
    using Object = std::map<std::string, ConfigValue>;

    ConfigValue() : type_(ConfigType::kNull) {}
    static ConfigValue makeNull() { return ConfigValue(); }
    static ConfigValue makeBool(bool v);
    static ConfigValue makeNumber(double v);
    static ConfigValue makeString(std::string v);
    static ConfigValue makeArray(Array v);
    static ConfigValue makeObject(Object v);

    ConfigType type() const { return type_; }
    bool isNull() const { return type_ == ConfigType::kNull; }
    bool isBool() const { return type_ == ConfigType::kBool; }
    bool isNumber() const { return type_ == ConfigType::kNumber; }
    bool isString() const { return type_ == ConfigType::kString; }
    bool isArray() const { return type_ == ConfigType::kArray; }
    bool isObject() const { return type_ == ConfigType::kObject; }

    /** @pre isBool() */
    bool asBool() const;
    /** @pre isNumber() */
    double asNumber() const;
    /** @pre isNumber(); truncates toward zero */
    std::int64_t asInt() const;
    /** @pre isString() */
    const std::string &asString() const;
    /** @pre isArray() */
    const Array &asArray() const;
    /** @pre isObject() */
    const Object &asObject() const;

    /** True when this object has member @p key. */
    bool has(const std::string &key) const;

    /** Member lookup; error status when absent or not an object. */
    StatusOr<ConfigValue> get(const std::string &key) const;

    /**
     * Lenient member lookups: an absent or mistyped member reads as
     * @p fallback. Only for documents this program wrote and reads
     * back: reports and stats, DaemonClient's replies and what
     * `cimmlc --connect` prints of them, and the daemon's dispatch of
     * frames other than compile frames. A document from outside goes
     * through readTypedKey() instead.
     */
    double getNumberOr(const std::string &key, double fallback) const;
    std::int64_t getIntOr(const std::string &key,
                          std::int64_t fallback) const;
    std::string getStringOr(const std::string &key,
                            std::string fallback) const;
    bool getBoolOr(const std::string &key, bool fallback) const;

    /** Serializes to compact or pretty JSON text. */
    std::string dump(bool pretty = false, int indent = 0) const;

  private:
    ConfigType type_;
    bool bool_value_ = false;
    double number_value_ = 0.0;
    std::string string_value_;
    Array array_value_;
    Object object_value_;
};

/**
 * The typed reader for every kvjson document from outside the program:
 * Abs-arch and graph files, sweep files, DSE specs, search budgets,
 * tune-cache and shard files, and compile frames. Reads @p v, the value
 * of key @p key in a @p surface document, into @p out: a string, a
 * bool, a number, or for the integer targets a number that is integral
 * and fits the target type. Any other value leaves @p out unchanged and
 * is the parse error "<surface> key '<key>' must be <type>".
 */
Status readTypedKey(const std::string &surface, const std::string &key,
                    const ConfigValue &v, std::string *out);
Status readTypedKey(const std::string &surface, const std::string &key,
                    const ConfigValue &v, bool *out);
Status readTypedKey(const std::string &surface, const std::string &key,
                    const ConfigValue &v, double *out);
Status readTypedKey(const std::string &surface, const std::string &key,
                    const ConfigValue &v, std::int64_t *out);
Status readTypedKey(const std::string &surface, const std::string &key,
                    const ConfigValue &v, int *out);

/** readTypedKey() on each element of @p v, which must be an array (a
 * grid, dims, a NoC cost matrix, a list of names); on success the
 * elements replace @p out. */
template <typename T>
Status
readTypedKey(const std::string &surface, const std::string &key,
             const ConfigValue &v, std::vector<T> *out)
{
    if (!v.isArray())
        return parseError(surface + " key '" + key + "' must be an array");
    std::vector<T> items(v.asArray().size());
    for (std::size_t i = 0; i < items.size(); ++i)
        CIMMLC_RETURN_IF_ERROR(
            readTypedKey(surface, key, v.asArray()[i], &items[i]));
    *out = std::move(items);
    return Status::ok();
}

/** readTypedKey() on member @p key of object @p doc; an absent member
 * keeps the caller's default in @p out. */
template <typename T>
Status
readTypedMember(const std::string &surface, const ConfigValue &doc,
                const std::string &key, T *out)
{
    if (!doc.has(key))
        return Status::ok();
    return readTypedKey(surface, key, doc.asObject().at(key), out);
}

/** readTypedMember() for a member @p doc must have: an absent one is
 * the parse error "<surface> is missing '<key>'". */
template <typename T>
Status
readRequiredMember(const std::string &surface, const ConfigValue &doc,
                   const std::string &key, T *out)
{
    if (!doc.has(key))
        return parseError(surface + " is missing '" + key + "'");
    return readTypedKey(surface, key, doc.asObject().at(key), out);
}

/** The parse error "<surface> has unknown key '<key>'" for the first
 * member of object @p doc that @p known does not list. */
Status rejectUnknownKeys(const std::string &surface, const ConfigValue &doc,
                         const std::vector<std::string> &known);

/** Reads a Status stored as members "code" (a StatusCode number) and
 * "message" of object @p doc, as shard and tune-cache files store one.
 * An absent or unknown code is a parse error. */
Status readStatusMembers(const std::string &surface, const ConfigValue &doc,
                         Status *out);

/** Parses a kvjson document from text. */
StatusOr<ConfigValue> parseConfig(const std::string &text);

/** Reads and parses a kvjson file from disk. */
StatusOr<ConfigValue> loadConfigFile(const std::string &path);

/**
 * Replaces @p path with @p value as pretty JSON, atomically: the
 * document is written to a same-directory temp file of the call's own
 * and rename(2)d over the target, so a concurrent reader sees the old
 * or a new document, never a torn one, and concurrent saves of one
 * path each land whole (the last rename wins). Through a symlink the
 * file it names is replaced; a target that exists and is not a regular
 * file (a device, a FIFO, a directory) is an error. The daemon's
 * periodic TuneCache snapshots and shard files rely on this.
 */
Status saveConfigFile(const std::string &path, const ConfigValue &value);

} // namespace cimmlc

#endif // CIMMLC_COMMON_CONFIG_H

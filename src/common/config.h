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

    /** Typed member lookups with defaults for optional fields. */
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
 * Reads @p item into @p out when it is an integer-valued number in
 * [-1e18, 1e18]. Non-numbers, fractional values and larger magnitudes
 * return false instead of being truncated or cast out of range (a
 * "core_grid": [2.5, 2] must not silently become a 2x2 grid); the cap
 * also leaves callers room to double a value without overflow.
 */
bool integerValue(const ConfigValue &item, std::int64_t *out);

/**
 * Reads the optional integer member @p key of object @p doc into
 * @p out through integerValue(); an absent key leaves @p out unchanged.
 * A member that is not an integer, or for the int overload lies
 * outside int, is a parse error naming @p key.
 */
Status readIntegerKey(const ConfigValue &doc, const std::string &key,
                      std::int64_t *out);
Status readIntegerKey(const ConfigValue &doc, const std::string &key,
                      int *out);

/** Parses a kvjson document from text. */
StatusOr<ConfigValue> parseConfig(const std::string &text);

/** Reads and parses a kvjson file from disk. */
StatusOr<ConfigValue> loadConfigFile(const std::string &path);

/** Writes @p value as pretty JSON to @p path. */
Status saveConfigFile(const std::string &path, const ConfigValue &value);

/**
 * Atomically replaces @p path with @p value: the document is written
 * to a same-directory temp file and rename(2)d over the target, so a
 * concurrent reader sees either the old or the new document, never a
 * torn one. The daemon's periodic TuneCache snapshots rely on this.
 */
Status saveConfigFileAtomic(const std::string &path,
                            const ConfigValue &value);

} // namespace cimmlc

#endif // CIMMLC_COMMON_CONFIG_H

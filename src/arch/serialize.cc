#include "arch/serialize.h"

#include <algorithm>

#include "common/strutil.h"

namespace cimmlc {

namespace {

/** Reads member @p key of @p tier, a [rows, cols] array, when present. */
Status
readPair(const std::string &surface, const ConfigValue &tier,
         const std::string &key, std::int64_t *rows, std::int64_t *cols)
{
    if (!tier.has(key))
        return Status::ok();
    std::vector<std::int64_t> pair;
    CIMMLC_RETURN_IF_ERROR(readTypedMember(surface, tier, key, &pair));
    if (pair.size() != 2)
        return parseError(surface + " key '" + key
                          + "' must be a [rows, cols] array");
    *rows = pair[0];
    *cols = pair[1];
    return Status::ok();
}

/** Reads a [rows, cols] grid, or else a scalar count that lays the
 * endpoints out in one row; with neither, the defaults stay. */
Status
readGrid(const std::string &surface, const ConfigValue &tier,
         const std::string &grid_key, const std::string &count_key,
         std::int64_t *rows, std::int64_t *cols)
{
    if (tier.has(grid_key))
        return readPair(surface, tier, grid_key, rows, cols);
    if (tier.has(count_key))
        *rows = 1;
    return readTypedMember(surface, tier, count_key, cols);
}

/** The tier object @p key of @p doc, or null when absent; a member that
 * is not an object, or has a key @p known does not list, is an error. */
StatusOr<const ConfigValue *>
findTier(const ConfigValue &doc, const std::string &key,
         const std::vector<std::string> &known)
{
    if (!doc.has(key))
        return nullptr;
    const ConfigValue &tier = doc.asObject().at(key);
    if (!tier.isObject())
        return parseError("arch key '" + key + "' must be an object");
    CIMMLC_RETURN_IF_ERROR(rejectUnknownKeys("arch " + key, tier, known));
    return &tier;
}

ConfigValue
gridToConfig(std::int64_t rows, std::int64_t cols)
{
    ConfigValue::Array arr;
    arr.push_back(ConfigValue::makeNumber(static_cast<double>(rows)));
    arr.push_back(ConfigValue::makeNumber(static_cast<double>(cols)));
    return ConfigValue::makeArray(std::move(arr));
}

} // namespace

StatusOr<CimArchitecture>
archFromConfig(const ConfigValue &doc)
{
    if (!doc.isObject())
        return parseError("architecture config must be an object");
    CIMMLC_RETURN_IF_ERROR(rejectUnknownKeys(
        "arch", doc,
        {"name", "computing_mode", "weight_bits", "activation_bits",
         "chip_tier", "core_tier", "xb_tier"}));

    CimArchitecture arch;
    std::string mode = "XBM";
    CIMMLC_RETURN_IF_ERROR(readTypedMember("arch", doc, "name", &arch.name));
    CIMMLC_RETURN_IF_ERROR(
        readTypedMember("arch", doc, "computing_mode", &mode));
    CIMMLC_ASSIGN_OR_RETURN(arch.mode, parseComputeMode(mode));
    CIMMLC_RETURN_IF_ERROR(
        readTypedMember("arch", doc, "weight_bits", &arch.weight_bits));
    CIMMLC_RETURN_IF_ERROR(readTypedMember("arch", doc, "activation_bits",
                                           &arch.activation_bits));

    CIMMLC_ASSIGN_OR_RETURN(
        const ConfigValue *chip,
        findTier(doc, "chip_tier",
                 {"core_grid", "core_number", "core_noc",
                  "core_noc_bandwidth", "core_noc_cost", "alu",
                  "l0_size_kib", "l0_bandwidth"}));
    if (chip != nullptr) {
        const std::string surface = "arch chip_tier";
        std::string noc = "ideal";
        CIMMLC_RETURN_IF_ERROR(readGrid(surface, *chip, "core_grid",
                                        "core_number", &arch.chip.core_rows,
                                        &arch.chip.core_cols));
        CIMMLC_RETURN_IF_ERROR(
            readTypedMember(surface, *chip, "core_noc", &noc));
        CIMMLC_ASSIGN_OR_RETURN(arch.chip.core_noc, parseNocType(noc));
        CIMMLC_RETURN_IF_ERROR(readTypedMember(
            surface, *chip, "core_noc_bandwidth",
            &arch.chip.core_noc_bandwidth));
        CIMMLC_RETURN_IF_ERROR(readTypedMember(
            surface, *chip, "core_noc_cost", &arch.chip.core_noc_cost));
        CIMMLC_RETURN_IF_ERROR(readTypedMember(
            surface, *chip, "alu", &arch.chip.alu_ops_per_cycle));
        CIMMLC_RETURN_IF_ERROR(readTypedMember(
            surface, *chip, "l0_size_kib", &arch.chip.l0_size_kib));
        CIMMLC_RETURN_IF_ERROR(readTypedMember(
            surface, *chip, "l0_bandwidth", &arch.chip.l0_bandwidth));
    }
    CIMMLC_ASSIGN_OR_RETURN(
        const ConfigValue *core,
        findTier(doc, "core_tier",
                 {"xb_grid", "xb_number", "xb_noc", "xb_noc_bandwidth",
                  "xb_noc_cost", "alu", "l1_size_kib", "l1_bandwidth"}));
    if (core != nullptr) {
        const std::string surface = "arch core_tier";
        std::string noc = "ideal";
        CIMMLC_RETURN_IF_ERROR(readGrid(surface, *core, "xb_grid",
                                        "xb_number", &arch.core.xb_rows,
                                        &arch.core.xb_cols));
        CIMMLC_RETURN_IF_ERROR(
            readTypedMember(surface, *core, "xb_noc", &noc));
        CIMMLC_ASSIGN_OR_RETURN(arch.core.xb_noc, parseNocType(noc));
        CIMMLC_RETURN_IF_ERROR(
            readTypedMember(surface, *core, "xb_noc_bandwidth",
                            &arch.core.xb_noc_bandwidth));
        CIMMLC_RETURN_IF_ERROR(readTypedMember(
            surface, *core, "xb_noc_cost", &arch.core.xb_noc_cost));
        CIMMLC_RETURN_IF_ERROR(readTypedMember(
            surface, *core, "alu", &arch.core.alu_ops_per_cycle));
        CIMMLC_RETURN_IF_ERROR(readTypedMember(
            surface, *core, "l1_size_kib", &arch.core.l1_size_kib));
        CIMMLC_RETURN_IF_ERROR(readTypedMember(
            surface, *core, "l1_bandwidth", &arch.core.l1_bandwidth));
    }
    CIMMLC_ASSIGN_OR_RETURN(
        const ConfigValue *xb,
        findTier(doc, "xb_tier",
                 {"xb_size", "parallel_row", "dac", "adc", "type",
                  "precision"}));
    if (xb != nullptr) {
        const std::string surface = "arch xb_tier";
        std::string cell = "ReRAM";
        CIMMLC_RETURN_IF_ERROR(readPair(surface, *xb, "xb_size",
                                        &arch.xbar.rows, &arch.xbar.cols));
        arch.xbar.parallel_row = arch.xbar.rows;
        CIMMLC_RETURN_IF_ERROR(readTypedMember(surface, *xb, "parallel_row",
                                               &arch.xbar.parallel_row));
        CIMMLC_RETURN_IF_ERROR(
            readTypedMember(surface, *xb, "dac", &arch.xbar.dac_bits));
        CIMMLC_RETURN_IF_ERROR(
            readTypedMember(surface, *xb, "adc", &arch.xbar.adc_bits));
        CIMMLC_RETURN_IF_ERROR(readTypedMember(surface, *xb, "type", &cell));
        CIMMLC_ASSIGN_OR_RETURN(arch.xbar.cell_type, parseCellType(cell));
        arch.xbar.cell_bits = 1;
        CIMMLC_RETURN_IF_ERROR(readTypedMember(surface, *xb, "precision",
                                               &arch.xbar.cell_bits));
    }

    CIMMLC_RETURN_IF_ERROR(arch.validate());
    return arch;
}

StatusOr<CimArchitecture>
archFromText(const std::string &text)
{
    CIMMLC_ASSIGN_OR_RETURN(ConfigValue doc, parseConfig(text));
    return archFromConfig(doc);
}

StatusOr<CimArchitecture>
archFromFile(const std::string &path)
{
    CIMMLC_ASSIGN_OR_RETURN(ConfigValue doc, loadConfigFile(path));
    auto result = archFromConfig(doc);
    if (!result.isOk())
        return result.status().withContext(path);
    return result;
}

ConfigValue
archToConfig(const CimArchitecture &arch)
{
    ConfigValue::Object chip;
    chip["core_grid"] = gridToConfig(arch.chip.core_rows,
                                     arch.chip.core_cols);
    chip["core_noc"] =
        ConfigValue::makeString(nocTypeName(arch.chip.core_noc));
    chip["core_noc_bandwidth"] =
        ConfigValue::makeNumber(arch.chip.core_noc_bandwidth);
    chip["alu"] = ConfigValue::makeNumber(arch.chip.alu_ops_per_cycle);
    chip["l0_size_kib"] = ConfigValue::makeNumber(arch.chip.l0_size_kib);
    chip["l0_bandwidth"] = ConfigValue::makeNumber(arch.chip.l0_bandwidth);
    if (!arch.chip.core_noc_cost.empty()) {
        ConfigValue::Array cost;
        for (double v : arch.chip.core_noc_cost)
            cost.push_back(ConfigValue::makeNumber(v));
        chip["core_noc_cost"] = ConfigValue::makeArray(std::move(cost));
    }

    ConfigValue::Object core;
    core["xb_grid"] = gridToConfig(arch.core.xb_rows, arch.core.xb_cols);
    core["xb_noc"] =
        ConfigValue::makeString(nocTypeName(arch.core.xb_noc));
    core["xb_noc_bandwidth"] =
        ConfigValue::makeNumber(arch.core.xb_noc_bandwidth);
    core["alu"] = ConfigValue::makeNumber(arch.core.alu_ops_per_cycle);
    core["l1_size_kib"] = ConfigValue::makeNumber(arch.core.l1_size_kib);
    core["l1_bandwidth"] = ConfigValue::makeNumber(arch.core.l1_bandwidth);
    if (!arch.core.xb_noc_cost.empty()) {
        ConfigValue::Array cost;
        for (double v : arch.core.xb_noc_cost)
            cost.push_back(ConfigValue::makeNumber(v));
        core["xb_noc_cost"] = ConfigValue::makeArray(std::move(cost));
    }

    ConfigValue::Object xb;
    xb["xb_size"] = gridToConfig(arch.xbar.rows, arch.xbar.cols);
    xb["parallel_row"] = ConfigValue::makeNumber(
        static_cast<double>(arch.xbar.parallel_row));
    xb["dac"] = ConfigValue::makeNumber(arch.xbar.dac_bits);
    xb["adc"] = ConfigValue::makeNumber(arch.xbar.adc_bits);
    xb["type"] =
        ConfigValue::makeString(cellTypeName(arch.xbar.cell_type));
    xb["precision"] = ConfigValue::makeNumber(arch.xbar.cell_bits);

    ConfigValue::Object doc;
    doc["name"] = ConfigValue::makeString(arch.name);
    doc["computing_mode"] =
        ConfigValue::makeString(computeModeName(arch.mode));
    doc["weight_bits"] = ConfigValue::makeNumber(arch.weight_bits);
    doc["activation_bits"] =
        ConfigValue::makeNumber(arch.activation_bits);
    doc["chip_tier"] = ConfigValue::makeObject(std::move(chip));
    doc["core_tier"] = ConfigValue::makeObject(std::move(core));
    doc["xb_tier"] = ConfigValue::makeObject(std::move(xb));
    return ConfigValue::makeObject(std::move(doc));
}

// ----- Abs-arch sweep space (architecture DSE) -----------------------------

namespace {

constexpr ArchParam kAllArchParams[] = {
    ArchParam::kXbSize,           ArchParam::kXbGrid,
    ArchParam::kCoreGrid,         ArchParam::kCoreNoc,
    ArchParam::kCoreNocBandwidth, ArchParam::kL0Bandwidth,
    ArchParam::kL1Bandwidth,      ArchParam::kComputeMode,
    ArchParam::kDacBits,          ArchParam::kAdcBits,
    ArchParam::kCellType,         ArchParam::kCellBits,
};

/** Whether an axis takes [rows, cols] pairs, scalars, positive integer
 * counts (bit widths), or names. */
enum class ParamKind { kGrid, kBandwidth, kName, kCount };

ParamKind
paramKind(ArchParam param)
{
    switch (param) {
      case ArchParam::kXbSize:
      case ArchParam::kXbGrid:
      case ArchParam::kCoreGrid:
        return ParamKind::kGrid;
      case ArchParam::kCoreNoc:
      case ArchParam::kComputeMode:
      case ArchParam::kCellType:
        return ParamKind::kName;
      case ArchParam::kCoreNocBandwidth:
      case ArchParam::kL0Bandwidth:
      case ArchParam::kL1Bandwidth:
        return ParamKind::kBandwidth;
      case ArchParam::kDacBits:
      case ArchParam::kAdcBits:
      case ArchParam::kCellBits:
        return ParamKind::kCount;
    }
    return ParamKind::kBandwidth;
}

/** Validates and canonicalizes one name-kind value. */
StatusOr<std::string>
canonicalParamName(ArchParam param, const std::string &text)
{
    if (param == ArchParam::kCoreNoc) {
        CIMMLC_ASSIGN_OR_RETURN(const NocType noc, parseNocType(text));
        return std::string(nocTypeName(noc));
    }
    if (param == ArchParam::kCellType) {
        CIMMLC_ASSIGN_OR_RETURN(const CellType cell, parseCellType(text));
        return std::string(cellTypeName(cell));
    }
    CIMMLC_ASSIGN_OR_RETURN(const ComputeMode mode,
                            parseComputeMode(text));
    return std::string(computeModeName(mode));
}

constexpr const char *kSweepSurface = "DSE sweep";

/** Reads one integer of a @p param axis: an int on the bit-width axes,
 * whose values set int fields, and an int64 on the others. */
Status
readAxisInteger(ArchParam param, const ConfigValue &item, std::int64_t *out)
{
    const std::string key = archParamName(param);
    if (paramKind(param) != ParamKind::kCount)
        return readTypedKey(kSweepSurface, key, item, out);
    int bits = 0;
    CIMMLC_RETURN_IF_ERROR(readTypedKey(kSweepSurface, key, item, &bits));
    *out = bits;
    return Status::ok();
}

StatusOr<ArchParamValue>
paramValueFromConfig(ArchParam param, const ConfigValue &item)
{
    const std::string key = archParamName(param);
    ArchParamValue value;
    switch (paramKind(param)) {
      case ParamKind::kGrid: {
        if (item.isArray() && item.asArray().size() == 2) {
            CIMMLC_RETURN_IF_ERROR(
                readAxisInteger(param, item.asArray()[0], &value.rows));
            CIMMLC_RETURN_IF_ERROR(
                readAxisInteger(param, item.asArray()[1], &value.cols));
        } else if (item.isNumber()) {
            // A scalar N is shorthand for a square NxN grid.
            CIMMLC_RETURN_IF_ERROR(
                readAxisInteger(param, item, &value.rows));
            value.cols = value.rows;
        } else {
            return parseError("sweep '" + key
                              + "' entries must be [rows, cols] integer "
                                "arrays or square-size integers");
        }
        if (value.rows <= 0 || value.cols <= 0)
            return parseError("sweep '" + key
                              + "' dimensions must be positive");
        return value;
      }
      case ParamKind::kBandwidth:
        CIMMLC_RETURN_IF_ERROR(
            readTypedKey(kSweepSurface, key, item, &value.number));
        if (value.number < 0.0)
            return parseError("sweep '" + key + "' values must be >= 0");
        return value;
      case ParamKind::kCount:
        CIMMLC_RETURN_IF_ERROR(readAxisInteger(param, item, &value.rows));
        if (value.rows <= 0)
            return parseError("sweep '" + key
                              + "' entries must be positive integers");
        return value;
      case ParamKind::kName: {
        CIMMLC_RETURN_IF_ERROR(
            readTypedKey(kSweepSurface, key, item, &value.name));
        auto canonical = canonicalParamName(param, value.name);
        if (!canonical.isOk())
            return canonical.status().withContext("sweep '" + key + "'");
        value.name = canonical.value();
        return value;
      }
    }
    return parseError("sweep '" + key + "': unsupported parameter");
}

/** Expands {"log2": [lo, hi]} into lo, 2*lo, ... <= hi. */
StatusOr<std::vector<ArchParamValue>>
expandLog2Range(ArchParam param, const ConfigValue &range)
{
    const std::string key = archParamName(param);
    if (paramKind(param) == ParamKind::kName)
        return parseError("sweep '" + key
                          + "' is an enumeration; list its values "
                            "explicitly instead of a log2 range");
    if (!range.isArray() || range.asArray().size() != 2)
        return parseError("sweep '" + key
                          + "' log2 range must be a [lo, hi] integer "
                            "pair");
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    CIMMLC_RETURN_IF_ERROR(readAxisInteger(param, range.asArray()[0], &lo));
    CIMMLC_RETURN_IF_ERROR(readAxisInteger(param, range.asArray()[1], &hi));
    if (lo <= 0 || hi < lo)
        return parseError(
            strformat("sweep '%s' log2 range needs 0 < lo <= hi, got "
                      "[%lld, %lld]",
                      key.c_str(), static_cast<long long>(lo),
                      static_cast<long long>(hi)));
    std::vector<ArchParamValue> values;
    for (std::int64_t n = lo;; n *= 2) {
        ArchParamValue value;
        switch (paramKind(param)) {
          case ParamKind::kGrid:
            value.rows = n;
            value.cols = n;
            break;
          case ParamKind::kCount:
            value.rows = n;
            break;
          default:
            value.number = static_cast<double>(n);
            break;
        }
        values.push_back(value);
        // Stop before doubling past hi: hi is at most 2^63 - 1, so
        // n <= hi / 2 keeps n * 2 in int64, where a plain
        // `n * 2 <= hi` condition would overflow near the top.
        if (n > hi / 2)
            break;
    }
    return values;
}

} // namespace

const char *
archParamName(ArchParam param)
{
    switch (param) {
      case ArchParam::kXbSize: return "xb_size";
      case ArchParam::kXbGrid: return "xb_grid";
      case ArchParam::kCoreGrid: return "core_grid";
      case ArchParam::kCoreNoc: return "core_noc";
      case ArchParam::kCoreNocBandwidth: return "core_noc_bandwidth";
      case ArchParam::kL0Bandwidth: return "l0_bandwidth";
      case ArchParam::kL1Bandwidth: return "l1_bandwidth";
      case ArchParam::kComputeMode: return "compute_mode";
      case ArchParam::kDacBits: return "dac_bits";
      case ArchParam::kAdcBits: return "adc_bits";
      case ArchParam::kCellType: return "cell_type";
      case ArchParam::kCellBits: return "cell_bits";
    }
    return "?";
}

StatusOr<ArchParam>
parseArchParam(const std::string &text)
{
    const std::string key = toLower(trim(text));
    for (ArchParam param : kAllArchParams) {
        if (key == archParamName(param))
            return param;
    }
    return parseError(
        "unknown sweep parameter '" + text
        + "' (expected xb_size | xb_grid | core_grid | core_noc | "
          "core_noc_bandwidth | l0_bandwidth | l1_bandwidth | "
          "compute_mode | dac_bits | adc_bits | cell_type | cell_bits)");
}

std::string
archParamValueToString(ArchParam param, const ArchParamValue &value)
{
    switch (paramKind(param)) {
      case ParamKind::kGrid:
        return strformat("%lldx%lld", static_cast<long long>(value.rows),
                         static_cast<long long>(value.cols));
      case ParamKind::kBandwidth:
        return formatDouble(value.number, 6);
      case ParamKind::kCount:
        return strformat("%lld", static_cast<long long>(value.rows));
      case ParamKind::kName:
        return value.name;
    }
    return "?";
}

std::size_t
ArchSweepSpec::candidateCount() const
{
    std::size_t count = 1;
    for (const ArchAxis &axis : axes)
        count *= axis.values.size();
    return count;
}

StatusOr<ArchSweepSpec>
sweepSpecFromConfig(const ConfigValue &doc)
{
    if (!doc.isObject())
        return parseError("sweep spec must be an object mapping "
                          "parameter names to value lists");

    ArchSweepSpec spec;
    for (const auto &[key, item] : doc.asObject()) {
        ArchAxis axis;
        CIMMLC_ASSIGN_OR_RETURN(axis.param, parseArchParam(key));
        if (item.isArray()) {
            if (item.asArray().empty())
                return parseError("sweep '" + key
                                  + "' must list at least one value");
            for (const ConfigValue &entry : item.asArray()) {
                CIMMLC_ASSIGN_OR_RETURN(
                    const ArchParamValue value,
                    paramValueFromConfig(axis.param, entry));
                axis.values.push_back(value);
            }
        } else if (item.isObject() && item.has("log2")) {
            CIMMLC_RETURN_IF_ERROR(rejectUnknownKeys(
                std::string(kSweepSurface) + " range '" + key + "'", item,
                {"log2"}));
            CIMMLC_ASSIGN_OR_RETURN(
                axis.values,
                expandLog2Range(axis.param, item.asObject().at("log2")));
        } else {
            return parseError("sweep '" + key
                              + "' must be a value array or a "
                                "{\"log2\": [lo, hi]} range");
        }
        spec.axes.push_back(std::move(axis));
    }
    // kvjson objects iterate alphabetically; re-order to the canonical
    // parameter order so candidate enumeration (and therefore the DSE
    // report) is independent of how the spec file spells its keys.
    std::sort(spec.axes.begin(), spec.axes.end(),
              [](const ArchAxis &a, const ArchAxis &b) {
                  return static_cast<int>(a.param)
                         < static_cast<int>(b.param);
              });
    return spec;
}

Status
applyArchParam(CimArchitecture *arch, ArchParam param,
               const ArchParamValue &value)
{
    switch (param) {
      case ArchParam::kXbSize:
        arch->xbar.rows = value.rows;
        arch->xbar.cols = value.cols;
        // parallel_row is a property of the crossbar being resized; a
        // smaller array cannot keep the base design's activation width.
        arch->xbar.parallel_row =
            std::min(arch->xbar.parallel_row, arch->xbar.rows);
        return Status::ok();
      case ArchParam::kXbGrid:
        arch->core.xb_rows = value.rows;
        arch->core.xb_cols = value.cols;
        arch->core.xb_noc_cost.clear();
        return Status::ok();
      case ArchParam::kCoreGrid:
        arch->chip.core_rows = value.rows;
        arch->chip.core_cols = value.cols;
        arch->chip.core_noc_cost.clear();
        return Status::ok();
      case ArchParam::kCoreNoc: {
        CIMMLC_ASSIGN_OR_RETURN(arch->chip.core_noc,
                                parseNocType(value.name));
        arch->chip.core_noc_cost.clear();
        return Status::ok();
      }
      case ArchParam::kCoreNocBandwidth:
        arch->chip.core_noc_bandwidth = value.number;
        // An explicit cost matrix fully overrides the bandwidth in the
        // NoC model; keeping it would make this a silent no-op axis.
        arch->chip.core_noc_cost.clear();
        return Status::ok();
      case ArchParam::kL0Bandwidth:
        arch->chip.l0_bandwidth = value.number;
        return Status::ok();
      case ArchParam::kL1Bandwidth:
        arch->core.l1_bandwidth = value.number;
        return Status::ok();
      case ArchParam::kComputeMode: {
        CIMMLC_ASSIGN_OR_RETURN(arch->mode, parseComputeMode(value.name));
        return Status::ok();
      }
      case ArchParam::kDacBits:
        arch->xbar.dac_bits = static_cast<int>(value.rows);
        return Status::ok();
      case ArchParam::kAdcBits:
        arch->xbar.adc_bits = static_cast<int>(value.rows);
        return Status::ok();
      case ArchParam::kCellType: {
        CIMMLC_ASSIGN_OR_RETURN(arch->xbar.cell_type,
                                parseCellType(value.name));
        return Status::ok();
      }
      case ArchParam::kCellBits:
        arch->xbar.cell_bits = static_cast<int>(value.rows);
        return Status::ok();
    }
    return internalError("applyArchParam: unhandled parameter");
}

} // namespace cimmlc

#include "arch/arch.h"

#include <sstream>

#include "common/mathutil.h"
#include "common/strutil.h"
#include "arch/device.h"

namespace cimmlc {

const char *
computeModeName(ComputeMode mode)
{
    switch (mode) {
      case ComputeMode::kCM: return "CM";
      case ComputeMode::kXBM: return "XBM";
      case ComputeMode::kWLM: return "WLM";
    }
    return "?";
}

StatusOr<ComputeMode>
parseComputeMode(const std::string &text)
{
    const std::string key = toLower(trim(text));
    if (key == "cm")
        return ComputeMode::kCM;
    if (key == "xbm")
        return ComputeMode::kXBM;
    if (key == "wlm")
        return ComputeMode::kWLM;
    return parseError("unknown computing mode '" + text + "'");
}

const char *
nocTypeName(NocType type)
{
    switch (type) {
      case NocType::kIdeal: return "ideal";
      case NocType::kSharedBus: return "shared-bus";
      case NocType::kMesh: return "mesh";
      case NocType::kHTree: return "h-tree";
      case NocType::kDisjointBufferSwitch: return "disjoint-buffer-switch";
    }
    return "?";
}

StatusOr<NocType>
parseNocType(const std::string &text)
{
    const std::string key = toLower(trim(text));
    if (key == "ideal" || key == "\\" || key.empty())
        return NocType::kIdeal;
    if (key == "shared-bus" || key == "bus" || key == "shared memory")
        return NocType::kSharedBus;
    if (key == "mesh")
        return NocType::kMesh;
    if (key == "h-tree" || key == "htree")
        return NocType::kHTree;
    if (key == "disjoint-buffer-switch" || key == "disjoint buffer switch")
        return NocType::kDisjointBufferSwitch;
    return parseError("unknown NoC type '" + text + "'");
}

const char *
cellTypeName(CellType type)
{
    switch (type) {
      case CellType::kSram: return "SRAM";
      case CellType::kReram: return "ReRAM";
      case CellType::kFlash: return "FLASH";
      case CellType::kPcm: return "PCM";
      case CellType::kSttMram: return "STT-MRAM";
    }
    return "?";
}

StatusOr<CellType>
parseCellType(const std::string &text)
{
    const std::string key = toLower(trim(text));
    if (key == "sram")
        return CellType::kSram;
    if (key == "reram" || key == "rram")
        return CellType::kReram;
    if (key == "flash" || key == "nor-flash")
        return CellType::kFlash;
    if (key == "pcm")
        return CellType::kPcm;
    if (key == "stt-mram" || key == "mram")
        return CellType::kSttMram;
    return parseError("unknown cell type '" + text + "'");
}

bool
CimArchitecture::weightsStationary() const
{
    return deviceProfile(xbar.cell_type).weights_stationary;
}

Status
CimArchitecture::validate() const
{
    if (chip.core_rows <= 0 || chip.core_cols <= 0)
        return invalidArgument(name + ": core grid must be positive");
    if (core.xb_rows <= 0 || core.xb_cols <= 0)
        return invalidArgument(name + ": crossbar grid must be positive");
    if (xbar.rows <= 0 || xbar.cols <= 0)
        return invalidArgument(name + ": crossbar shape must be positive");
    // Core, crossbar and cell counts are products of these sizes; one
    // that wraps int64 would reach the scheduler as 0 (a division by
    // zero) or a negative count.
    std::int64_t cells = 1;
    for (const std::int64_t size : {chip.core_rows, chip.core_cols,
                                    core.xb_rows, core.xb_cols, xbar.rows,
                                    xbar.cols})
        if (__builtin_mul_overflow(cells, size, &cells))
            return invalidArgument(
                name + ": the core grid x crossbar grid x crossbar size "
                       "cell count overflows int64");
    if (xbar.parallel_row <= 0 || xbar.parallel_row > xbar.rows) {
        return invalidArgument(strformat(
            "%s: parallel_row %lld must be in [1, %lld]", name.c_str(),
            static_cast<long long>(xbar.parallel_row),
            static_cast<long long>(xbar.rows)));
    }
    if (xbar.dac_bits <= 0 || xbar.adc_bits <= 0)
        return invalidArgument(name + ": DAC/ADC precision must be positive");
    if (xbar.cell_bits <= 0)
        return invalidArgument(name + ": cell precision must be positive");
    if (weight_bits <= 0 || activation_bits <= 0)
        return invalidArgument(name + ": data precision must be positive");
    if (cellsPerWeight() > xbar.cols) {
        return invalidArgument(strformat(
            "%s: one %d-bit weight needs %lld cells but a crossbar row has "
            "only %lld",
            name.c_str(), weight_bits,
            static_cast<long long>(cellsPerWeight()),
            static_cast<long long>(xbar.cols)));
    }
    if (!chip.core_noc_cost.empty()) {
        const std::size_t n =
            static_cast<std::size_t>(chip.coreNumber());
        if (chip.core_noc_cost.size() != n * n) {
            return invalidArgument(strformat(
                "%s: core_noc_cost must be %zux%zu", name.c_str(), n, n));
        }
    }
    if (!core.xb_noc_cost.empty()) {
        const std::size_t n = static_cast<std::size_t>(core.xbNumber());
        if (core.xb_noc_cost.size() != n * n) {
            return invalidArgument(strformat(
                "%s: xb_noc_cost must be %zux%zu", name.c_str(), n, n));
        }
    }
    return Status::ok();
}

std::string
CimArchitecture::advisory() const
{
    // Mode/tier consistency: WLM requires a meaningful parallel_row.
    // Not an error — WLM with full-row activation degenerates to XBM
    // behaviour — but worth surfacing to the user.
    if (mode == ComputeMode::kWLM && xbar.parallel_row == xbar.rows)
        return name + ": WLM mode with parallel_row == crossbar rows; "
                      "VVM remapping will be a no-op";
    return "";
}

std::string
CimArchitecture::toString() const
{
    std::ostringstream out;
    out << "CimArchitecture '" << name << "' (mode "
        << computeModeName(mode) << ")\n";
    out << strformat(
        "  Chip_tier = { core_number: %lld [%lld*%lld], core_noc: %s, "
        "ALU: %s ops/cy, L0: %s KiB @ %s b/cy }\n",
        static_cast<long long>(chip.coreNumber()),
        static_cast<long long>(chip.core_rows),
        static_cast<long long>(chip.core_cols), nocTypeName(chip.core_noc),
        chip.alu_ops_per_cycle > 0
            ? formatDouble(chip.alu_ops_per_cycle).c_str() : "\\",
        chip.l0_size_kib > 0 ? formatDouble(chip.l0_size_kib).c_str()
                             : "\\",
        chip.l0_bandwidth > 0 ? formatDouble(chip.l0_bandwidth).c_str()
                              : "\\");
    out << strformat(
        "  Core_tier = { xb_number: %lld [%lld*%lld], xb_noc: %s, "
        "ALU: %s ops/cy, L1: %s KiB @ %s b/cy }\n",
        static_cast<long long>(core.xbNumber()),
        static_cast<long long>(core.xb_rows),
        static_cast<long long>(core.xb_cols), nocTypeName(core.xb_noc),
        core.alu_ops_per_cycle > 0
            ? formatDouble(core.alu_ops_per_cycle).c_str() : "\\",
        core.l1_size_kib > 0 ? formatDouble(core.l1_size_kib).c_str()
                             : "\\",
        core.l1_bandwidth > 0 ? formatDouble(core.l1_bandwidth).c_str()
                              : "\\");
    out << strformat(
        "  XB_tier   = { xb_size: [%lld,%lld], parallel_row: %lld, "
        "DAC: %d-bit, ADC: %d-bit, Type: %s, Precision: %d-bit }\n",
        static_cast<long long>(xbar.rows),
        static_cast<long long>(xbar.cols),
        static_cast<long long>(xbar.parallel_row), xbar.dac_bits,
        xbar.adc_bits, cellTypeName(xbar.cell_type), xbar.cell_bits);
    return out.str();
}

} // namespace cimmlc

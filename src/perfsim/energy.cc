#include "perfsim/energy.h"

#include <algorithm>

#include "arch/device.h"
#include "arch/noc.h"
#include "common/mathutil.h"

namespace cimmlc {

EnergyModel::EnergyModel(const CimArchitecture &arch)
{
    const DeviceProfile &device = deviceProfile(arch.xbar.cell_type);
    const PeripheralCosts &peripherals = defaultPeripheralCosts();

    // One activation phase reads parallel_row wordlines across every
    // physical column of the array.
    const double active_cells =
        static_cast<double>(arch.xbar.parallel_row) *
        static_cast<double>(arch.xbar.cols);
    xbar_activation_pj_ = active_cells * device.read_energy_pj;

    // One shared column ADC per crossbar (ISAAC-style time multiplexing)
    // plus DAC drivers on the active rows.
    conversion_pj_ =
        adcEnergyPj(arch.xbar.adc_bits) +
        dacEnergyPj(arch.xbar.dac_bits) *
            static_cast<double>(arch.xbar.parallel_row);

    // Only the diameter is needed, so the model is built without the
    // chip's explicit cost matrix (n^2 doubles) that forChip() copies.
    const NocModel chip_noc(arch.chip.core_noc, arch.chip.core_rows,
                            arch.chip.core_cols,
                            arch.chip.core_noc_bandwidth);
    const double avg_hops =
        static_cast<double>(chip_noc.diameter()) * 0.5;
    movement_pj_per_bit_ =
        peripherals.buffer_energy_pj_per_bit * 2.0 + // read + write
        peripherals.noc_energy_pj_per_bit_hop * avg_hops;
    movement_peak_mw_ =
        (arch.chip.l0_bandwidth > 0.0 ? arch.chip.l0_bandwidth : 0.0) *
        movement_pj_per_bit_;

    alu_pj_per_op_ = peripherals.alu_energy_pj_per_op;
    write_pj_per_cell_ = device.write_energy_pj;
}

double
EnergyModel::movementPj(double bits) const
{
    return bits * movement_pj_per_bit_;
}

double
EnergyModel::movementPeakPowerMw() const
{
    return movement_peak_mw_;
}

double
EnergyModel::aluPj(double ops) const
{
    return ops * alu_pj_per_op_;
}

double
EnergyModel::writePj(double cells) const
{
    return cells * write_pj_per_cell_;
}

double
metaOpDurationCycles(const MetaOp &op, const CimArchitecture &arch)
{
    const DeviceProfile &device = deviceProfile(arch.xbar.cell_type);
    const double dac_cycles =
        static_cast<double>(arch.dacCyclesPerActivation());
    switch (op.kind) {
      case MetaOpKind::kReadXb: {
        const std::int64_t groups = ceilDiv(
            std::max<std::int64_t>(op.rows, 1), arch.xbar.parallel_row);
        return dac_cycles * static_cast<double>(groups) *
               device.read_latency_cycles *
               static_cast<double>(std::max<std::int64_t>(op.len, 1));
      }
      case MetaOpKind::kReadRow:
        // One activation phase per DAC cycle; len <= parallel_row.
        return dac_cycles * device.read_latency_cycles;
      case MetaOpKind::kWriteXb:
        return static_cast<double>(
                   op.payload ? op.payload->shape().dim(0)
                              : arch.xbar.rows) *
               device.write_latency_cycles;
      case MetaOpKind::kWriteRow:
        return static_cast<double>(std::max<std::int64_t>(op.len, 1)) *
               device.write_latency_cycles;
      case MetaOpKind::kWriteCore:
        return static_cast<double>(arch.xbar.rows) *
               device.write_latency_cycles;
      case MetaOpKind::kReadCore: {
        const CoreOpParams &p = op.coreParams();
        double windows = 1.0;
        std::int64_t matrix_rows = 1;
        if (p.is_conv) {
            const std::int64_t OW =
                convOutDim(p.in_w, p.kernel, p.stride, p.padding);
            const std::int64_t OH =
                convOutDim(p.in_h, p.kernel, p.stride, p.padding);
            const std::int64_t w1 = p.win_end > 0 ? p.win_end : OH;
            windows = static_cast<double>((w1 - p.win_begin) * OW);
            matrix_rows = p.in_channels * p.kernel * p.kernel;
        } else {
            const std::int64_t w1 = p.win_end > 0 ? p.win_end : 1;
            windows = static_cast<double>(w1 - p.win_begin);
            matrix_rows = p.in_features;
        }
        const std::int64_t rows_used =
            std::min(matrix_rows, arch.xbar.rows);
        const std::int64_t groups =
            ceilDiv(rows_used, arch.xbar.parallel_row);
        return windows * dac_cycles * static_cast<double>(groups) *
               device.read_latency_cycles;
      }
      case MetaOpKind::kMov: {
        const double bits = static_cast<double>(op.len * op.count) *
                            arch.activation_bits;
        double bw = arch.chip.l0_bandwidth;
        if (op.src.space == MemSpace::kL1 ||
            op.dst.space == MemSpace::kL1) {
            if (arch.core.l1_bandwidth > 0.0) {
                bw = bw > 0.0 ? std::min(bw, arch.core.l1_bandwidth)
                              : arch.core.l1_bandwidth;
            }
        }
        if (bw <= 0.0)
            return 1.0; // ideal buffers: single-cycle issue
        return std::max(1.0, bits / bw);
      }
      case MetaOpKind::kDcom: {
        const double rate = arch.chip.alu_ops_per_cycle;
        if (rate <= 0.0)
            return 1.0;
        return std::max(1.0, static_cast<double>(op.len) / rate);
      }
    }
    return 1.0;
}

std::int64_t
metaOpActiveCrossbars(const MetaOp &op, const CimArchitecture &arch)
{
    switch (op.kind) {
      case MetaOpKind::kReadXb:
        return std::max<std::int64_t>(op.len, 1);
      case MetaOpKind::kReadRow:
        return 1;
      case MetaOpKind::kReadCore:
        // A CM core activation drives the core's crossbars for the
        // whole duration.
        return arch.core.xbNumber();
      default:
        return 0;
    }
}

void
accountMetaOpEnergy(const MetaOp &op, double duration, double multiplier,
                    const CimArchitecture &arch, const EnergyModel &model,
                    EnergyBreakdown *energy)
{
    switch (op.kind) {
      case MetaOpKind::kReadXb:
      case MetaOpKind::kReadRow:
      case MetaOpKind::kReadCore: {
        const std::int64_t xbs = metaOpActiveCrossbars(op, arch);
        const double phases =
            duration /
            deviceProfile(arch.xbar.cell_type).read_latency_cycles;
        energy->xbar_pj += multiplier * phases *
                           static_cast<double>(xbs) *
                           model.xbarActivationPj();
        energy->adc_dac_pj += multiplier * phases *
                              static_cast<double>(xbs) *
                              model.conversionPj();
        break;
      }
      case MetaOpKind::kWriteXb:
      case MetaOpKind::kWriteRow:
      case MetaOpKind::kWriteCore: {
        double cells = 0.0;
        if (op.payload) {
            cells = static_cast<double>(op.payload->numel()) *
                    static_cast<double>(arch.cellsPerWeight());
        } else {
            cells = static_cast<double>(arch.xbar.rows *
                                        arch.xbar.cols);
        }
        energy->write_pj += multiplier * model.writePj(cells);
        break;
      }
      case MetaOpKind::kMov: {
        const double bits = static_cast<double>(op.len * op.count) *
                            arch.activation_bits;
        energy->movement_pj += multiplier * model.movementPj(bits);
        break;
      }
      case MetaOpKind::kDcom: {
        energy->alu_pj +=
            multiplier * model.aluPj(static_cast<double>(op.len));
        break;
      }
    }
}

} // namespace cimmlc

#include "perfsim/energy.h"

#include "arch/device.h"
#include "arch/noc.h"

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

} // namespace cimmlc

/**
 * @file
 * Energy and power model of a CIM accelerator, following the structure of
 * the PUMA-sim / NeuroSim / NVSim models the paper extends (Section 4.1):
 * crossbar cell reads, shared per-crossbar ADC, per-row DACs, buffer and
 * NoC data movement, and digital ALU ops. Cycle time is normalized to
 * 1 ns (1 GHz), so pJ/cycle equals mW. Also home of the per-meta-op
 * duration and energy accounting that every flow-replaying engine uses.
 */
#ifndef CIMMLC_PERFSIM_ENERGY_H
#define CIMMLC_PERFSIM_ENERGY_H

#include <cstdint>

#include "arch/arch.h"
#include "mop/metaop.h"

namespace cimmlc {

/** Per-category energy totals of one inference, in pJ. */
struct EnergyBreakdown {
    double xbar_pj = 0.0;     //!< analog array activation
    double adc_dac_pj = 0.0;  //!< signal conversion
    double movement_pj = 0.0; //!< buffers + NoC
    double alu_pj = 0.0;      //!< digital compute
    double write_pj = 0.0;    //!< weight programming

    double
    total() const
    {
        return xbar_pj + adc_dac_pj + movement_pj + alu_pj + write_pj;
    }
};

/** Precomputed per-event energies for one architecture. */
class EnergyModel
{
  public:
    explicit EnergyModel(const CimArchitecture &arch);

    /** Energy of one crossbar activation phase (one cycle), pJ. */
    double xbarActivationPj() const { return xbar_activation_pj_; }

    /** ADC + DAC energy of one activation phase, pJ. */
    double conversionPj() const { return conversion_pj_; }

    /** Instantaneous power of one active crossbar, mW (pJ/cycle). */
    double
    activeCrossbarPowerMw() const
    {
        return xbar_activation_pj_ + conversion_pj_;
    }

    /** Energy to move @p bits across the chip NoC + buffers, pJ. */
    double movementPj(double bits) const;

    /** Peak movement power given the L0 bandwidth, mW. */
    double movementPeakPowerMw() const;

    /** Energy of @p ops digital ALU operations, pJ. */
    double aluPj(double ops) const;

    /** Energy to program @p cells memory cells, pJ. */
    double writePj(double cells) const;

  private:
    double xbar_activation_pj_ = 0.0;
    double conversion_pj_ = 0.0;
    double movement_pj_per_bit_ = 0.0;
    double movement_peak_mw_ = 0.0;
    double alu_pj_per_op_ = 0.0;
    double write_pj_per_cell_ = 0.0;
};

/** Duration of one meta-op, in cycles: the per-op timing both the
 * discrete-event engine and the trace walk replay flows with. */
double metaOpDurationCycles(const MetaOp &op, const CimArchitecture &arch);

/** Crossbars @p op holds active for its whole duration (0 for non-read
 * ops) — the contribution to the peak-power sweep. */
std::int64_t metaOpActiveCrossbars(const MetaOp &op,
                                   const CimArchitecture &arch);

/**
 * Accumulates @p op's energy into @p energy, weighted by @p multiplier
 * (the product of enclosing repeat counts). Shared by the discrete-event
 * engine (perfsim/event/event_engine.h) and the trace walk
 * (tests/trace_engine.h), so the two price energy identically and
 * differ only in timing.
 */
void accountMetaOpEnergy(const MetaOp &op, double duration,
                         double multiplier, const CimArchitecture &arch,
                         const EnergyModel &model,
                         EnergyBreakdown *energy);

} // namespace cimmlc

#endif // CIMMLC_PERFSIM_ENERGY_H

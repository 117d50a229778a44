/**
 * @file
 * Host-CPU cost model for hybrid host/CIM offload (TDO-CIM style).
 *
 * Not every node of a workload belongs on the crossbars: digital
 * operators on chips with weak (or busy) vector ALUs can run faster on
 * the host CPU, at the price of a kernel-launch overhead and moving the
 * region's boundary tensors across the host link. The scheduler prices
 * maximal runs of consecutive digital nodes against this model and
 * offloads a run when the host total (launch + transfer + compute) beats
 * the chip's ALU time (see runCgOptimization with
 * ScheduleOptions::host_offload).
 *
 * The model is deliberately first-order — a throughput, a link, a launch
 * cost, and an energy rate — mirroring the closed-form chip cost model
 * it competes with. Its tag() joins the TuneCache key of every
 * offloading candidate (evaluationKey) and every stage-cache key, so two
 * compiles that price host regions differently can never alias.
 */
#ifndef CIMMLC_SCHED_HOST_MODEL_H
#define CIMMLC_SCHED_HOST_MODEL_H

#include <string>

#include "common/status.h"

namespace cimmlc {

/** First-order host-CPU execution model, in chip-cycle units. */
struct HostModel {
    //! elementwise ALU ops the host retires per chip cycle
    double alu_ops_per_cycle = 64.0;
    //! host-link bandwidth in bits per chip cycle (PCIe-ish, shared)
    double link_bits_per_cycle = 64.0;
    //! fixed cost of entering a host region (kernel launch + sync)
    double launch_overhead_cycles = 256.0;
    //! energy per host ALU op (CPUs pay more per op than the chip ALU)
    double energy_pj_per_op = 4.0;

    Status validate() const;

    /** Canonical parameter render, e.g. "alu64|link64|launch256|pj4". */
    std::string tag() const;
};

/** Host compute cycles for @p alu_ops elementwise ops (no overheads). */
double hostComputeCycles(const HostModel &model, double alu_ops);

/** Cycles to move @p bits across the host link. */
double hostTransferCycles(const HostModel &model, double bits);

} // namespace cimmlc

#endif // CIMMLC_SCHED_HOST_MODEL_H

#include "sched/host_model.h"

#include "common/strutil.h"

namespace cimmlc {

Status
HostModel::validate() const
{
    if (alu_ops_per_cycle <= 0.0)
        return invalidArgument(
            "host model alu_ops_per_cycle must be > 0");
    if (link_bits_per_cycle <= 0.0)
        return invalidArgument(
            "host model link_bits_per_cycle must be > 0");
    if (launch_overhead_cycles < 0.0)
        return invalidArgument(
            "host model launch_overhead_cycles must be >= 0");
    if (energy_pj_per_op < 0.0)
        return invalidArgument("host model energy_pj_per_op must be >= 0");
    return Status::ok();
}

std::string
HostModel::tag() const
{
    return strformat("alu%.17g|link%.17g|launch%.17g|pj%.17g",
                     alu_ops_per_cycle, link_bits_per_cycle,
                     launch_overhead_cycles, energy_pj_per_op);
}

double
hostComputeCycles(const HostModel &model, double alu_ops)
{
    if (alu_ops <= 0.0)
        return 0.0;
    return alu_ops / model.alu_ops_per_cycle;
}

double
hostTransferCycles(const HostModel &model, double bits)
{
    if (bits <= 0.0)
        return 0.0;
    return bits / model.link_bits_per_cycle;
}

} // namespace cimmlc

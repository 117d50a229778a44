#include "perfsim/trace_engine.h"

#include <algorithm>
#include <vector>

#include "arch/device.h"
#include "common/logging.h"
#include "common/mathutil.h"
#include "common/strutil.h"

namespace cimmlc {

std::string
TraceReport::toString() const
{
    return strformat(
        "trace: %.4g cycles, %lld ops, peak %lld active xbs, "
        "energy %.4g pJ, peak %.4g mW, avg %.4g mW",
        cycles, static_cast<long long>(ops),
        static_cast<long long>(peak_active_xbs), energy.total(),
        peak_power_mw, avg_power_mw);
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

namespace {

/** Crossbar activation interval for the peak sweep. */
struct Interval {
    double start;
    double end;
    std::int64_t xbs;
};

class Tracer
{
  public:
    Tracer(const CimArchitecture &arch)
        : arch_(arch), energy_model_(arch)
    {
    }

    StatusOr<TraceReport>
    run(const MopProgram &program)
    {
        double t = 0.0;
        CIMMLC_RETURN_IF_ERROR(execStmts(program.init(), &t, 1.0));
        CIMMLC_RETURN_IF_ERROR(execStmts(program.compute(), &t, 1.0));

        TraceReport report;
        report.cycles = t;
        report.ops = ops_;
        report.energy = energy_;
        report.peak_active_xbs = sweepPeak();
        report.peak_power_mw =
            static_cast<double>(report.peak_active_xbs) *
                energy_model_.activeCrossbarPowerMw() +
            energy_model_.movementPeakPowerMw();
        if (t > 0.0)
            report.avg_power_mw = energy_.total() / t;
        return report;
    }

  private:
    Status
    execStmts(const std::vector<Stmt> &stmts, double *t,
              double multiplier)
    {
        for (const Stmt &stmt : stmts)
            CIMMLC_RETURN_IF_ERROR(execStmt(stmt, t, multiplier));
        return Status::ok();
    }

    Status
    execStmt(const Stmt &stmt, double *t, double multiplier)
    {
        switch (stmt.kind) {
          case Stmt::Kind::kOp: {
            const double duration =
                metaOpDurationCycles(stmt.op, arch_);
            account(stmt.op, *t, duration, multiplier);
            *t += duration;
            return Status::ok();
          }
          case Stmt::Kind::kParallel: {
            const double start = *t;
            double end = start;
            for (const Stmt &child : stmt.body) {
                double child_t = start;
                CIMMLC_RETURN_IF_ERROR(
                    execStmt(child, &child_t, multiplier));
                end = std::max(end, child_t);
            }
            *t = end;
            return Status::ok();
          }
          case Stmt::Kind::kRepeat: {
            if (stmt.repeat <= 0)
                return Status::ok();
            // Measure one iteration, scale time and energy by the
            // count; intervals of one iteration represent the peak.
            const double start = *t;
            CIMMLC_RETURN_IF_ERROR(
                execStmts(stmt.body, t,
                          multiplier * static_cast<double>(stmt.repeat)));
            const double body = *t - start;
            *t = start + body * static_cast<double>(stmt.repeat);
            return Status::ok();
          }
        }
        return internalError("unhandled statement kind");
    }

    void
    account(const MetaOp &op, double start, double duration,
            double multiplier)
    {
        ++ops_;
        const std::int64_t xbs = metaOpActiveCrossbars(op, arch_);
        if (xbs > 0)
            intervals_.push_back({start, start + duration, xbs});
        accountMetaOpEnergy(op, duration, multiplier, arch_,
                            energy_model_, &energy_);
    }

    std::int64_t
    sweepPeak() const
    {
        // Sweep-line over activation intervals.
        std::vector<std::pair<double, std::int64_t>> events;
        events.reserve(intervals_.size() * 2);
        for (const Interval &iv : intervals_) {
            events.emplace_back(iv.start, iv.xbs);
            events.emplace_back(iv.end, -iv.xbs);
        }
        std::sort(events.begin(), events.end(),
                  [](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first < b.first;
                      return a.second < b.second; // close before open
                  });
        std::int64_t current = 0;
        std::int64_t peak = 0;
        for (const auto &[time, delta] : events) {
            current += delta;
            peak = std::max(peak, current);
        }
        return peak;
    }

    const CimArchitecture &arch_;
    EnergyModel energy_model_;
    std::vector<Interval> intervals_;
    EnergyBreakdown energy_;
    std::int64_t ops_ = 0;
};

} // namespace

StatusOr<TraceReport>
traceProgram(const MopProgram &program, const CimArchitecture &arch)
{
    Tracer tracer(arch);
    return tracer.run(program);
}

} // namespace cimmlc

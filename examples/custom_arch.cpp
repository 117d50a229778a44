/**
 * @file
 * Example: describing a *new* CIM chip in a text config and compiling
 * for it — the generality workflow of Section 3.2. The config below is
 * written to disk, loaded back through the Abs-arch parser, validated,
 * and used to compile and functionally verify a small CNN, end to end.
 */
#include <cstdio>
#include <fstream>

#include "arch/serialize.h"
#include "common/rng.h"
#include "compiler/session.h"
#include "funcsim/verify.h"
#include "graph/models.h"
#include "mop/printer.h"

using namespace cimmlc;

namespace {

constexpr const char *kConfigText = R"({
    # A hypothetical STT-MRAM chip with an H-tree interconnect and a
    # wordline-mode programming interface.
    "name": "example-mram-wlm",
    "computing_mode": "WLM",
    "weight_bits": 8,
    "activation_bits": 8,
    "chip_tier": {
        "core_grid": [4, 4],
        "core_noc": "h-tree",
        "core_noc_bandwidth": 256,
        "alu": 512,
        "l0_bandwidth": 256
    },
    "core_tier": {
        "xb_grid": [2, 2],
        "xb_noc": "shared-bus"
    },
    "xb_tier": {
        "xb_size": [128, 128],
        "parallel_row": 32,
        "dac": 2,
        "adc": 8,
        "type": "STT-MRAM",
        "precision": 2
    }
})";

} // namespace

int
main()
{
    // 1. Write and reload the architecture description.
    const std::string path = "/tmp/cimmlc_custom_arch.json";
    {
        std::ofstream out(path);
        out << kConfigText;
    }
    auto arch_or = archFromFile(path);
    if (!arch_or.isOk()) {
        std::fprintf(stderr, "config rejected: %s\n",
                     arch_or.status().toString().c_str());
        return 1;
    }
    const CimArchitecture &arch = arch_or.value();
    std::fputs(arch.toString().c_str(), stdout);

    // 2. Compile a small CNN for it.
    Graph graph = models::macroCnn();
    CompileRequest request;
    request.graph = &graph;
    request.arch_ref = &arch;
    auto result = CompilerSession(std::move(request)).run();
    if (!result.isOk()) {
        std::fprintf(stderr, "compile failed: %s\n",
                     result.status().toString().c_str());
        return 1;
    }
    const CompileArtifacts &compiled = result.value();
    std::fputs(compiled.schedule->summary(graph).c_str(), stdout);
    std::printf("%s\n\n", compiled.perf->toString().c_str());

    PrintOptions print;
    print.max_statements = 16;
    std::fputs(printProgram(compiled.code->program, print).c_str(),
               stdout);

    // 3. Verify the generated flow bit-exactly.
    Rng rng(5);
    graph.randomizeWeights(rng);
    Int8Tensor image(TensorShape({1, 1, 32, 32}));
    image.fillRandom(rng, -16, 16);
    auto verify = verifyCompiledFlow(
        graph, arch, ScheduleOptions::full(),
        {{graph.inputs()[0], image}});
    if (!verify.isOk() || !verify.value().match) {
        std::fprintf(stderr, "verification failed\n");
        return 1;
    }
    std::printf("\nfunctional check on '%s': BIT-EXACT MATCH "
                "(%lld elements)\n",
                arch.name.c_str(),
                static_cast<long long>(
                    verify.value().elements_checked));

    // 4. Round-trip the architecture back to disk.
    if (!saveConfigFile("/tmp/cimmlc_custom_arch_out.json",
                        archToConfig(arch))
             .isOk()) {
        return 1;
    }
    std::puts("architecture round-tripped to "
              "/tmp/cimmlc_custom_arch_out.json");
    return 0;
}

/**
 * @file
 * Mutation fuzz of the graph and Abs-arch kvjson readers, the documents
 * `--model-file`, `--arch-file` and a compile frame's `model_text` /
 * `arch_text` carry. Every mutant of a bundled model's graphToConfig
 * dump must load as a Status or as a graph that validates and goes
 * through scheduling, and every mutant of a preset's archToConfig dump
 * as a Status or an architecture that validates: never a crash.
 */
#include <gtest/gtest.h>

#include <string>

#include "arch/presets.h"
#include "arch/serialize.h"
#include "common/rng.h"
#include "compiler/session.h"
#include "fuzz_mutate.h"
#include "graph/models.h"
#include "graph/serialize.h"

namespace cimmlc {
namespace {

constexpr int kRounds = 1000;

TEST(KvjsonFuzzTest, GraphMutantsErrorOrSchedule)
{
    Rng rng(0x6EA9F5ull);
    int loaded = 0;
    int scheduled = 0;
    for (const char *model : {"mlp", "lenet5", "conv_relu_toy", "macro_cnn",
                              "inception_toy", "vgg7"}) {
        const std::string seed =
            graphToConfig(models::byName(model)).dump(false);
        for (int round = 0; round < kRounds; ++round) {
            const std::string text = mutate(seed, rng);
            auto graph = graphFromText(text);
            if (!graph.isOk()) {
                EXPECT_FALSE(graph.status().message().empty()) << text;
                continue;
            }
            ++loaded;
            EXPECT_TRUE(graph.value().validate().isOk()) << text;
            // The path `cimmlc --model-file` takes, up to the schedule.
            CompileRequest request;
            request.graph = &graph.value();
            request.arch = "jain";
            request.stop_after = CompileStage::kSchedule;
            auto compiled = CompilerSession(std::move(request)).run();
            if (compiled.isOk())
                ++scheduled;
            else
                EXPECT_FALSE(compiled.status().message().empty()) << text;
        }
    }
    // Enough mutants load and schedule for the check to mean something.
    EXPECT_GT(loaded, 100);
    EXPECT_GT(scheduled, 100);
}

TEST(KvjsonFuzzTest, ArchMutantsErrorOrValidate)
{
    Rng rng(0xA4C8F5ull);
    int loaded = 0;
    for (const std::string &preset : presets::availablePresets()) {
        const std::string seed =
            archToConfig(presets::byName(preset).value()).dump(false);
        for (int round = 0; round < kRounds; ++round) {
            const std::string text = mutate(seed, rng);
            auto arch = archFromText(text);
            if (!arch.isOk()) {
                EXPECT_FALSE(arch.status().message().empty()) << text;
                continue;
            }
            ++loaded;
            EXPECT_TRUE(arch.value().validate().isOk()) << text;
        }
    }
    EXPECT_GT(loaded, 100);
}

} // namespace
} // namespace cimmlc

/**
 * @file
 * Heap reuse across compiles (DESIGN.md, "Heap reuse across
 * compiles"): a process that compiles one flow after another must let
 * the next compile reuse the heap the last one grew, instead of handing
 * it back to the kernel and faulting it in again, zero-filled.
 *
 * Runs in its own process, since it counts the process's minor page
 * faults.
 */
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <string>
#include <utility>

#include "arch/presets.h"
#include "compiler/session.h"
#include "graph/models.h"

namespace cimmlc {
namespace {

long
minorFaults()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
}

/** Compiles @p graph on @p arch, frees the flow, and returns the minor
 * page faults that took. */
long
compileAndFree(const Graph &graph, const CimArchitecture &arch)
{
    const long before = minorFaults();
    {
        CompileRequest request;
        request.graph = &graph;
        request.arch_ref = &arch;
        request.threads = 1;
        CompilerSession session(std::move(request));
        auto artifacts = session.run();
        EXPECT_TRUE(artifacts.isOk()) << artifacts.status().toString();
    }
    return minorFaults() - before;
}

TEST(HeapReuseTest, SecondCompileReusesTheHeapTheFirstGrew)
{
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__) \
    || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the heap policy is glibc's, and sanitizer runtimes "
                    "replace malloc";
#endif
    // vgg11 x jain-jssc21 holds 133 MB of statements in 8,126 vectors,
    // above glibc's largest dynamic trim threshold (64 MiB), so a heap
    // that is trimmed after the flow is freed must be faulted in again.
    const Graph graph = models::byName("vgg11");
    const CimArchitecture arch = presets::byName("jain-jssc21").value();
    const long first = compileAndFree(graph, arch);
    const long second = compileAndFree(graph, arch);
    RecordProperty("first_compile_minor_faults", std::to_string(first));
    RecordProperty("second_compile_minor_faults", std::to_string(second));
    // With glibc 2.36 on x86-64 the second compile faults 22% of the
    // first's pages when the heap is kept and 96% when glibc trims it;
    // 45% is more than 2x away from either.
    EXPECT_LT(static_cast<double>(second), 0.45 * static_cast<double>(first))
        << "the second compile faulted " << second << " pages, the first "
        << first;
}

} // namespace
} // namespace cimmlc

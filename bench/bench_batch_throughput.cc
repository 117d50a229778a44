/**
 * @file
 * Batch-compilation throughput: the Figure 21/22 design-space sweep
 * (models x architecture presets) run as one serial loop and again on
 * the thread pool. Checks that the parallel run's aggregated
 * table is byte-identical to the serial loop's, and — on hosts with
 * >= 4 hardware threads — that the parallel run is > 2x faster.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench_util.h"
#include "compiler/batch.h"

using namespace cimmlc;
using bench::ShapeChecker;

namespace {

double
timeSweep(const std::vector<BatchJob> &jobs, int threads,
          std::string *table_out)
{
    BatchSweep sweep;
    sweep.jobs = jobs;
    sweep.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    auto result = runSweep(sweep);
    const auto stop = std::chrono::steady_clock::now();
    CIMMLC_CHECK(result.isOk()) << result.status().toString();
    CIMMLC_CHECK_EQ(result.value().okCount(),
                    static_cast<std::int64_t>(jobs.size()));
    *table_out = result.value().table();
    return std::chrono::duration<double>(stop - start).count();
}

} // namespace

int
main()
{
    std::puts("=== Batch compilation throughput (DSE sweep, serial vs "
              "thread pool) ===");
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("hardware threads: %u\n\n", hw);

    auto jobs = crossProductJobs(
        {"resnet18", "resnet34", "resnet50", "vgg11", "vgg16",
         "vit_tiny"},
        {"isaac", "puma", "jia"});
    CIMMLC_CHECK(jobs.isOk()) << jobs.status().toString();

    ShapeChecker check;
    std::string serial_table;
    std::string parallel_table;

    // Warm-up pass so first-touch allocation noise does not skew the
    // serial measurement.
    std::string scratch;
    timeSweep(jobs.value(), 1, &scratch);

    const double serial_s = timeSweep(jobs.value(), 1, &serial_table);
    const double parallel_s = timeSweep(jobs.value(), 0, &parallel_table);

    std::fputs(parallel_table.c_str(), stdout);

    TextTable summary({"path", "threads", "wall (s)", "speedup"});
    summary.addRow({"serial loop", "1", strformat("%.3f", serial_s),
                    "1.00x"});
    summary.addRow({"thread pool",
                    strformat("%u", hw == 0 ? 1 : hw),
                    strformat("%.3f", parallel_s),
                    bench::speedupStr(serial_s / parallel_s)});
    std::fputs(summary.render().c_str(), stdout);

    check.require(serial_table == parallel_table,
                  "parallel sweep table is byte-identical to the serial "
                  "loop's");
    // CIMMLC_REQUIRE_SPEEDUP=0 downgrades the wall-clock assertion to a
    // report, for noisy shared CI runners where the determinism check is
    // the meaningful gate.
    const char *strict = std::getenv("CIMMLC_REQUIRE_SPEEDUP");
    if (strict && std::strcmp(strict, "0") == 0) {
        std::printf("\n(note: CIMMLC_REQUIRE_SPEEDUP=0 — speedup %.2fx "
                    "reported, not enforced)\n",
                    serial_s / parallel_s);
    } else if (hw >= 4) {
        check.require(serial_s / parallel_s > 2.0,
                      strformat("parallel sweep > 2x faster on %u "
                                "hardware threads (got %.2fx)",
                                hw, serial_s / parallel_s));
    } else {
        std::printf("\n(note: %u hardware thread(s) — the >2x speedup "
                    "check needs >= 4 and was skipped)\n",
                    hw);
    }
    return check.finish("batch_throughput");
}

/**
 * @file
 * Cross-process sharding for `--batch` and `--arch-dse` sweeps.
 *
 * A sweep's work units already travel through deterministic kvjson
 * specs, so sharding is a pure index partition: shard i of N owns the
 * work units whose enumeration index satisfies `index % N == i`. Each
 * `cimmlc --shard i/N` process runs only its slice and serializes the
 * per-unit results (status, metrics, identity facts — every field the
 * aggregate table renders) to a shard file; `--merge-shards` validates
 * that the shard files cover every index of the same spec exactly once
 * and reassembles the aggregate result.
 *
 * Merge determinism: all numbers round-trip bit-exactly through kvjson
 * (doubles dump as %.17g), every work unit is evaluated by exactly one
 * shard, and the merged entries are re-ordered by enumeration index —
 * so the merged table (and, for DSE, the recomputed Pareto front) is
 * byte-identical to the single-process run's. DSE sharding requires an
 * exhaustive, untuned spec: successive-halving promotion and shared
 * tuner memo traffic are globally adaptive, so their per-shard results
 * could not merge deterministically.
 */
#ifndef CIMMLC_COMPILER_SHARD_H
#define CIMMLC_COMPILER_SHARD_H

#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "compiler/batch.h"
#include "dse/arch_explorer.h"

namespace cimmlc {

/** Shard file schema tags. */
constexpr const char *kBatchShardSchema = "cimmlc.batchshard.v1";
constexpr const char *kDseShardSchema = "cimmlc.dseshard.v1";

/** One process's slice of a sweep: indices with index % count == index_. */
struct ShardSpec {
    int index = 0; //!< this shard, in [0, count)
    int count = 1; //!< total shards; 1 = no sharding

    bool enabled() const { return count > 1; }
    bool owns(std::size_t work_index) const
    {
        return static_cast<int>(work_index % static_cast<std::size_t>(count))
               == index;
    }
    Status validate() const;
};

/** Parses "i/N" (e.g. "0/4"); requires 0 <= i < N and N >= 1. */
StatusOr<ShardSpec> parseShardSpec(const std::string &text);

// ----- batch sharding -------------------------------------------------------

/**
 * Digest of the resolved sweep a shard belongs to (jobs, knobs,
 * budget) — merge refuses shards whose digests disagree, so slices of
 * different sweeps can never be silently combined. @pre the knobs pass
 * checkKnobValues(), as sweepFromFile's do.
 */
std::string batchSweepDigest(const BatchSweep &sweep);

/**
 * Serializes the entries this shard evaluated. @p entries holds the
 * shard-local results in slice order; @p indices maps each to its
 * position in the full job list.
 */
ConfigValue batchShardToConfig(const BatchSweep &sweep,
                               const ShardSpec &shard,
                               const std::vector<std::size_t> &indices,
                               const std::vector<BatchEntry> &entries);

/**
 * Merges shard files into the aggregate result. Validates every file's
 * schema and sweep digest, requires the shard set to cover every job
 * index exactly once, and returns entries in job order — byte-identical
 * to a single-process run of the same sweep.
 */
StatusOr<BatchResult>
mergeBatchShards(const BatchSweep &sweep,
                 const std::vector<std::string> &paths);

// ----- arch-dse sharding ----------------------------------------------------

/** Digest of the resolved DSE spec (workload, every archToConfig()
 * field of the base arch, sweep axes, knobs, budget) a shard belongs
 * to. @pre the knobs pass checkKnobValues(), as dseSpecFromFile's do. */
std::string dseSpecDigest(const DseSpec &spec);

/** Serializes the candidates this shard evaluated (slice of the
 * row-major enumeration). */
ConfigValue dseShardToConfig(const DseSpec &spec, const ShardSpec &shard,
                             const DseResult &partial);

/**
 * Merges DSE shard files: re-enumerates the candidate set from @p spec
 * locally (labels, params, and arch geometry never travel in shard
 * files), fills in each candidate's evaluated metrics from the shard
 * that owned it, replays the single-process duplicate-point dedup so
 * cache-hit accounting matches a cold single-process run, and
 * recomputes the Pareto front. Table, summary, and front are
 * byte-identical to the single-process run with a cold cache.
 */
StatusOr<DseResult> mergeDseShards(const DseSpec &spec,
                                   const std::vector<std::string> &paths);

} // namespace cimmlc

#endif // CIMMLC_COMPILER_SHARD_H

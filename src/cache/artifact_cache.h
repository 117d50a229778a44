/**
 * @file
 * Fingerprint-keyed stage-level artifact cache: the TuneCache idea
 * generalized to every CompilerSession stage.
 *
 * Each pipeline stage derives a key from the hashes of its own inputs
 * (the evaluationDigest of graph + Abs-arch, the schedule options
 * actually in effect, codegen parameters, upstream-stage digests), so a
 * changed workload replays the unchanged stage prefix from cache and
 * re-runs only the invalidated suffix. Values are the stage artifacts
 * themselves (Schedule, CodegenResult, ...), stored type-erased behind
 * shared_ptr<const void>; replays copy the artifact out, so cached and
 * uncached runs stay byte-identical in every report field except
 * wall_ms and the "cached" provenance tag.
 *
 * The cache is bounded: a capacity cap with LRU eviction keeps a
 * process-wide warm cache (the compile daemon shares one across all
 * requests) from growing without bound, and evictions are counted for
 * `cimmlc.stats.v1`. All operations are thread-safe.
 */
#ifndef CIMMLC_CACHE_ARTIFACT_CACHE_H
#define CIMMLC_CACHE_ARTIFACT_CACHE_H

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/config.h"

namespace cimmlc {

/**
 * Order-insensitive-free incremental hasher for cache-key derivation:
 * two independent 64-bit FNV-1a streams (different offset bases) over
 * the same byte sequence, rendered as 32 hex digits. Every mix() call
 * is length-prefixed, so ("ab","c") and ("a","bc") never collide.
 */
class ArtifactHash
{
  public:
    ArtifactHash &mix(const std::string &text);
    ArtifactHash &mix(const char *text);
    ArtifactHash &mix(std::int64_t value);
    ArtifactHash &mix(bool value);
    /** Doubles mix via their %.17g text render, matching the kvjson
     * number round-trip, so keys agree across processes. */
    ArtifactHash &mix(double value);

    /** 32-hex-digit digest of everything mixed so far. */
    std::string digest() const;

  private:
    void mixBytes(const char *data, std::size_t size);

    std::uint64_t lo_ = 0xcbf29ce484222325ull;
    std::uint64_t hi_ = 0x6c62272e07bb0142ull;
};

/**
 * Thread-safe bounded LRU memo of stage artifacts, keyed by
 * (stage, input-hash). Only successful stage results are stored; a
 * lookup refreshes recency. Hit/miss counts are tracked per stage for
 * the daemon's stats surface.
 */
class ArtifactCache
{
  public:
    static constexpr std::size_t kDefaultCapacity = 512;

    struct Entry {
        //! the stage artifact (e.g. shared_ptr<const Schedule>);
        //! stages with no artifact (validate) store nullptr
        std::shared_ptr<const void> value;
        std::string detail;     //!< the stage trace detail line
        double compute_ms = 0.0; //!< wall time of the original compute
    };

    explicit ArtifactCache(std::size_t capacity = kDefaultCapacity);

    /** Returns the entry for (stage, key) and refreshes its recency;
     * counts a hit or miss against @p stage either way. */
    std::optional<Entry> lookup(const std::string &stage,
                                const std::string &key);

    /** Stores @p entry under (stage, key), evicting the least recently
     * used entry when the cache is at capacity. Re-inserting an
     * existing key refreshes its value and recency. */
    void insert(const std::string &stage, const std::string &key,
                Entry entry);

    void clear();

    std::size_t size() const;
    std::size_t capacity() const;
    std::int64_t evictions() const;
    std::int64_t hits() const;
    std::int64_t misses() const;

    /** Per-stage and aggregate hit/miss/eviction stats as a kvjson
     * object (embedded in `cimmlc.stats.v1` as "artifact_cache"). */
    ConfigValue toConfig() const;

  private:
    struct Slot {
        Entry entry;
        std::list<std::string>::iterator recency;
    };
    struct StageCounters {
        std::int64_t hits = 0;
        std::int64_t misses = 0;
    };

    mutable std::mutex mutex_;
    std::size_t capacity_;
    //! most recently used key at the front
    std::list<std::string> recency_;
    std::map<std::string, Slot> slots_;
    std::map<std::string, StageCounters> stage_counters_;
    std::int64_t evictions_ = 0;
    std::int64_t hits_ = 0;
    std::int64_t misses_ = 0;
};

} // namespace cimmlc

#endif // CIMMLC_CACHE_ARTIFACT_CACHE_H

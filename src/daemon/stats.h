/**
 * @file
 * Serving-side telemetry for the compile daemon: request counters,
 * cache effectiveness, and per-stage latency histograms, snapshotted
 * as a kvjson document for the rpc `stats` request.
 */
#ifndef CIMMLC_DAEMON_STATS_H
#define CIMMLC_DAEMON_STATS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.h"

namespace cimmlc {

/**
 * A fixed-bucket log2 latency histogram over milliseconds: bucket i
 * holds samples in [2^(i-1), 2^i) ms, with bucket 0 catching
 * everything below 1 ms. Quantiles are read off the bucket upper
 * bounds, so they are conservative (never under-report).
 */
class LatencyHistogram
{
  public:
    static constexpr int kBuckets = 24; //!< up to ~2330 h in the top bucket

    void record(double ms);

    std::int64_t count() const { return count_; }
    double maxMs() const { return max_ms_; }

    /** Conservative quantile in ms for @p q in [0, 1]; 0 when empty. */
    double quantileMs(double q) const;

    /** {count, total_ms, mean_ms, max_ms, p50_ms, p99_ms, buckets[]}. */
    ConfigValue toConfig() const;

  private:
    std::int64_t buckets_[kBuckets] = {};
    std::int64_t count_ = 0;
    double total_ms_ = 0.0;
    double max_ms_ = 0.0;
};

/** Thread-safe daemon counters + histograms. */
class DaemonStats
{
  public:
    void recordAdmitted();
    void recordRejected();
    void recordCompleted(double total_ms);
    void recordFailed();
    void recordCanceled(std::int64_t dropped);
    void recordMemo(bool hit);
    /** Per-stage latency sample. @p cached routes a cache replay into
     * the separate "stage_replay_latency" histograms so first-run
     * compute timings never pollute the replay distribution (and vice
     * versa). */
    void recordStage(const std::string &stage, double wall_ms,
                     bool cached = false);

    /**
     * Snapshot as kvjson. @p queue_depth / @p inflight / @p clients are
     * the scheduler's live gauges; @p tune_cache_entries /
     * @p tune_cache_hits mirror the shared TuneCache, and
     * @p artifact_cache is ArtifactCache::toConfig() (per-stage hit
     * rates, capacity, evictions).
     */
    ConfigValue toConfig(std::int64_t queue_depth, std::int64_t inflight,
                         std::int64_t clients,
                         std::int64_t tune_cache_entries,
                         std::int64_t tune_cache_hits,
                         ConfigValue artifact_cache =
                             ConfigValue::makeObject({})) const;

  private:
    mutable std::mutex mutex_;
    std::int64_t admitted_ = 0;
    std::int64_t rejected_ = 0;
    std::int64_t completed_ = 0;
    std::int64_t failed_ = 0;
    std::int64_t canceled_ = 0;
    std::int64_t memo_hits_ = 0;
    std::int64_t memo_misses_ = 0;
    LatencyHistogram total_;
    std::map<std::string, LatencyHistogram> stages_;
    std::map<std::string, LatencyHistogram> replay_stages_;
};

} // namespace cimmlc

#endif // CIMMLC_DAEMON_STATS_H

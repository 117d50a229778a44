#include "sched/autotune.h"

#include <atomic>
#include <bit>
#include <limits>
#include <memory>
#include <numeric>

#include "arch/serialize.h"
#include "cache/artifact_cache.h"
#include "common/strutil.h"
#include "common/table.h"
#include "common/threadpool.h"
#include "perfsim/perf_engine.h"
#include "search/dominance.h"
#include "sched/cg.h"
#include "sched/multi_level.h"

namespace cimmlc {

namespace {

// Stable bit layout of the candidate encoding. The encoding doubles as
// the tie-break key, so the layout is part of the tuner's deterministic
// output contract — append bits, never reorder them.
constexpr std::uint32_t kCgDuplicationBit = 1u << 0;
constexpr std::uint32_t kCgPipelineBit = 1u << 1;
constexpr std::uint32_t kMvmDuplicationBit = 1u << 2;
constexpr std::uint32_t kMvmPipelineBit = 1u << 3;
constexpr std::uint32_t kVvmRemapBit = 1u << 4;
constexpr std::uint32_t kBitsToCrossbarsBit = 1u << 5;
// Bits 6-7: segmentation granularity, an index into kSegmentCaps.
constexpr std::uint32_t kSegmentCapShift = 6;
constexpr std::uint32_t kSegmentCapMask = 3u << kSegmentCapShift;
constexpr std::int64_t kSegmentCaps[] = {0, 1, 2, 4};
// Bit 8: dual-mode (resident) arrays. Bit 9: hybrid host offload.
constexpr std::uint32_t kDualModeBit = 1u << 8;
constexpr std::uint32_t kHostOffloadBit = 1u << 9;
constexpr std::uint32_t kEncodingSpace = 1u << 10;

constexpr const char *kTuneCacheSchema = "cimmlc.tunecache.v2";

// The public pruning masks (autotune.h) must track this bit layout.
static_assert(kTuneKnobMask
              == (kCgDuplicationBit | kCgPipelineBit | kMvmDuplicationBit
                  | kMvmPipelineBit | kVvmRemapBit));
static_assert(kTuneContextMask
              == (kBitsToCrossbarsBit | kSegmentCapMask | kDualModeBit
                  | kHostOffloadBit));

// The bits of the options runCgOptimization reads: cg_duplication,
// cg_pipeline, binding, segment_max_nodes, dual_mode and host_offload.
// Candidates that agree on them get the same CG plan, so the tuner
// computes it once per group; only the MVM/VVM knobs vary inside one.
constexpr std::uint32_t kCgKeyMask =
    kCgDuplicationBit | kCgPipelineBit | kBitsToCrossbarsBit
    | kSegmentCapMask | kDualModeBit | kHostOffloadBit;
static_assert((kCgKeyMask | kMvmDuplicationBit | kMvmPipelineBit
               | kVvmRemapBit)
              == kEncodingSpace - 1);

/** Bits a candidate may not set under @p mode. */
std::uint32_t
forbiddenBits(ComputeMode mode)
{
    switch (mode) {
      case ComputeMode::kCM:
        return kMvmDuplicationBit | kMvmPipelineBit | kVvmRemapBit;
      case ComputeMode::kXBM:
        return kVvmRemapBit;
      case ComputeMode::kWLM:
        return 0;
    }
    return 0;
}

/**
 * The checks a CompilerSession runs before its schedule stage (request
 * validation, then the validate stage), with the same context prefixes.
 */
Status
sessionPrecheck(const Graph &graph, const CimArchitecture &arch,
                const HostModel &host)
{
    CIMMLC_RETURN_IF_ERROR(host.validate()
                               .withContext("host_model")
                               .withContext("CompileRequest"));
    CIMMLC_RETURN_IF_ERROR(
        validateGraphForScheduling(graph).withContext("validate"));
    return arch.validate().withContext("validate");
}

/**
 * Prices candidates for one tune. Each candidate gets exactly the status
 * and metrics a CompilerSession run of its options (stop_after = kPerf,
 * closed-form perf) would give it, through the same functions that
 * session's schedule and perf stages call, but the inputs are validated
 * once per tune and the CG plan once per group.
 */
class CandidatePricer
{
  public:
    CandidatePricer(const Graph &graph, const CimArchitecture &arch,
                    const HostModel &host, TuneCache *cache)
        : graph_(graph), arch_(arch), host_(host), cache_(cache),
          digest_(cache != nullptr ? evaluationDigest(graph, arch) : ""),
          engine_(makePerfEngine(PerfEngineKind::kClosedForm)),
          precheck_(sessionPrecheck(graph, arch, host))
    {
    }

    /**
     * Prices @p members (indices into @p candidates that share one CG
     * key, ascending). The group's CG plan is computed on the first
     * cache miss and freed on return.
     */
    void
    priceGroup(std::vector<TuneCandidate> &candidates,
               const std::vector<std::size_t> &members)
    {
        std::optional<StatusOr<CgResult>> plan;
        for (std::size_t index : members) {
            TuneCandidate &candidate = candidates[index];
            std::string key;
            if (cache_ != nullptr) {
                key = evaluationKey(digest_, candidate.encoding, {}, host_);
                if (auto hit = cache_->lookup(key)) {
                    candidate.status = hit->status;
                    candidate.latency_cycles = hit->latency_cycles;
                    candidate.energy_pj = hit->energy_pj;
                    candidate.edp = hit->edp;
                    cache_hits_.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
            }
            candidate.status = price(candidate, plan);
            if (cache_ != nullptr) {
                cache_->insert(key,
                               TuneCache::Entry{candidate.status,
                                                candidate.latency_cycles,
                                                candidate.energy_pj,
                                                candidate.edp});
            }
        }
    }

    std::int64_t cacheHits() const { return cache_hits_.load(); }

  private:
    Status
    price(TuneCandidate &candidate,
          std::optional<StatusOr<CgResult>> &plan) const
    {
        CIMMLC_RETURN_IF_ERROR(precheck_);
        const ScheduleOptions options =
            clampOptionsToMode(candidate.options, arch_.mode);
        if (!plan.has_value())
            plan.emplace(runCgOptimization(graph_, arch_, options, host_));
        CIMMLC_RETURN_IF_ERROR(plan->status().withContext("schedule"));
        const StatusOr<Schedule> schedule =
            scheduleFromCg(graph_, arch_, options, host_, plan->value());
        CIMMLC_RETURN_IF_ERROR(schedule.status().withContext("schedule"));
        PerfInput input;
        input.graph = &graph_;
        input.arch = &arch_;
        input.schedule = &schedule.value();
        const StatusOr<PerfReport> perf = engine_->evaluate(input);
        CIMMLC_RETURN_IF_ERROR(perf.status().withContext("perf"));
        candidate.latency_cycles = perf.value().latency_cycles;
        candidate.energy_pj = perf.value().energy.total();
        candidate.edp = candidate.latency_cycles * candidate.energy_pj;
        return Status::ok();
    }

    const Graph &graph_;
    const CimArchitecture &arch_;
    const HostModel &host_;
    TuneCache *cache_;
    //! evaluationDigest of (graph, arch); empty without a cache
    const std::string digest_;
    const std::unique_ptr<PerfEngine> engine_;
    const Status precheck_;
    std::atomic<std::int64_t> cache_hits_{0};
};

} // namespace

const char *
tuneObjectiveName(TuneObjective objective)
{
    switch (objective) {
      case TuneObjective::kLatency: return "latency";
      case TuneObjective::kEnergy: return "energy";
      case TuneObjective::kEdp: return "edp";
    }
    return "?";
}

StatusOr<TuneObjective>
parseTuneObjective(const std::string &text)
{
    const std::string key = toLower(trim(text));
    if (key == "latency")
        return TuneObjective::kLatency;
    if (key == "energy")
        return TuneObjective::kEnergy;
    if (key == "edp")
        return TuneObjective::kEdp;
    return invalidArgument("unknown tuning objective '" + text
                           + "' (expected latency | energy | edp)");
}

double
TuneCandidate::objectiveValue(TuneObjective objective) const
{
    switch (objective) {
      case TuneObjective::kLatency: return latency_cycles;
      case TuneObjective::kEnergy: return energy_pj;
      case TuneObjective::kEdp: return edp;
    }
    return std::numeric_limits<double>::infinity();
}

double
TuneResult::speedupOverDefault() const
{
    if (!defaults().status.isOk() || !best().status.isOk())
        return 1.0;
    const double base = defaults().objectiveValue(objective);
    const double tuned = best().objectiveValue(objective);
    return tuned > 0.0 ? base / tuned : 1.0;
}

std::string
TuneResult::table() const
{
    TextTable table({"config", "latency (cyc)", "energy (pJ)", "EDP",
                     "note"});
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const TuneCandidate &candidate = candidates[i];
        std::string note;
        if (i == best_index)
            note = i == default_index ? "<- best (default)" : "<- best";
        else if (i == default_index)
            note = "default";
        if (candidate.status.isOk()) {
            table.addRow({candidate.options.toString(),
                          strformat("%.6g", candidate.latency_cycles),
                          strformat("%.6g", candidate.energy_pj),
                          strformat("%.6g", candidate.edp), note});
        } else {
            table.addRow({candidate.options.toString(), "-", "-", "-",
                          candidate.status.toString()});
        }
    }
    return table.render();
}

std::string
TuneResult::summary() const
{
    std::string line = strformat(
        "autotune[%s]: %zu candidates, best=%s (%s %.6g, %.3gx better "
        "than default)",
        tuneObjectiveName(objective), candidates.size(),
        best().options.toString().c_str(), tuneObjectiveName(objective),
        best().objectiveValue(objective), speedupOverDefault());
    if (budget.enabled()) {
        // Only the evaluation cap: the proxy-fidelity fields of the
        // budget are consumed by the explorer's halving rungs, never
        // by the tuner, so rendering them here would claim proxy
        // evaluations that did not happen.
        line += strformat(
            ", evaluated %lld (pruned %lld, budget evals<=%lld)",
            static_cast<long long>(evaluated_count),
            static_cast<long long>(pruned_count),
            static_cast<long long>(budget.max_full_evals));
    }
    return line;
}

std::optional<TuneCache::Entry>
TuneCache::lookup(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return std::nullopt;
    ++hits_;
    return it->second;
}

void
TuneCache::insert(const std::string &key, const Entry &entry)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // First insert wins; concurrent evaluators of the same key computed
    // identical values, so the choice does not matter.
    entries_.emplace(key, entry);
}

std::int64_t
TuneCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::size_t
TuneCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::string
evaluationDigest(const Graph &graph, const CimArchitecture &arch)
{
    ArtifactHash hash;
    hash.mix(graph.name())
        .mix(static_cast<std::int64_t>(graph.nodeCount()))
        .mix(graph.totalWeights())
        .mix(graph.totalMacs());
    for (NodeId id : graph.topoOrder()) {
        const Node &node = graph.node(id);
        const std::vector<std::int64_t> &dims =
            graph.tensor(node.output).dims;
        hash.mix(static_cast<std::int64_t>(node.kind))
            .mix(static_cast<std::int64_t>(node.inputs.size()))
            .mix(static_cast<std::int64_t>(dims.size()));
        for (std::int64_t dim : dims)
            hash.mix(dim);
    }
    return hash.mix(archToConfig(arch).dump(false)).digest();
}

std::string
evaluationKey(const std::string &digest, std::uint32_t encoding,
              const SearchFidelity &fidelity, const HostModel &host,
              bool lint, PerfEngineKind engine)
{
    ArtifactHash hash;
    hash.mix(digest)
        .mix(static_cast<std::int64_t>(encoding))
        .mix(fidelity.prefix_nodes)
        .mix(fidelity.forced_opt_none);
    if ((encoding & kHostOffloadBit) != 0)
        hash.mix(host.tag());
    return hash.mix(lint).mix(perfEngineName(engine)).digest();
}

ConfigValue
TuneCache::toConfig() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ConfigValue::Array rows;
    for (const auto &[key, entry] : entries_) {
        ConfigValue::Object row;
        row["key"] = ConfigValue::makeString(key);
        row["code"] = ConfigValue::makeNumber(
            static_cast<double>(static_cast<int>(entry.status.code())));
        if (!entry.status.isOk())
            row["message"] =
                ConfigValue::makeString(entry.status.message());
        row["latency_cycles"] =
            ConfigValue::makeNumber(entry.latency_cycles);
        row["energy_pj"] = ConfigValue::makeNumber(entry.energy_pj);
        row["edp"] = ConfigValue::makeNumber(entry.edp);
        rows.push_back(ConfigValue::makeObject(std::move(row)));
    }
    ConfigValue::Object doc;
    doc["schema"] = ConfigValue::makeString(kTuneCacheSchema);
    doc["entries"] = ConfigValue::makeArray(std::move(rows));
    return ConfigValue::makeObject(std::move(doc));
}

namespace {

/** The entries of a tune-cache document, or the first fault in it. */
StatusOr<std::map<std::string, TuneCache::Entry>>
tuneEntriesFromConfig(const ConfigValue &doc)
{
    if (!doc.isObject())
        return parseError("tune cache must be a kvjson object");
    std::string schema;
    CIMMLC_RETURN_IF_ERROR(
        readTypedMember("tune cache", doc, "schema", &schema));
    if (schema != kTuneCacheSchema)
        return parseError("tune cache has schema '" + schema
                          + "', expected '" + kTuneCacheSchema
                          + "' (stale file?)");
    auto rows = doc.get("entries");
    if (!rows.isOk() || !rows.value().isArray())
        return parseError("tune cache 'entries' must be an array");
    std::map<std::string, TuneCache::Entry> entries;
    for (const ConfigValue &row : rows.value().asArray()) {
        if (!row.isObject())
            return parseError("tune cache entry must be an object");
        std::string key;
        CIMMLC_RETURN_IF_ERROR(
            readRequiredMember("tune cache entry", row, "key", &key));
        const std::string surface = "tune cache entry '" + key + "'";
        TuneCache::Entry entry;
        CIMMLC_RETURN_IF_ERROR(
            readStatusMembers(surface, row, &entry.status));
        // Every metric must be present: a missing one would load as
        // 0.0 and poison every warm run with a zero-latency "best".
        CIMMLC_RETURN_IF_ERROR(readRequiredMember(
            surface, row, "latency_cycles", &entry.latency_cycles));
        CIMMLC_RETURN_IF_ERROR(
            readRequiredMember(surface, row, "energy_pj", &entry.energy_pj));
        CIMMLC_RETURN_IF_ERROR(
            readRequiredMember(surface, row, "edp", &entry.edp));
        entries[key] = entry;
    }
    return entries;
}

} // namespace

Status
TuneCache::loadFromConfig(const ConfigValue &doc)
{
    // Parse into a scratch map first: a document that fails halfway
    // must leave the cache cold, not half-populated with stale entries.
    auto loaded = tuneEntriesFromConfig(doc);
    std::lock_guard<std::mutex> lock(mutex_);
    if (!loaded.isOk()) {
        entries_.clear();
        return loaded.status();
    }
    entries_ = std::move(loaded).value();
    return Status::ok();
}

Status
TuneCache::saveToFile(const std::string &path) const
{
    // Atomic temp-file + rename: the daemon snapshots a live cache
    // while other processes may be loading the same path, and a torn
    // file would degrade every reader to a cold cache.
    return saveConfigFile(path, toConfig());
}

Status
TuneCache::loadFromFile(const std::string &path)
{
    auto doc = loadConfigFile(path);
    if (!doc.isOk()) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            entries_.clear();
        }
        return doc.status().withContext("tune cache");
    }
    return loadFromConfig(doc.value());
}

std::uint32_t
AutoTuner::encodeOptions(const ScheduleOptions &options)
{
    std::uint32_t encoding = 0;
    if (options.cg_duplication)
        encoding |= kCgDuplicationBit;
    if (options.cg_pipeline)
        encoding |= kCgPipelineBit;
    if (options.mvm_duplication)
        encoding |= kMvmDuplicationBit;
    if (options.mvm_pipeline)
        encoding |= kMvmPipelineBit;
    if (options.vvm_remap)
        encoding |= kVvmRemapBit;
    if (options.binding.bit_binding == XbarDim::kXB)
        encoding |= kBitsToCrossbarsBit;
    // Nearest lattice point from below; exact for the tuner's own
    // candidates, which only use kSegmentCaps values.
    std::uint32_t cap_index = 0;
    for (std::uint32_t i = 0; i < 4; ++i) {
        if (options.segment_max_nodes >= kSegmentCaps[i])
            cap_index = i;
    }
    if (options.segment_max_nodes <= 0)
        cap_index = 0;
    encoding |= cap_index << kSegmentCapShift;
    if (options.dual_mode)
        encoding |= kDualModeBit;
    if (options.host_offload)
        encoding |= kHostOffloadBit;
    return encoding;
}

ScheduleOptions
AutoTuner::decodeOptions(std::uint32_t encoding)
{
    ScheduleOptions options;
    options.cg_duplication = (encoding & kCgDuplicationBit) != 0;
    options.cg_pipeline = (encoding & kCgPipelineBit) != 0;
    options.mvm_duplication = (encoding & kMvmDuplicationBit) != 0;
    options.mvm_pipeline = (encoding & kMvmPipelineBit) != 0;
    options.vvm_remap = (encoding & kVvmRemapBit) != 0;
    options.binding = (encoding & kBitsToCrossbarsBit) != 0
                          ? DimensionBinding::bitsToCrossbars()
                          : DimensionBinding::bitsToColumns();
    options.segment_max_nodes =
        kSegmentCaps[(encoding & kSegmentCapMask) >> kSegmentCapShift];
    options.dual_mode = (encoding & kDualModeBit) != 0;
    options.host_offload = (encoding & kHostOffloadBit) != 0;
    return options;
}

std::vector<ScheduleOptions>
AutoTuner::enumerateCandidates(ComputeMode mode)
{
    const std::uint32_t forbidden = forbiddenBits(mode);
    std::vector<ScheduleOptions> candidates;
    for (std::uint32_t encoding = 0; encoding < kEncodingSpace;
         ++encoding) {
        if ((encoding & forbidden) != 0)
            continue;
        candidates.push_back(decodeOptions(encoding));
    }
    return candidates;
}

StatusOr<TuneResult>
AutoTuner::tune(const Graph &graph, const CimArchitecture &arch) const
{
    TuneResult result;
    result.objective = config_.objective;

    const std::uint32_t default_encoding =
        encodeOptions(clampOptionsToMode(ScheduleOptions{}, arch.mode));
    for (const ScheduleOptions &options :
         enumerateCandidates(arch.mode)) {
        TuneCandidate candidate;
        candidate.encoding = encodeOptions(options);
        candidate.options = options;
        if (candidate.encoding == default_encoding)
            result.default_index = result.candidates.size();
        result.candidates.push_back(candidate);
    }

    CandidatePricer pricer(graph, arch, config_.host_model, config_.cache);
    FanOut fan_out(config_.threads);
    // Prices @p indices with one fan-out index per CG group.
    auto price = [&](const std::vector<std::size_t> &indices) {
        std::map<std::uint32_t, std::vector<std::size_t>> by_cg_key;
        for (std::size_t index : indices)
            by_cg_key[result.candidates[index].encoding & kCgKeyMask]
                .push_back(index);
        std::vector<std::vector<std::size_t>> groups;
        groups.reserve(by_cg_key.size());
        for (auto &entry : by_cg_key)
            groups.push_back(std::move(entry.second));
        fan_out.run(groups.size(), [&](std::size_t group) {
            pricer.priceGroup(result.candidates, groups[group]);
        });
    };

    result.budget = config_.budget;
    if (!config_.budget.enabled()) {
        // Exhaustive reference path, byte-identical to the pre-budget
        // tuner; the differential suite compares the budgeted engine
        // against it.
        std::vector<std::size_t> all(result.candidates.size());
        std::iota(all.begin(), all.end(), std::size_t{0});
        price(all);
        result.evaluated_count =
            static_cast<std::int64_t>(result.candidates.size());
    } else {
        // Budgeted path: deterministic waves by ascending enabled-knob
        // count (then encoding — candidates are already in encoding
        // order). Prune decisions for a wave read only completed
        // waves, so the evaluated set — and with it every byte of the
        // report — is independent of thread count. Candidates in one
        // wave never relate in the knob-subset order (a proper subset
        // has strictly fewer knobs), so intra-wave parallelism cannot
        // change any decision.
        std::map<int, std::vector<std::size_t>> waves;
        for (std::size_t i = 0; i < result.candidates.size(); ++i) {
            const std::uint32_t knobs =
                result.candidates[i].encoding & kTuneKnobMask;
            waves[std::popcount(knobs)].push_back(i);
        }
        DominancePruner pruner(
            KnobSubsetOrder(kTuneKnobMask, kTuneContextMask));
        const std::int64_t cap = config_.budget.max_full_evals;
        std::int64_t evaluated = 0;
        // One budget slot stays reserved for the default configuration
        // (the speedup-over-default baseline of every report) until its
        // wave schedules it, so the cap is never overrun.
        bool default_pending = true;
        for (auto &[knob_count, wave] : waves) {
            (void)knob_count;
            std::vector<std::size_t> to_eval;
            for (std::size_t index : wave) {
                TuneCandidate &candidate = result.candidates[index];
                const bool is_default =
                    candidate.encoding == default_encoding;
                if (is_default) {
                    default_pending = false;
                } else {
                    if (auto culprit =
                            pruner.shouldPrune(candidate.encoding)) {
                        candidate.pruned = true;
                        candidate.status = failedPrecondition(strformat(
                            "pruned: knob subset 0x%02x already "
                            "regressed every objective",
                            *culprit));
                        continue;
                    }
                    if (evaluated
                            + static_cast<std::int64_t>(to_eval.size())
                            + (default_pending ? 1 : 0)
                        >= cap) {
                        candidate.pruned = true;
                        candidate.status = failedPrecondition(strformat(
                            "pruned: search budget (%lld evaluations) "
                            "exhausted",
                            static_cast<long long>(cap)));
                        continue;
                    }
                }
                to_eval.push_back(index);
            }
            price(to_eval);
            evaluated += static_cast<std::int64_t>(to_eval.size());
            for (std::size_t index : to_eval) {
                const TuneCandidate &candidate = result.candidates[index];
                pruner.record(candidate.encoding,
                              MetricPoint{candidate.latency_cycles,
                                          candidate.energy_pj},
                              candidate.status.isOk());
            }
        }
        result.evaluated_count = evaluated;
        result.pruned_count =
            static_cast<std::int64_t>(result.candidates.size())
            - evaluated;
    }
    result.cache_hits = pricer.cacheHits();

    // Objective minimum with stable tie-breaking: candidates are in
    // ascending encoding order; ties on the objective fall back to EDP
    // (so e.g. an energy-tied field still picks the fastest config) and
    // then to the lowest encoding. Only strictly better keys move the
    // choice, so the winner is independent of evaluation timing.
    bool found = false;
    double best_value = std::numeric_limits<double>::infinity();
    double best_edp = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < result.candidates.size(); ++i) {
        const TuneCandidate &candidate = result.candidates[i];
        if (!candidate.status.isOk())
            continue;
        const double value =
            candidate.objectiveValue(config_.objective);
        if (!found || value < best_value
            || (value == best_value && candidate.edp < best_edp)) {
            found = true;
            best_value = value;
            best_edp = candidate.edp;
            result.best_index = i;
        }
    }
    if (!found)
        return result.candidates.front().status.withContext(
            "autotune: no feasible candidate for '" + graph.name()
            + "' on '" + arch.name + "'");
    return result;
}

} // namespace cimmlc

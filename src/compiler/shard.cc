#include "compiler/shard.h"

#include <map>

#include "arch/serialize.h"
#include "cache/artifact_cache.h"
#include "common/strutil.h"

namespace cimmlc {

namespace {

ConfigValue
number(double v)
{
    return ConfigValue::makeNumber(v);
}

ConfigValue
number(std::int64_t v)
{
    return ConfigValue::makeNumber(static_cast<double>(v));
}

ConfigValue
text(std::string v)
{
    return ConfigValue::makeString(std::move(v));
}

ConfigValue
statusToConfig(const Status &status)
{
    ConfigValue::Object doc;
    doc["code"] = number(static_cast<std::int64_t>(status.code()));
    doc["message"] = text(status.message());
    return ConfigValue::makeObject(std::move(doc));
}

/** Reads the "status" object of shard entry @p row. */
Status
statusFromConfig(const std::string &surface, const ConfigValue &row,
                 Status *out)
{
    if (!row.has("status") || !row.asObject().at("status").isObject())
        return parseError(surface + " key 'status' must be an object");
    return readStatusMembers(surface + " status",
                             row.asObject().at("status"), out);
}

ConfigValue
perfToConfig(const PerfReport &perf)
{
    ConfigValue::Object doc;
    doc["engine"] = text(perfEngineName(perf.engine));
    doc["latency_cycles"] = number(perf.latency_cycles);
    doc["reload_cycles"] = number(perf.reload_cycles);
    doc["xbar_pj"] = number(perf.energy.xbar_pj);
    doc["adc_dac_pj"] = number(perf.energy.adc_dac_pj);
    doc["movement_pj"] = number(perf.energy.movement_pj);
    doc["alu_pj"] = number(perf.energy.alu_pj);
    doc["write_pj"] = number(perf.energy.write_pj);
    doc["peak_power_mw"] = number(perf.peak_power_mw);
    doc["avg_power_mw"] = number(perf.avg_power_mw);
    doc["peak_active_xbs"] = number(perf.peak_active_xbs);
    doc["crossbars_mapped"] = number(perf.crossbars_mapped);
    doc["crossbar_utilization"] = number(perf.crossbar_utilization);
    doc["stall_cycles"] = number(perf.stall_cycles);
    return ConfigValue::makeObject(std::move(doc));
}

/** Reads the "perf" object of shard entry @p row. */
StatusOr<PerfReport>
perfFromConfig(const std::string &entry, const ConfigValue &row)
{
    if (!row.has("perf") || !row.asObject().at("perf").isObject())
        return parseError(entry + " key 'perf' must be an object");
    const ConfigValue &doc = row.asObject().at("perf");
    const std::string surface = entry + " perf";
    PerfReport perf;
    std::string engine;
    CIMMLC_RETURN_IF_ERROR(readRequiredMember(surface, doc, "engine", &engine));
    CIMMLC_ASSIGN_OR_RETURN(perf.engine, parsePerfEngineKind(engine));
    const std::pair<const char *, double *> numbers[] = {
        {"latency_cycles", &perf.latency_cycles},
        {"reload_cycles", &perf.reload_cycles},
        {"xbar_pj", &perf.energy.xbar_pj},
        {"adc_dac_pj", &perf.energy.adc_dac_pj},
        {"movement_pj", &perf.energy.movement_pj},
        {"alu_pj", &perf.energy.alu_pj},
        {"write_pj", &perf.energy.write_pj},
        {"peak_power_mw", &perf.peak_power_mw},
        {"avg_power_mw", &perf.avg_power_mw},
        {"crossbar_utilization", &perf.crossbar_utilization},
        {"stall_cycles", &perf.stall_cycles}};
    for (const auto &[key, out] : numbers)
        CIMMLC_RETURN_IF_ERROR(readRequiredMember(surface, doc, key, out));
    CIMMLC_RETURN_IF_ERROR(readRequiredMember(surface, doc, "peak_active_xbs",
                                              &perf.peak_active_xbs));
    CIMMLC_RETURN_IF_ERROR(readRequiredMember(
        surface, doc, "crossbars_mapped", &perf.crossbars_mapped));
    return perf;
}

/** Reads the "index" of shard entry @p row, checked against @p units. */
StatusOr<std::size_t>
entryIndex(const std::string &path, const ConfigValue &row,
           std::size_t units)
{
    const std::string surface = "shard file '" + path + "' entry";
    if (!row.isObject())
        return parseError(surface + " must be an object");
    std::int64_t index = -1;
    CIMMLC_RETURN_IF_ERROR(readRequiredMember(surface, row, "index", &index));
    if (index < 0 || index >= static_cast<std::int64_t>(units))
        return parseError(strformat("'%s' entry index %lld out of range",
                                    path.c_str(),
                                    static_cast<long long>(index)));
    return static_cast<std::size_t>(index);
}

/** Shared shard-file envelope checks; returns the entries array. */
StatusOr<ConfigValue>
openShardFile(const std::string &path, const char *schema,
              const std::string &digest, std::size_t expected_units,
              std::vector<bool> &shard_seen)
{
    CIMMLC_ASSIGN_OR_RETURN(const ConfigValue doc, loadConfigFile(path));
    const std::string surface = "shard file '" + path + "'";
    std::string file_schema;
    if (doc.isObject())
        CIMMLC_RETURN_IF_ERROR(
            readTypedMember(surface, doc, "schema", &file_schema));
    if (file_schema != schema)
        return parseError("'" + path + "' is not a " + schema
                          + " shard file");
    std::string file_digest;
    std::int64_t shards = 0;
    std::int64_t shard = 0;
    std::int64_t units = 0;
    CIMMLC_RETURN_IF_ERROR(
        readRequiredMember(surface, doc, "spec_digest", &file_digest));
    CIMMLC_RETURN_IF_ERROR(readRequiredMember(surface, doc, "shards", &shards));
    CIMMLC_RETURN_IF_ERROR(readRequiredMember(surface, doc, "shard", &shard));
    CIMMLC_RETURN_IF_ERROR(readRequiredMember(surface, doc, "units", &units));
    if (file_digest != digest)
        return invalidArgument(
            "'" + path
            + "' was produced from a different sweep spec (digest "
              "mismatch); all shards must run the same spec");
    if (shards != static_cast<std::int64_t>(shard_seen.size()))
        return invalidArgument(strformat(
            "'%s' says %lld shards, but %zu shard files were given",
            path.c_str(), static_cast<long long>(shards),
            shard_seen.size()));
    if (shard < 0 || shard >= shards)
        return parseError(
            strformat("'%s' has bad shard index %lld/%lld", path.c_str(),
                      static_cast<long long>(shard),
                      static_cast<long long>(shards)));
    if (shard_seen[static_cast<std::size_t>(shard)])
        return invalidArgument(
            strformat("shard %lld appears twice in the merge set",
                      static_cast<long long>(shard)));
    shard_seen[static_cast<std::size_t>(shard)] = true;
    if (units != static_cast<std::int64_t>(expected_units))
        return invalidArgument(
            "'" + path + "' disagrees on the sweep's work-unit count");
    CIMMLC_ASSIGN_OR_RETURN(const ConfigValue entries,
                            doc.get("entries"));
    if (!entries.isArray())
        return parseError("'" + path + "' entries must be an array");
    return entries;
}

} // namespace

// ----- ShardSpec ------------------------------------------------------------

Status
ShardSpec::validate() const
{
    if (count < 1)
        return invalidArgument("shard count must be >= 1");
    if (index < 0 || index >= count)
        return invalidArgument(strformat(
            "shard index %d out of range for %d shards", index, count));
    return Status::ok();
}

StatusOr<ShardSpec>
parseShardSpec(const std::string &spec_text)
{
    const std::string trimmed{trim(spec_text)};
    const std::size_t slash = trimmed.find('/');
    const auto parse_int = [](const std::string &part,
                              int *out) -> bool {
        if (part.empty())
            return false;
        int value = 0;
        for (char c : part) {
            if (c < '0' || c > '9' || value > 1000000)
                return false;
            value = value * 10 + (c - '0');
        }
        *out = value;
        return true;
    };
    ShardSpec shard;
    if (slash == std::string::npos
        || !parse_int(trimmed.substr(0, slash), &shard.index)
        || !parse_int(trimmed.substr(slash + 1), &shard.count))
        return invalidArgument("bad shard spec '" + spec_text
                               + "' (expected I/N, e.g. 0/4)");
    CIMMLC_RETURN_IF_ERROR(shard.validate());
    return shard;
}

// ----- batch sharding -------------------------------------------------------

std::string
batchSweepDigest(const BatchSweep &sweep)
{
    ArtifactHash hash;
    hash.mix("cimmlc.batchshard.v1");
    hash.mix(static_cast<std::int64_t>(sweep.jobs.size()));
    for (const BatchJob &job : sweep.jobs) {
        hash.mix(job.model);
        hash.mix(job.arch);
    }
    const RpcCompileRequest &knobs = sweep.knobs;
    hash.mix(knobs.scheduleOptions().value().toString());
    hash.mix(knobs.tune);
    hash.mix(tuneObjectiveName(parseTuneObjective(knobs.objective).value()));
    hash.mix(sweep.budget.toString());
    hash.mix(knobs.lint || knobs.lint_strict);
    hash.mix(knobs.lint_strict);
    hash.mix(perfEngineName(parsePerfEngineKind(knobs.perf_engine).value()));
    return hash.digest();
}

ConfigValue
batchShardToConfig(const BatchSweep &sweep, const ShardSpec &shard,
                   const std::vector<std::size_t> &indices,
                   const std::vector<BatchEntry> &entries)
{
    ConfigValue::Object doc;
    doc["schema"] = text(kBatchShardSchema);
    doc["spec_digest"] = text(batchSweepDigest(sweep));
    doc["shard"] = number(static_cast<std::int64_t>(shard.index));
    doc["shards"] = number(static_cast<std::int64_t>(shard.count));
    doc["units"] = number(static_cast<std::int64_t>(sweep.jobs.size()));
    ConfigValue::Array rows;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const BatchEntry &entry = entries[i];
        ConfigValue::Object row;
        row["index"] = number(static_cast<std::int64_t>(indices[i]));
        row["model"] = text(entry.job.model);
        row["arch"] = text(entry.job.arch);
        row["status"] = statusToConfig(entry.status);
        row["nodes"] = number(entry.nodes);
        row["weights"] = number(entry.weights);
        row["flow_statements"] = number(entry.flow_statements);
        row["config"] = text(entry.config);
        row["tuned"] = ConfigValue::makeBool(entry.tuned);
        row["lint_errors"] = number(entry.lint_errors);
        row["lint_warnings"] = number(entry.lint_warnings);
        if (entry.status.isOk())
            row["perf"] = perfToConfig(entry.perf);
        rows.push_back(ConfigValue::makeObject(std::move(row)));
    }
    doc["entries"] = ConfigValue::makeArray(std::move(rows));
    return ConfigValue::makeObject(std::move(doc));
}

StatusOr<BatchResult>
mergeBatchShards(const BatchSweep &sweep,
                 const std::vector<std::string> &paths)
{
    if (paths.empty())
        return invalidArgument("merge needs at least one shard file");
    const std::string digest = batchSweepDigest(sweep);
    BatchResult result;
    result.entries.resize(sweep.jobs.size());
    std::vector<bool> filled(sweep.jobs.size(), false);
    std::vector<bool> shard_seen(paths.size(), false);

    for (const std::string &path : paths) {
        CIMMLC_ASSIGN_OR_RETURN(
            const ConfigValue entries,
            openShardFile(path, kBatchShardSchema, digest,
                          sweep.jobs.size(), shard_seen));
        for (const ConfigValue &row : entries.asArray()) {
            CIMMLC_ASSIGN_OR_RETURN(
                const std::size_t at,
                entryIndex(path, row, sweep.jobs.size()));
            if (filled[at])
                return invalidArgument(strformat(
                    "job %zu appears in more than one shard", at));
            filled[at] = true;

            const std::string surface =
                strformat("shard file '%s' entry %zu", path.c_str(), at);
            BatchEntry &entry = result.entries[at];
            CIMMLC_RETURN_IF_ERROR(readRequiredMember(surface, row, "model",
                                                      &entry.job.model));
            CIMMLC_RETURN_IF_ERROR(
                readRequiredMember(surface, row, "arch", &entry.job.arch));
            if (entry.job.model != sweep.jobs[at].model
                || entry.job.arch != sweep.jobs[at].arch)
                return invalidArgument(strformat(
                    "'%s' entry %zu names job '%s x %s', spec says "
                    "'%s x %s'",
                    path.c_str(), at, entry.job.model.c_str(),
                    entry.job.arch.c_str(), sweep.jobs[at].model.c_str(),
                    sweep.jobs[at].arch.c_str()));
            CIMMLC_RETURN_IF_ERROR(
                statusFromConfig(surface, row, &entry.status));
            const std::pair<const char *, std::int64_t *> counts[] = {
                {"nodes", &entry.nodes},
                {"weights", &entry.weights},
                {"flow_statements", &entry.flow_statements},
                {"lint_errors", &entry.lint_errors},
                {"lint_warnings", &entry.lint_warnings}};
            for (const auto &[key, out] : counts)
                CIMMLC_RETURN_IF_ERROR(
                    readRequiredMember(surface, row, key, out));
            CIMMLC_RETURN_IF_ERROR(
                readRequiredMember(surface, row, "config", &entry.config));
            CIMMLC_RETURN_IF_ERROR(
                readRequiredMember(surface, row, "tuned", &entry.tuned));
            if (entry.status.isOk()) {
                CIMMLC_ASSIGN_OR_RETURN(entry.perf,
                                        perfFromConfig(surface, row));
            }
        }
    }

    for (std::size_t i = 0; i < filled.size(); ++i) {
        if (!filled[i])
            return invalidArgument(strformat(
                "job %zu ('%s x %s') is covered by no shard file", i,
                sweep.jobs[i].model.c_str(), sweep.jobs[i].arch.c_str()));
    }
    return result;
}

// ----- arch-dse sharding ----------------------------------------------------

std::string
dseSpecDigest(const DseSpec &spec)
{
    ArtifactHash hash;
    hash.mix("cimmlc.dseshard.v1");
    hash.mix(spec.model);
    hash.mix(spec.model_file);
    hash.mix(spec.model_text);
    hash.mix(archToConfig(spec.base_arch).dump(false));
    const RpcCompileRequest &knobs = spec.knobs;
    hash.mix(knobs.scheduleOptions().value().toString());
    hash.mix(knobs.tune);
    hash.mix(tuneObjectiveName(parseTuneObjective(knobs.objective).value()));
    hash.mix(knobs.lint || knobs.lint_strict);
    hash.mix(perfEngineName(parsePerfEngineKind(knobs.perf_engine).value()));
    hash.mix(spec.budget.toString());
    hash.mix(static_cast<std::int64_t>(spec.sweep.axes.size()));
    for (const ArchAxis &axis : spec.sweep.axes) {
        hash.mix(archParamName(axis.param));
        hash.mix(static_cast<std::int64_t>(axis.values.size()));
        for (const ArchParamValue &value : axis.values)
            hash.mix(archParamValueToString(axis.param, value));
    }
    return hash.digest();
}

ConfigValue
dseShardToConfig(const DseSpec &spec, const ShardSpec &shard,
                 const DseResult &partial)
{
    ConfigValue::Object doc;
    doc["schema"] = text(kDseShardSchema);
    doc["spec_digest"] = text(dseSpecDigest(spec));
    doc["shard"] = number(static_cast<std::int64_t>(shard.index));
    doc["shards"] = number(static_cast<std::int64_t>(shard.count));
    doc["units"] =
        number(static_cast<std::int64_t>(spec.sweep.candidateCount()));
    ConfigValue::Array rows;
    for (const DseCandidate &candidate : partial.candidates) {
        if (!shard.owns(candidate.index))
            continue;
        ConfigValue::Object row;
        row["index"] =
            number(static_cast<std::int64_t>(candidate.index));
        row["status"] = statusToConfig(candidate.status);
        row["latency_cycles"] = number(candidate.latency_cycles);
        row["energy_pj"] = number(candidate.energy_pj);
        row["edp"] = number(candidate.edp);
        row["config"] = text(candidate.config);
        rows.push_back(ConfigValue::makeObject(std::move(row)));
    }
    doc["entries"] = ConfigValue::makeArray(std::move(rows));
    return ConfigValue::makeObject(std::move(doc));
}

StatusOr<DseResult>
mergeDseShards(const DseSpec &spec, const std::vector<std::string> &paths)
{
    CIMMLC_RETURN_IF_ERROR(validateSpecForSharding(spec));
    if (paths.empty())
        return invalidArgument("merge needs at least one shard file");

    // Labels, params, and candidate geometry never travel in shard
    // files — the merged result re-enumerates them from the spec, the
    // same deterministic row-major order every shard used.
    const ArchExplorer explorer(spec);
    CIMMLC_ASSIGN_OR_RETURN(const Graph graph, explorer.loadWorkload());
    CIMMLC_ASSIGN_OR_RETURN(DseResult result, explorer.blankResult(graph));
    CIMMLC_ASSIGN_OR_RETURN(const ScheduleOptions options,
                            spec.knobs.scheduleOptions());

    // The single-process dedup keys exactly the candidates whose
    // *enumerated* geometry validated; remember that set before shard
    // results overwrite status with evaluation outcomes.
    std::vector<bool> keyed(result.candidates.size(), false);
    for (const DseCandidate &candidate : result.candidates)
        keyed[candidate.index] = candidate.status.isOk();

    const std::string digest = dseSpecDigest(spec);
    std::vector<bool> filled(result.candidates.size(), false);
    std::vector<bool> shard_seen(paths.size(), false);
    for (const std::string &path : paths) {
        CIMMLC_ASSIGN_OR_RETURN(
            const ConfigValue entries,
            openShardFile(path, kDseShardSchema, digest,
                          result.candidates.size(), shard_seen));
        for (const ConfigValue &row : entries.asArray()) {
            CIMMLC_ASSIGN_OR_RETURN(
                const std::size_t at,
                entryIndex(path, row, result.candidates.size()));
            if (filled[at])
                return invalidArgument(strformat(
                    "candidate %zu appears in more than one shard", at));
            filled[at] = true;
            const std::string surface =
                strformat("shard file '%s' entry %zu", path.c_str(), at);
            DseCandidate &candidate = result.candidates[at];
            CIMMLC_RETURN_IF_ERROR(
                statusFromConfig(surface, row, &candidate.status));
            CIMMLC_RETURN_IF_ERROR(readRequiredMember(
                surface, row, "latency_cycles", &candidate.latency_cycles));
            CIMMLC_RETURN_IF_ERROR(readRequiredMember(
                surface, row, "energy_pj", &candidate.energy_pj));
            CIMMLC_RETURN_IF_ERROR(
                readRequiredMember(surface, row, "edp", &candidate.edp));
            CIMMLC_RETURN_IF_ERROR(readRequiredMember(
                surface, row, "config", &candidate.config));
        }
    }
    for (std::size_t i = 0; i < filled.size(); ++i) {
        // Structurally invalid candidates (enumerate() marked them) are
        // not evaluated by any shard; everything else must be covered.
        if (!filled[i] && keyed[i])
            return invalidArgument(strformat(
                "candidate %zu is covered by no shard file", i));
    }

    // Replay the single-process duplicate-point dedup so the merged
    // hit accounting matches a cold single-process run byte for byte:
    // there, only the first occurrence of an aliased sweep point is
    // evaluated and every later one counts as a cache hit.
    std::map<std::string, std::size_t> first_of_key;
    std::int64_t duplicate_hits = 0;
    std::int64_t unique_keys = 0;
    for (DseCandidate &candidate : result.candidates) {
        if (!keyed[candidate.index])
            continue; // structurally invalid, never keyed
        auto [it, inserted] = first_of_key.emplace(
            evaluationKey(evaluationDigest(graph, candidate.arch),
                          AutoTuner::encodeOptions(options), {},
                          HostModel{}, result.lint, result.perf_engine),
            candidate.index);
        if (inserted) {
            ++unique_keys;
        } else {
            const DseCandidate &source = result.candidates[it->second];
            candidate.status = source.status;
            candidate.latency_cycles = source.latency_cycles;
            candidate.energy_pj = source.energy_pj;
            candidate.edp = source.edp;
            candidate.config = source.config;
            ++duplicate_hits;
        }
    }
    result.cache_hits = duplicate_hits;
    result.cache_entries = unique_keys;
    result.full_evals = unique_keys;
    result.proxy_evals = 0;
    result.rung_sizes = {unique_keys};

    CIMMLC_RETURN_IF_ERROR(result.markFront("arch-dse merge"));
    return result;
}

} // namespace cimmlc

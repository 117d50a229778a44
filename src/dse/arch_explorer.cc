#include "dse/arch_explorer.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <optional>

#include "arch/presets.h"
#include "common/strutil.h"
#include "common/table.h"
#include "common/threadpool.h"
#include "compiler/session.h"
#include "graph/models.h"
#include "graph/serialize.h"
#include "search/dominance.h"
#include "search/halving.h"

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

/**
 * Prices one candidate with @p full, the request of every full
 * evaluation but its arch. @p key is its evaluationKey from explore()'s
 * dedup pass — the memo key for runs at the fixed @p options.
 */
void
evaluateCandidate(const CompileRequest &full, const ScheduleOptions &options,
                  DseCandidate &candidate, const std::string &key,
                  TuneCache *cache,
                  std::atomic<std::int64_t> &cache_hits)
{
    // Fixed-options candidates share the tuner's evaluation keys for
    // cross-process memoization; spec options always come from a named
    // --opt level, which the encoding represents exactly. Duplicate
    // sweep points were deduplicated by explore(), so this lookup only
    // ever sees the pre-run cache state and the hit count cannot depend
    // on evaluation timing.
    if (!full.tune && cache != nullptr) {
        if (auto hit = cache->lookup(key)) {
            candidate.status = hit->status;
            candidate.latency_cycles = hit->latency_cycles;
            candidate.energy_pj = hit->energy_pj;
            candidate.edp = hit->edp;
            candidate.config = options.toString();
            cache_hits.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }

    auto fill = [&]() -> Status {
        CompileRequest request = full;
        request.arch_ref = &candidate.arch;
        CompilerSession session(std::move(request));
        CIMMLC_ASSIGN_OR_RETURN(const CompileArtifacts artifacts,
                                session.run());
        candidate.latency_cycles = artifacts.perf->latency_cycles;
        candidate.energy_pj = artifacts.perf->energy.total();
        candidate.edp = candidate.latency_cycles * candidate.energy_pj;
        candidate.tuned = artifacts.tuned;
        candidate.config = artifacts.options.toString();
        if (artifacts.tune.has_value())
            cache_hits.fetch_add(artifacts.tune->cache_hits,
                                 std::memory_order_relaxed);
        return Status::ok();
    };
    candidate.status = fill();
    if (!candidate.status.isOk())
        candidate.config = options.toString();

    if (!full.tune && cache != nullptr) {
        cache->insert(key,
                      TuneCache::Entry{candidate.status,
                                       candidate.latency_cycles,
                                       candidate.energy_pj,
                                       candidate.edp});
    }
}

/**
 * Prices one candidate on the cheap proxy stage of a halving rung:
 * the fixed @p options or forced `opt=none`, and/or a topological
 * workload prefix, routed through the same staged CompilerSession as a
 * full evaluation. @p key has the fidelity in it, so proxy entries in a
 * shared TuneCache can never alias full evaluations. @p session_runs
 * counts actual (non-memoized) session executions for the report.
 */
void
evaluateProxy(const Graph &graph, const ScheduleOptions &options,
              DseCandidate &candidate, const SearchFidelity &fidelity,
              const std::string &key, TuneCache *cache,
              std::atomic<std::int64_t> &cache_hits,
              std::atomic<std::int64_t> &session_runs)
{
    candidate.proxied = true;
    if (cache != nullptr) {
        if (auto hit = cache->lookup(key)) {
            candidate.status = hit->status;
            candidate.proxy_latency_cycles = hit->latency_cycles;
            candidate.proxy_energy_pj = hit->energy_pj;
            cache_hits.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }

    auto fill = [&]() -> Status {
        CompileRequest request;
        request.graph = &graph;
        request.arch_ref = &candidate.arch;
        // Proxies price the fixed options, untuned and unlinted, with
        // the closed-form model: when the spec selects the event
        // engine, the analytic model itself is the cheap fidelity rung
        // below it.
        request.options =
            fidelity.forced_opt_none ? ScheduleOptions::none() : options;
        request.workload_prefix_nodes = fidelity.prefix_nodes;
        request.threads = 1;
        request.outputs.flow = false;
        request.stop_after = CompileStage::kPerf;
        CompilerSession session(std::move(request));
        CIMMLC_ASSIGN_OR_RETURN(const CompileArtifacts artifacts,
                                session.run());
        candidate.proxy_latency_cycles = artifacts.perf->latency_cycles;
        candidate.proxy_energy_pj = artifacts.perf->energy.total();
        return Status::ok();
    };
    candidate.status = fill();
    session_runs.fetch_add(1, std::memory_order_relaxed);

    if (cache != nullptr) {
        cache->insert(
            key, TuneCache::Entry{candidate.status,
                                  candidate.proxy_latency_cycles,
                                  candidate.proxy_energy_pj,
                                  candidate.proxy_latency_cycles
                                      * candidate.proxy_energy_pj});
    }
}

} // namespace

// ----- spec parsing ---------------------------------------------------------

StatusOr<DseSpec>
dseSpecFromConfig(const ConfigValue &doc)
{
    if (!doc.isObject())
        return parseError("DSE spec must be a kvjson object");

    DseSpec spec;
    std::string arch, arch_file, arch_text;
    const std::pair<const char *, std::string *> sources[] = {
        {"model", &spec.model},   {"model_file", &spec.model_file},
        {"model_text", &spec.model_text}, {"arch", &arch},
        {"arch_file", &arch_file}, {"arch_text", &arch_text}};
    std::vector<std::string> surface_keys = {"sweep", "threads", "budget"};
    for (const auto &[key, target] : sources) {
        surface_keys.push_back(key);
        CIMMLC_RETURN_IF_ERROR(readTypedMember("DSE spec", doc, key, target));
    }
    CIMMLC_RETURN_IF_ERROR(
        readFileKnobs(doc, "DSE spec", surface_keys, spec.knobs));

    int workload_sources = (spec.model.empty() ? 0 : 1)
                           + (spec.model_file.empty() ? 0 : 1)
                           + (spec.model_text.empty() ? 0 : 1);
    if (workload_sources == 0)
        return parseError("DSE spec needs a workload (set one of "
                          "model, model_file, model_text)");
    if (workload_sources > 1)
        return parseError("DSE spec has conflicting workload sources; "
                          "set exactly one of model, model_file, "
                          "model_text");

    int arch_sources = (arch.empty() ? 0 : 1) + (arch_file.empty() ? 0 : 1)
                       + (arch_text.empty() ? 0 : 1);
    if (arch_sources > 1)
        return parseError("DSE spec has conflicting architecture "
                          "sources; set at most one of arch, arch_file, "
                          "arch_text");
    if (!arch_file.empty()) {
        CIMMLC_ASSIGN_OR_RETURN(spec.base_arch, archFromFile(arch_file));
    } else if (!arch_text.empty()) {
        CIMMLC_ASSIGN_OR_RETURN(spec.base_arch, archFromText(arch_text));
    } else {
        CIMMLC_ASSIGN_OR_RETURN(
            spec.base_arch,
            presets::byName(arch.empty() ? "isaac-baseline" : arch));
    }

    CIMMLC_RETURN_IF_ERROR(
        readTypedMember("DSE spec", doc, "threads", &spec.threads));
    if (spec.threads < 0 || spec.threads > kMaxThreads)
        return parseError(strformat("DSE spec 'threads' must be in [0, %d]",
                                    kMaxThreads));

    if (doc.has("budget")) {
        auto budget = searchBudgetFromConfig(doc.get("budget").value());
        if (!budget.isOk())
            return budget.status().withContext("DSE spec 'budget'");
        // DSE budgets drive halving, so the proxy stage must be
        // genuinely cheaper than full fidelity; fail at parse time
        // rather than deep inside explore(). With the event engine the
        // closed-form proxy is cheaper by construction, so degenerate
        // proxy settings are still a valid ladder there.
        if (parsePerfEngineKind(spec.knobs.perf_engine).value()
            != PerfEngineKind::kEvent) {
            const Status halving = budget.value().validateForHalving();
            if (!halving.isOk())
                return halving.withContext("DSE spec 'budget'");
        }
        spec.budget = budget.value();
    }

    if (!doc.has("sweep"))
        return parseError("DSE spec needs a 'sweep' object (the "
                          "Abs-arch parameters to search)");
    CIMMLC_ASSIGN_OR_RETURN(spec.sweep,
                            sweepSpecFromConfig(doc.get("sweep").value()));
    if (spec.sweep.axes.empty())
        return parseError("DSE spec 'sweep' must vary at least one "
                          "parameter");
    return spec;
}

StatusOr<DseSpec>
dseSpecFromText(const std::string &text)
{
    CIMMLC_ASSIGN_OR_RETURN(const ConfigValue doc, parseConfig(text));
    return dseSpecFromConfig(doc);
}

StatusOr<DseSpec>
dseSpecFromFile(const std::string &path)
{
    CIMMLC_ASSIGN_OR_RETURN(const ConfigValue doc, loadConfigFile(path));
    auto result = dseSpecFromConfig(doc);
    if (!result.isOk())
        return result.status().withContext(path);
    return result;
}

// ----- candidates and the front --------------------------------------------

double
DseCandidate::objectiveValue(TuneObjective objective) const
{
    switch (objective) {
      case TuneObjective::kLatency: return latency_cycles;
      case TuneObjective::kEnergy: return energy_pj;
      case TuneObjective::kEdp: return edp;
    }
    return std::numeric_limits<double>::infinity();
}

std::vector<std::size_t>
paretoFrontIndices(const std::vector<DseCandidate> &candidates)
{
    // Only fully evaluated points compete: proxy metrics steer halving
    // promotion but never earn front membership, which is what makes a
    // budgeted front a guaranteed subset of the full-evaluation set.
    std::vector<SearchPoint> points;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (!candidates[i].status.isOk() || !candidates[i].full_eval)
            continue;
        SearchPoint point;
        point.id = i;
        point.metrics = MetricPoint{candidates[i].latency_cycles,
                                    candidates[i].energy_pj};
        points.push_back(point);
    }
    const std::vector<std::size_t> ranks = paretoRanks(points);
    std::vector<std::size_t> front;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (ranks[i] == 0)
            front.push_back(points[i].id);
    }
    std::sort(front.begin(), front.end(),
              [&candidates](std::size_t a, std::size_t b) {
                  const DseCandidate &ca = candidates[a];
                  const DseCandidate &cb = candidates[b];
                  if (ca.latency_cycles != cb.latency_cycles)
                      return ca.latency_cycles < cb.latency_cycles;
                  if (ca.energy_pj != cb.energy_pj)
                      return ca.energy_pj < cb.energy_pj;
                  return ca.index < cb.index;
              });
    return front;
}

std::vector<DseCandidate>
ArchExplorer::enumerate() const
{
    const std::vector<ArchAxis> &axes = spec_.sweep.axes;
    const std::size_t total = spec_.sweep.candidateCount();
    std::vector<DseCandidate> candidates;
    candidates.reserve(total);
    // Row-major enumeration: the first axis varies slowest, so the
    // candidate index is a stable mixed-radix encoding of its choices.
    std::vector<std::size_t> choice(axes.size(), 0);
    for (std::size_t index = 0; index < total; ++index) {
        DseCandidate candidate;
        candidate.index = index;
        candidate.arch = spec_.base_arch;
        std::vector<std::string> parts;
        for (std::size_t a = 0; a < axes.size(); ++a) {
            const ArchParamValue &value = axes[a].values[choice[a]];
            const std::string rendered =
                archParamValueToString(axes[a].param, value);
            candidate.params.emplace_back(archParamName(axes[a].param),
                                          rendered);
            parts.push_back(std::string(archParamName(axes[a].param))
                            + "=" + rendered);
            if (candidate.status.isOk()) {
                candidate.status = applyArchParam(&candidate.arch,
                                                  axes[a].param, value);
            }
        }
        candidate.label = join(parts, " ");
        if (candidate.status.isOk())
            candidate.status = candidate.arch.validate();
        candidates.push_back(std::move(candidate));
        // Advance the mixed-radix counter, last axis fastest.
        for (std::size_t a = axes.size(); a-- > 0;) {
            if (++choice[a] < axes[a].values.size())
                break;
            choice[a] = 0;
        }
    }
    return candidates;
}

Status
validateSpecForSharding(const DseSpec &spec)
{
    // Named reasons, not just "not allowed": both rejections exist
    // because the search is globally adaptive, and the message says
    // which global decision a per-shard slice cannot reproduce.
    if (spec.budget.enabled())
        return invalidArgument(
            "arch-dse sharding requires an exhaustive spec: "
            "successive-halving promotion compares candidates across "
            "the whole sweep, which per-shard slices cannot reproduce "
            "(drop 'budget' / --search-budget)");
    if (spec.knobs.tune)
        return invalidArgument(
            "arch-dse sharding requires an untuned spec: per-candidate "
            "tuning shares one memo across the sweep, so shard-local "
            "caches would change the reported hit accounting "
            "(drop 'tune')");
    return Status::ok();
}

Status
ArchExplorer::restrictToShard(int shard, int count)
{
    if (count < 1 || shard < 0 || shard >= count)
        return invalidArgument(
            strformat("bad shard %d/%d: need 0 <= shard < count",
                      shard, count));
    CIMMLC_RETURN_IF_ERROR(validateSpecForSharding(spec_));
    shard_index_ = shard;
    shard_count_ = count;
    return Status::ok();
}

StatusOr<Graph>
ArchExplorer::loadWorkload() const
{
    if (!spec_.model.empty())
        return models::byNameChecked(spec_.model);
    if (!spec_.model_file.empty())
        return graphFromFile(spec_.model_file);
    return graphFromText(spec_.model_text);
}

StatusOr<DseResult>
ArchExplorer::blankResult(const Graph &graph) const
{
    DseResult result;
    CIMMLC_ASSIGN_OR_RETURN(result.objective,
                            parseTuneObjective(spec_.knobs.objective));
    CIMMLC_ASSIGN_OR_RETURN(result.perf_engine,
                            parsePerfEngineKind(spec_.knobs.perf_engine));
    result.workload = graph.name();
    result.nodes = static_cast<std::int64_t>(graph.nodeCount());
    result.weights = graph.totalWeights();
    result.base_arch = spec_.base_arch.name;
    result.tuned = spec_.knobs.tune;
    result.lint = spec_.knobs.lint || spec_.knobs.lint_strict;
    result.budget = spec_.budget;
    result.candidates = enumerate();
    return result;
}

StatusOr<DseResult>
ArchExplorer::explore(TuneCache *cache) const
{
    CIMMLC_ASSIGN_OR_RETURN(const Graph graph, loadWorkload());
    CIMMLC_ASSIGN_OR_RETURN(DseResult result, blankResult(graph));
    CIMMLC_ASSIGN_OR_RETURN(const ScheduleOptions options,
                            spec_.knobs.scheduleOptions());
    // Lint gates feasibility: the flow is emitted and linted strictly.
    // Candidate-level parallelism already fills the pool, so a tuned
    // candidate tunes serially (same discipline as runSweep).
    CompileRequest full;
    CIMMLC_RETURN_IF_ERROR(spec_.knobs.applyKnobs(full));
    full.graph = &graph;
    full.tune_cache = cache;
    full.threads = 1;
    full.outputs.flow = full.lint;
    full.lint_strict = full.lint;
    full.stop_after = CompileStage::kPerf;

    // Deduplicate sweep points that denote the same evaluation (e.g. a
    // scalar grid shorthand next to its [N, N] spelling): only the
    // first occurrence is evaluated, later ones copy its result and
    // count as memo hits. Without this, concurrent duplicates could
    // race past each other's cache insert and the report's hit count
    // would depend on thread timing.
    std::map<std::string, std::size_t> first_of_key;
    std::vector<std::size_t> unique;
    std::vector<std::string> digests(result.candidates.size());
    std::vector<std::string> keys(result.candidates.size());
    std::vector<std::size_t> copy_from(result.candidates.size(),
                                       result.candidates.size());
    const bool sharded = shard_count_ > 1;
    for (DseCandidate &candidate : result.candidates) {
        if (sharded
            && static_cast<int>(
                   candidate.index
                   % static_cast<std::size_t>(shard_count_))
                   != shard_index_) {
            // Another shard owns this candidate: leave it unevaluated
            // and out of this slice's front. Dedup below is then
            // shard-local; the merge replays the global pass.
            candidate.full_eval = false;
            continue;
        }
        if (!candidate.status.isOk())
            continue;
        // The arch identity alone for tuned runs (the tuner covers every
        // encoding); arch + the fixed options otherwise. Linted and
        // event-engine evaluations price differently from the plain
        // closed-form one, whose key a tuner candidate shares.
        digests[candidate.index] = evaluationDigest(graph, candidate.arch);
        keys[candidate.index] = evaluationKey(
            digests[candidate.index],
            result.tuned ? 0u : AutoTuner::encodeOptions(options), {},
            HostModel{}, result.lint, result.perf_engine);
        auto [it, inserted] =
            first_of_key.emplace(keys[candidate.index], candidate.index);
        if (inserted)
            unique.push_back(candidate.index);
        else
            copy_from[candidate.index] = it->second;
    }

    std::int64_t compute_nodes = 0;
    for (const Node &node : graph.nodes())
        if (node.kind != OpKind::kInput)
            ++compute_nodes;

    // The halving ladder over the unique evaluations: a disabled
    // budget yields the single-rung exhaustive schedule and the loop
    // below degenerates to the original full-fidelity sweep. A
    // prefix-only proxy over a single-compute-node workload cannot be
    // cheaper than full fidelity, so such runs degrade to exhaustive
    // too instead of paying every "proxy" rung at full session cost —
    // unless full fidelity means the event engine, where the
    // closed-form proxy is cheaper whatever the workload shape.
    const bool engine_rung = result.perf_engine == PerfEngineKind::kEvent;
    const bool proxy_can_cheapen = spec_.budget.proxy_opt_none
                                   || compute_nodes > 1 || engine_rung;
    CIMMLC_ASSIGN_OR_RETURN(
        const HalvingSchedule ladder,
        makeHalvingSchedule(static_cast<std::int64_t>(unique.size()),
                            spec_.budget.enabled() && proxy_can_cheapen
                                ? spec_.budget.max_full_evals
                                : 0));
    result.rung_sizes = ladder.rungs;
    const std::size_t proxy_rungs = ladder.proxyRungCount();
    // Re-check here, not just at spec parse: the CLI --search-budget
    // override can enable a budget whose spec-provided proxy settings
    // degenerate to full fidelity, which would turn every proxy rung
    // into an untagged full evaluation. Not needed on the engine rung:
    // proxies run closed-form below event-engine full evaluations, so
    // they are cheaper even at identical schedule fidelity.
    if (proxy_rungs > 0 && !engine_rung)
        CIMMLC_RETURN_IF_ERROR(spec_.budget.validateForHalving()
                                   .withContext("arch-dse budget"));

    std::atomic<std::int64_t> cache_hits{0};
    std::atomic<std::int64_t> proxy_runs{0};
    // Every survivor of a rung gets its own pre-assigned result slot,
    // so the parallel path is byte-identical to the serial one.
    FanOut fan_out(spec_.threads);

    std::vector<std::size_t> survivors = unique;
    if (proxy_rungs > 0) {
        // Budgeted run: nothing has full fidelity until the last rung
        // grants it.
        for (DseCandidate &candidate : result.candidates)
            candidate.full_eval = false;
        const std::uint32_t proxy_encoding =
            AutoTuner::encodeOptions(spec_.budget.proxy_opt_none
                                         ? ScheduleOptions::none()
                                         : options);
        std::optional<SearchFidelity> evaluated_fidelity;
        for (std::size_t rung = 0; rung < proxy_rungs; ++rung) {
            const SearchFidelity fidelity = proxyFidelity(
                spec_.budget, compute_nodes, rung, proxy_rungs);
            // Small workloads can round consecutive rungs to the same
            // prefix; re-pricing survivors at an identical fidelity
            // would reproduce their metrics byte for byte, so only the
            // selection shrink runs for such a rung.
            if (fidelity != evaluated_fidelity) {
                std::vector<std::string> proxy_keys(
                    result.candidates.size());
                for (std::size_t index : survivors)
                    proxy_keys[index] = evaluationKey(
                        digests[index], proxy_encoding, fidelity);
                fan_out.run(survivors.size(), [&](std::size_t i) {
                    const std::size_t index = survivors[i];
                    DseCandidate &candidate = result.candidates[index];
                    candidate.rung = static_cast<std::int64_t>(rung);
                    evaluateProxy(graph, options, candidate, fidelity,
                                  proxy_keys[index], cache, cache_hits,
                                  proxy_runs);
                });
                evaluated_fidelity = fidelity;
            }
            // Promote the next rung's worth: Pareto-rank-aware on the
            // proxy metrics so a front spread across the trade-off
            // survives, scalar objective breaking ties inside a rank.
            std::vector<SearchPoint> points;
            points.reserve(survivors.size());
            for (std::size_t index : survivors) {
                const DseCandidate &candidate = result.candidates[index];
                SearchPoint point;
                point.id = index;
                point.metrics =
                    MetricPoint{candidate.proxy_latency_cycles,
                                candidate.proxy_energy_pj};
                point.feasible = candidate.status.isOk();
                switch (result.objective) {
                  case TuneObjective::kLatency:
                    point.objective = candidate.proxy_latency_cycles;
                    break;
                  case TuneObjective::kEnergy:
                    point.objective = candidate.proxy_energy_pj;
                    break;
                  case TuneObjective::kEdp:
                    point.objective = candidate.proxy_latency_cycles
                                      * candidate.proxy_energy_pj;
                    break;
                }
                points.push_back(point);
            }
            survivors =
                selectSurvivors(points, ladder.rungs[rung + 1]);
        }
    }

    // Full-fidelity rung: the survivors (everyone, when exhaustive).
    fan_out.run(survivors.size(), [&](std::size_t i) {
        const std::size_t index = survivors[i];
        DseCandidate &candidate = result.candidates[index];
        candidate.full_eval = true;
        candidate.rung = static_cast<std::int64_t>(proxy_rungs);
        evaluateCandidate(full, options, candidate, keys[index], cache,
                          cache_hits);
    });
    result.full_evals = static_cast<std::int64_t>(survivors.size());
    result.proxy_evals = proxy_runs.load();

    for (DseCandidate &candidate : result.candidates) {
        if (copy_from[candidate.index] >= result.candidates.size())
            continue;
        const DseCandidate &source =
            result.candidates[copy_from[candidate.index]];
        candidate.status = source.status;
        candidate.latency_cycles = source.latency_cycles;
        candidate.energy_pj = source.energy_pj;
        candidate.edp = source.edp;
        candidate.tuned = source.tuned;
        candidate.config = source.config;
        candidate.rung = source.rung;
        candidate.full_eval = source.full_eval;
        candidate.proxied = source.proxied;
        candidate.proxy_latency_cycles = source.proxy_latency_cycles;
        candidate.proxy_energy_pj = source.proxy_energy_pj;
        cache_hits.fetch_add(1, std::memory_order_relaxed);
    }
    result.cache_hits = cache_hits.load();
    result.cache_entries =
        cache != nullptr ? static_cast<std::int64_t>(cache->size()) : 0;

    // A shard slice may legitimately own no feasible candidate; only
    // the full (merged or unsharded) sweep treats that as an error.
    const Status marked = result.markFront("arch-dse");
    if (!marked.isOk() && !sharded)
        return marked;
    return result;
}

Status
DseResult::markFront(const std::string &context)
{
    front = paretoFrontIndices(candidates);
    for (std::size_t index : front)
        candidates[index].on_front = true;
    if (!front.empty())
        return Status::ok();
    Status first = internalError("empty sweep");
    for (const DseCandidate &candidate : candidates) {
        if (!candidate.status.isOk()) {
            first = candidate.status;
            break;
        }
    }
    return first.withContext(context + ": no feasible candidate for '"
                             + workload + "' over base '" + base_arch
                             + "'");
}

// ----- reporting ------------------------------------------------------------

std::int64_t
DseResult::feasibleCount() const
{
    std::int64_t ok = 0;
    for (const DseCandidate &candidate : candidates)
        if (candidate.full_eval && candidate.status.isOk())
            ++ok;
    return ok;
}

std::string
DseResult::table() const
{
    // Ranked view: fully evaluated feasible candidates by ascending
    // objective (ties: EDP, then index — the tuner's tie-break
    // discipline), then proxy-only rows a budgeted run did not promote
    // (by index), infeasible ones last by index. Sorting keys only,
    // never timing, keeps the render thread-count independent.
    auto group = [](const DseCandidate &candidate) {
        if (candidate.full_eval && candidate.status.isOk())
            return 0;
        // A failed proxy has no metrics; it renders with the plain
        // infeasible rows below, not with the proxy-priced ones.
        if (candidate.proxied && !candidate.full_eval
            && candidate.status.isOk())
            return 1;
        return 2;
    };
    std::vector<std::size_t> order(candidates.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const TuneObjective objective = this->objective;
    std::sort(order.begin(), order.end(),
              [this, objective, &group](std::size_t a, std::size_t b) {
                  const DseCandidate &ca = candidates[a];
                  const DseCandidate &cb = candidates[b];
                  if (group(ca) != group(cb))
                      return group(ca) < group(cb);
                  if (group(ca) != 0)
                      return ca.index < cb.index;
                  const double va = ca.objectiveValue(objective);
                  const double vb = cb.objectiveValue(objective);
                  if (va != vb)
                      return va < vb;
                  if (ca.edp != cb.edp)
                      return ca.edp < cb.edp;
                  return ca.index < cb.index;
              });

    TextTable table({"#", "architecture", "latency (cyc)", "energy (pJ)",
                     "EDP", "config", "note"});
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
        const DseCandidate &candidate = candidates[order[rank]];
        switch (group(candidate)) {
          case 0: {
            std::string note;
            if (candidate.on_front)
                note = rank == 0 ? "front <- best" : "front";
            table.addRow({strformat("%zu", candidate.index),
                          candidate.label,
                          strformat("%.6g", candidate.latency_cycles),
                          strformat("%.6g", candidate.energy_pj),
                          strformat("%.6g", candidate.edp),
                          (candidate.tuned ? "tuned: " : "")
                              + candidate.config,
                          note});
            break;
          }
          case 1:
            // Halving priced these on the proxy stage only; the
            // metrics shown are proxy-fidelity and never compete for
            // the front.
            table.addRow(
                {strformat("%zu", candidate.index), candidate.label,
                 strformat("%.6g", candidate.proxy_latency_cycles),
                 strformat("%.6g", candidate.proxy_energy_pj),
                 strformat("%.6g", candidate.proxy_latency_cycles
                                       * candidate.proxy_energy_pj),
                 "-",
                 strformat("proxy rung %lld (not promoted)",
                           static_cast<long long>(candidate.rung))});
            break;
          default:
            table.addRow({strformat("%zu", candidate.index),
                          candidate.label, "-", "-", "-", "-",
                          candidate.status.toString()});
            break;
        }
    }
    return table.render();
}

const DseCandidate &
DseResult::bestByObjective() const
{
    std::size_t best = front.front();
    for (std::size_t index : front) {
        const DseCandidate &challenger = candidates[index];
        const DseCandidate &incumbent = candidates[best];
        const double vc = challenger.objectiveValue(objective);
        const double vi = incumbent.objectiveValue(objective);
        if (vc < vi
            || (vc == vi
                && (challenger.edp < incumbent.edp
                    || (challenger.edp == incumbent.edp
                        && challenger.index < incumbent.index))))
            best = index;
    }
    return candidates[best];
}

std::string
DseResult::summary() const
{
    const DseCandidate &best = bestByObjective();
    std::string line = strformat(
        "arch-dse[%s]: %zu candidates (%lld feasible), Pareto front %zu "
        "points, best %s=%.6g at [%s], cache hits %lld",
        tuneObjectiveName(objective), candidates.size(),
        static_cast<long long>(feasibleCount()), front.size(),
        tuneObjectiveName(objective), best.objectiveValue(objective),
        best.label.c_str(), static_cast<long long>(cache_hits));
    if (perf_engine == PerfEngineKind::kEvent)
        line += ", engine event";
    if (budget.enabled()) {
        HalvingSchedule ladder;
        ladder.rungs = rung_sizes;
        line += strformat(
            ", budget %s, rungs %s, %lld full + %lld proxy evals",
            budget.toString().c_str(), ladder.toString().c_str(),
            static_cast<long long>(full_evals),
            static_cast<long long>(proxy_evals));
    }
    return line;
}

ConfigValue
DseResult::toConfig() const
{
    ConfigValue::Object doc;
    doc["schema"] = text("cimmlc.dse.v1");

    ConfigValue::Object workload_obj;
    workload_obj["name"] = text(workload);
    workload_obj["nodes"] = number(nodes);
    workload_obj["weights"] = number(weights);
    doc["workload"] = ConfigValue::makeObject(std::move(workload_obj));

    doc["base_arch"] = text(base_arch);
    doc["objective"] = text(tuneObjectiveName(objective));
    doc["tune"] = ConfigValue::makeBool(tuned);
    doc["lint"] = ConfigValue::makeBool(lint);
    doc["perf_engine"] = text(perfEngineName(perf_engine));

    ConfigValue::Array rows;
    for (const DseCandidate &candidate : candidates) {
        ConfigValue::Object row;
        row["index"] =
            number(static_cast<std::int64_t>(candidate.index));
        ConfigValue::Object params;
        for (const auto &[param, value] : candidate.params)
            params[param] = text(value);
        row["params"] = ConfigValue::makeObject(std::move(params));
        row["status"] = text(candidate.status.toString());
        if (candidate.full_eval && candidate.status.isOk()) {
            row["latency_cycles"] = number(candidate.latency_cycles);
            row["energy_pj"] = number(candidate.energy_pj);
            row["edp"] = number(candidate.edp);
            row["config"] = text(candidate.config);
            row["tuned"] = ConfigValue::makeBool(candidate.tuned);
        }
        // Budgeted-search provenance: which rung the candidate reached,
        // whether it earned full fidelity, and the proxy metrics its
        // promotion verdict was based on.
        row["rung"] = number(candidate.rung);
        row["full_eval"] = ConfigValue::makeBool(candidate.full_eval);
        if (candidate.proxied) {
            row["proxy_latency_cycles"] =
                number(candidate.proxy_latency_cycles);
            row["proxy_energy_pj"] = number(candidate.proxy_energy_pj);
        }
        row["on_front"] = ConfigValue::makeBool(candidate.on_front);
        rows.push_back(ConfigValue::makeObject(std::move(row)));
    }
    doc["evaluated"] = ConfigValue::makeArray(std::move(rows));

    ConfigValue::Object search_obj;
    search_obj["budget"] = searchBudgetToConfig(budget);
    ConfigValue::Array rung_rows;
    for (std::int64_t size : rung_sizes)
        rung_rows.push_back(number(size));
    search_obj["rungs"] = ConfigValue::makeArray(std::move(rung_rows));
    search_obj["full_evals"] = number(full_evals);
    search_obj["proxy_evals"] = number(proxy_evals);
    doc["search"] = ConfigValue::makeObject(std::move(search_obj));

    ConfigValue::Array front_rows;
    for (std::size_t index : front)
        front_rows.push_back(number(static_cast<std::int64_t>(index)));
    doc["front"] = ConfigValue::makeArray(std::move(front_rows));

    ConfigValue::Object cache_obj;
    cache_obj["hits"] = number(cache_hits);
    cache_obj["entries"] = number(cache_entries);
    doc["cache"] = ConfigValue::makeObject(std::move(cache_obj));
    return ConfigValue::makeObject(std::move(doc));
}

} // namespace cimmlc

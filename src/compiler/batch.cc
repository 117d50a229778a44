#include "compiler/batch.h"

#include <algorithm>

#include "arch/presets.h"
#include "common/config.h"
#include "common/strutil.h"
#include "common/table.h"
#include "common/threadpool.h"
#include "graph/models.h"

namespace cimmlc {

namespace {

/** Runs one job into @p entry from @p base, the request every job of
 * the sweep shares; never throws or aborts on bad names. */
void
compileJob(const BatchJob &job, const CompileRequest &base,
           BatchEntry &entry)
{
    entry.job = job;

    CompileRequest request = base;
    request.model = job.model;
    request.arch = job.arch;

    CompilerSession session(std::move(request));
    // Identity facts survive in the entry even when a later stage fails
    // (a strict lint failure still reports its finding counts).
    session.setObserver([&entry](const StageTrace &trace,
                                 const CompileArtifacts &artifacts) {
        if (trace.stage == CompileStage::kLoad && trace.status.isOk()) {
            entry.nodes = artifacts.nodes;
            entry.weights = artifacts.weights;
        }
        if (trace.stage == CompileStage::kLint
            && artifacts.lint.has_value()) {
            entry.lint_errors = artifacts.lint->errors();
            entry.lint_warnings = artifacts.lint->warnings();
        }
    });
    auto artifacts = session.run();
    if (!artifacts.isOk()) {
        entry.status = artifacts.status().withContext(
            "job '" + job.model + " x " + job.arch + "'");
        return;
    }
    const CompileArtifacts &compiled = artifacts.value();
    entry.tuned = compiled.tuned;
    entry.config = compiled.options.toString();
    entry.status = Status::ok();
    entry.perf = *compiled.perf;
    entry.flow_statements = compiled.flowStatements();
}

} // namespace

std::int64_t
BatchResult::okCount() const
{
    std::int64_t ok = 0;
    for (const BatchEntry &entry : entries)
        if (entry.status.isOk())
            ++ok;
    return ok;
}

std::string
BatchResult::table() const
{
    // The lint column only appears when some job ran mopcheck, so
    // non-linting sweeps keep their historical table shape.
    bool linted = false;
    for (const BatchEntry &entry : entries)
        linted = linted || entry.lint_errors >= 0;

    std::vector<std::string> header{"model", "arch", "latency (cyc)",
                                    "energy (pJ)", "avg power (mW)",
                                    "xbar util", "flow ops"};
    if (linted)
        header.push_back("lint");
    header.push_back("config");
    header.push_back("status");

    TextTable table(header);
    for (const BatchEntry &entry : entries) {
        std::string lint = "-";
        if (entry.lint_errors >= 0) {
            lint = entry.lint_errors == 0 && entry.lint_warnings == 0
                       ? "clean"
                       : strformat("%lldE/%lldW",
                                   static_cast<long long>(
                                       entry.lint_errors),
                                   static_cast<long long>(
                                       entry.lint_warnings));
        }
        std::vector<std::string> row;
        if (entry.status.isOk()) {
            row = {entry.job.model, entry.job.arch,
                   strformat("%.6g", entry.perf.latency_cycles),
                   strformat("%.6g", entry.perf.energy.total()),
                   strformat("%.4g", entry.perf.avg_power_mw),
                   strformat("%.1f%%",
                             entry.perf.crossbar_utilization * 100.0),
                   strformat("%lld",
                             static_cast<long long>(
                                 entry.flow_statements))};
            if (linted)
                row.push_back(lint);
            row.push_back(entry.tuned ? "tuned: " + entry.config
                                      : entry.config);
            row.push_back("ok");
        } else {
            row = {entry.job.model, entry.job.arch, "-", "-", "-", "-",
                   "-"};
            if (linted)
                row.push_back(lint);
            row.push_back("-");
            row.push_back(entry.status.toString());
        }
        table.addRow(row);
    }
    return table.render();
}

StatusOr<BatchResult>
runSweep(const BatchSweep &sweep, const std::vector<BatchJob> &jobs)
{
    if (jobs.empty())
        return invalidArgument("batch sweep has no jobs");

    // One memo for the whole sweep: jobs that repeat a model x arch
    // pair reuse every candidate evaluation. Cached values are
    // bit-identical to fresh ones, so hits cannot perturb the output.
    TuneCache cache;
    CompileRequest base;
    CIMMLC_RETURN_IF_ERROR(sweep.knobs.applyKnobs(base));
    if (base.tune) {
        // Job-level parallelism already fills the pool; tune serially
        // inside the job so nested pools do not oversubscribe.
        base.tune_cache = &cache;
        base.search_budget = sweep.budget;
        base.threads = 1;
    }

    BatchResult result;
    result.entries.resize(jobs.size());
    FanOut(sweep.threads).run(jobs.size(), [&](std::size_t i) {
        compileJob(jobs[i], base, result.entries[i]);
    });
    return result;
}

StatusOr<std::vector<BatchJob>>
crossProductJobs(const std::vector<std::string> &model_names,
                 const std::vector<std::string> &arch_names)
{
    if (model_names.empty())
        return invalidArgument("sweep needs at least one model");
    if (arch_names.empty())
        return invalidArgument("sweep needs at least one architecture");

    const std::vector<std::string> known = models::availableModels();
    for (const std::string &model : model_names) {
        if (std::find(known.begin(), known.end(), toLower(model))
            == known.end())
            return notFound("unknown model '" + model + "'");
    }
    for (const std::string &arch : arch_names) {
        auto preset = presets::byName(arch);
        if (!preset.isOk())
            return preset.status();
    }

    std::vector<BatchJob> jobs;
    jobs.reserve(model_names.size() * arch_names.size());
    for (const std::string &model : model_names)
        for (const std::string &arch : arch_names)
            jobs.push_back(BatchJob{model, arch});
    return jobs;
}

namespace {

StatusOr<BatchSweep>
sweepFromConfig(const ConfigValue &doc)
{
    if (!doc.isObject())
        return parseError("sweep file must be a JSON object");

    BatchSweep sweep;
    CIMMLC_RETURN_IF_ERROR(readFileKnobs(
        doc, "sweep", {"models", "archs", "threads", "budget"}, sweep.knobs));

    auto readNames = [&doc](const char *key)
        -> StatusOr<std::vector<std::string>> {
        std::vector<std::string> names;
        CIMMLC_RETURN_IF_ERROR(readRequiredMember("sweep", doc, key, &names));
        if (names.empty())
            return parseError(std::string("sweep '") + key
                              + "' must be a non-empty array of strings");
        return names;
    };

    CIMMLC_ASSIGN_OR_RETURN(const std::vector<std::string> model_names,
                            readNames("models"));
    CIMMLC_ASSIGN_OR_RETURN(const std::vector<std::string> arch_names,
                            readNames("archs"));
    CIMMLC_ASSIGN_OR_RETURN(sweep.jobs,
                            crossProductJobs(model_names, arch_names));
    CIMMLC_RETURN_IF_ERROR(
        readTypedMember("sweep", doc, "threads", &sweep.threads));
    if (sweep.threads < 0 || sweep.threads > kMaxThreads)
        return invalidArgument(
            strformat("sweep 'threads' must be in [0, %d]", kMaxThreads));
    if (doc.has("budget")) {
        auto budget = searchBudgetFromConfig(doc.get("budget").value());
        if (!budget.isOk())
            return budget.status().withContext("sweep 'budget'");
        sweep.budget = budget.value();
    }
    return sweep;
}

} // namespace

StatusOr<BatchSweep>
sweepFromText(const std::string &text)
{
    CIMMLC_ASSIGN_OR_RETURN(const ConfigValue doc, parseConfig(text));
    return sweepFromConfig(doc);
}

StatusOr<BatchSweep>
sweepFromFile(const std::string &path)
{
    CIMMLC_ASSIGN_OR_RETURN(const ConfigValue doc, loadConfigFile(path));
    return sweepFromConfig(doc);
}

} // namespace cimmlc

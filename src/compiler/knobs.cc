#include "compiler/knobs.h"

#include <algorithm>

namespace cimmlc {

namespace {

ConfigValue
kvjson(const std::string &v)
{
    return ConfigValue::makeString(v);
}

ConfigValue
kvjson(bool v)
{
    return ConfigValue::makeBool(v);
}

ConfigValue
kvjson(std::int64_t v)
{
    return ConfigValue::makeNumber(static_cast<double>(v));
}

constexpr unsigned kAllModes =
    kSingleMode | kTunedMode | kBatchMode | kDseMode | kConnectMode;

} // namespace

// ----- the knob table -------------------------------------------------------

const std::vector<CompileKnob> &
compileKnobs()
{
    using R = RpcCompileRequest;
    static const std::vector<CompileKnob> knobs = {
        {"model", &R::model, "--model", "NAME",
         "built-in model (see --list-models)", kCompileModes | kConnectMode},
        {"model_text", &R::model_text, "--model-file", "PATH",
         "kvjson graph (--connect sends its text)",
         kCompileModes | kConnectMode},
        {"arch", &R::arch, "--arch", "NAME",
         "architecture preset (default isaac-baseline)",
         kCompileModes | kConnectMode},
        {"arch_text", &R::arch_text, "--arch-file", "PATH",
         "kvjson Abs-arch (--connect sends its text)",
         kCompileModes | kConnectMode},
        {"opt", &R::opt, "--opt", "LEVEL", "none | cg | cg+mvm | full (default)",
         kCompileModes | kBatchMode | kConnectMode, true},
        {"dual_mode", &R::dual_mode, "--dual-mode", nullptr,
         "force resident dual-mode arrays on",
         kCompileModes | kBatchMode | kConnectMode, true},
        {"host_offload", &R::host_offload, "--host-offload", nullptr,
         "force host/CIM hybrid offload on",
         kCompileModes | kBatchMode | kConnectMode, true},
        {"tune", &R::tune, "--autotune", nullptr,
         "search the schedule options, compile the best",
         kTunedMode | kBatchMode | kConnectMode, true},
        {"objective", &R::objective, "--objective", "NAME",
         "objective: latency (default) | energy | edp",
         kTunedMode | kBatchMode | kDseMode | kConnectMode, true},
        {"search_budget", &R::search_budget, "--search-budget", "N",
         "cap full-fidelity evaluations (tuner, DSE)",
         kTunedMode | kBatchMode | kDseMode | kConnectMode},
        {"perf_engine", &R::perf_engine, "--perf-engine", "NAME",
         "closed_form (default) | event", kAllModes, true},
        {"lint", &R::lint, "--lint", nullptr,
         "run mopcheck over the flow, print its findings", kAllModes, true},
        {"lint_strict", &R::lint_strict, "--lint-strict", nullptr,
         "--lint, and error findings fail the compile", kAllModes, true},
        {"verify", &R::verify, "--verify", nullptr,
         "unroll, execute, and check against the oracle",
         kCompileModes | kConnectMode},
    };
    return knobs;
}

const CompileKnob *
findCompileKnob(const std::string &key)
{
    for (const CompileKnob &knob : compileKnobs())
        if (key == knob.key)
            return &knob;
    return nullptr;
}

Flag
CompileKnob::flagOn(RpcCompileRequest &request) const
{
    const FlagTarget target = std::visit(
        [&request](auto member) -> FlagTarget { return &(request.*member); },
        field);
    return Flag{flag, value, target, help, modes};
}

Status
CompileKnob::read(const char *surface, const ConfigValue &v,
                  RpcCompileRequest &request) const
{
    return std::visit(
        [&](auto member) {
            return readTypedKey(surface, key, v, &(request.*member));
        },
        field);
}

Status
checkKnobValues(const RpcCompileRequest &knobs)
{
    CIMMLC_RETURN_IF_ERROR(knobs.scheduleOptions().status());
    CIMMLC_RETURN_IF_ERROR(parseTuneObjective(knobs.objective).status());
    return parsePerfEngineKind(knobs.perf_engine).status();
}

Status
readFileKnobs(const ConfigValue &doc, const char *surface,
              const std::vector<std::string> &surface_keys,
              RpcCompileRequest &knobs)
{
    for (const auto &[key, v] : doc.asObject()) {
        if (std::find(surface_keys.begin(), surface_keys.end(), key)
            != surface_keys.end())
            continue;
        const CompileKnob *knob = findCompileKnob(key);
        if (knob == nullptr || !knob->file_key)
            return invalidArgument(std::string(surface)
                                   + " has unknown key '" + key + "'");
        CIMMLC_RETURN_IF_ERROR(knob->read(surface, v, knobs));
    }
    return checkKnobValues(knobs);
}

// ----- RpcCompileRequest ----------------------------------------------------

ConfigValue
RpcCompileRequest::toConfig() const
{
    ConfigValue::Object doc;
    doc["type"] = kvjson(std::string("compile"));
    doc["id"] = kvjson(id);
    for (const CompileKnob &knob : compileKnobs())
        doc[knob.key] = std::visit(
            [this](auto member) { return kvjson(this->*member); },
            knob.field);
    return ConfigValue::makeObject(std::move(doc));
}

StatusOr<ScheduleOptions>
RpcCompileRequest::scheduleOptions() const
{
    CIMMLC_ASSIGN_OR_RETURN(ScheduleOptions options,
                            scheduleOptionsByName(opt));
    options.dual_mode = options.dual_mode || dual_mode;
    options.host_offload = options.host_offload || host_offload;
    return options;
}

Status
RpcCompileRequest::applyKnobs(CompileRequest &request) const
{
    request.opt = opt;
    if ((dual_mode || host_offload) && !tune) {
        // The named level resolves first, then the knobs force on;
        // request.options wins over the string opt inside the session.
        // Tuned requests skip it: the tuner searches both knobs.
        CIMMLC_ASSIGN_OR_RETURN(request.options, scheduleOptions());
    }
    if (tune) {
        request.tune = true;
        CIMMLC_ASSIGN_OR_RETURN(request.objective,
                                parseTuneObjective(objective));
        if (search_budget >= 0)
            request.search_budget.max_full_evals = search_budget;
    }
    CIMMLC_ASSIGN_OR_RETURN(request.perf_engine,
                            parsePerfEngineKind(perf_engine));
    request.lint = lint || lint_strict;
    request.lint_strict = lint_strict;
    request.outputs.verify = verify;
    return Status::ok();
}

StatusOr<CompileRequest>
RpcCompileRequest::toCompileRequest(TuneCache *tune_cache,
                                    ArtifactCache *artifact_cache) const
{
    CompileRequest request;
    request.model = model;
    request.model_text = model_text;
    request.arch = arch;
    request.arch_text = arch_text;
    CIMMLC_RETURN_IF_ERROR(applyKnobs(request).withContext("rpc compile"));
    request.artifact_cache = artifact_cache;
    if (tune) {
        request.threads = 1;
        request.tune_cache = tune_cache;
    }
    CIMMLC_RETURN_IF_ERROR(request.validate().withContext("rpc compile"));
    return request;
}

} // namespace cimmlc

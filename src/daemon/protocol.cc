#include "daemon/protocol.h"

#include <algorithm>
#include <cmath>

#include "common/strutil.h"
#include "common/version.h"

namespace cimmlc {

namespace {

ConfigValue
text(std::string v)
{
    return ConfigValue::makeString(std::move(v));
}

ConfigValue
number(std::int64_t v)
{
    return ConfigValue::makeNumber(static_cast<double>(v));
}

ConfigValue
kvjson(const std::string &v)
{
    return text(v);
}

ConfigValue
kvjson(bool v)
{
    return ConfigValue::makeBool(v);
}

ConfigValue
kvjson(std::int64_t v)
{
    return number(v);
}

Status
mistyped(const std::string &key, const char *type)
{
    return invalidArgument("compile frame key '" + key + "' must be "
                           + type);
}

Status
readKey(const std::string &key, const ConfigValue &v, std::string *out)
{
    if (!v.isString())
        return mistyped(key, "a string");
    *out = v.asString();
    return Status::ok();
}

Status
readKey(const std::string &key, const ConfigValue &v, bool *out)
{
    if (!v.isBool())
        return mistyped(key, "a bool");
    *out = v.asBool();
    return Status::ok();
}

Status
readKey(const std::string &key, const ConfigValue &v, std::int64_t *out)
{
    // ConfigValue::asInt would truncate a fraction, and its cast is
    // undefined outside int64.
    if (!v.isNumber() || v.asNumber() != std::trunc(v.asNumber())
        || !(v.asNumber() >= -0x1p63 && v.asNumber() < 0x1p63))
        return mistyped(key, "an integer in int64 range");
    *out = static_cast<std::int64_t>(v.asNumber());
    return Status::ok();
}

constexpr unsigned kCompileModes = kSingleMode | kTunedMode;
constexpr unsigned kAllModes =
    kSingleMode | kTunedMode | kBatchMode | kDseMode | kConnectMode;

} // namespace

// ----- RpcCompileRequest ----------------------------------------------------

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
         kCompileModes | kBatchMode | kConnectMode},
        {"dual_mode", &R::dual_mode, "--dual-mode", nullptr,
         "force resident dual-mode arrays on",
         kCompileModes | kBatchMode | kConnectMode},
        {"host_offload", &R::host_offload, "--host-offload", nullptr,
         "force host/CIM hybrid offload on",
         kCompileModes | kBatchMode | kConnectMode},
        {"tune", &R::tune, "--autotune", nullptr,
         "search the schedule options, compile the best",
         kTunedMode | kBatchMode | kConnectMode},
        {"objective", &R::objective, "--objective", "NAME",
         "objective: latency (default) | energy | edp",
         kTunedMode | kBatchMode | kDseMode | kConnectMode},
        {"search_budget", &R::search_budget, "--search-budget", "N",
         "cap full-fidelity evaluations (tuner, DSE)",
         kTunedMode | kBatchMode | kDseMode | kConnectMode},
        {"perf_engine", &R::perf_engine, "--perf-engine", "NAME",
         "closed_form (default) | event", kAllModes},
        {"lint", &R::lint, "--lint", nullptr,
         "run mopcheck over the flow, print its findings", kAllModes},
        {"lint_strict", &R::lint_strict, "--lint-strict", nullptr,
         "--lint, and error findings fail the compile", kAllModes},
        {"verify", &R::verify, "--verify", nullptr,
         "unroll, execute, and check against the oracle",
         kCompileModes | kConnectMode},
    };
    return knobs;
}

Flag
CompileKnob::flagOn(RpcCompileRequest &request) const
{
    const FlagTarget target = std::visit(
        [&request](auto member) -> FlagTarget { return &(request.*member); },
        field);
    return Flag{flag, value, target, help, modes};
}

ConfigValue
RpcCompileRequest::toConfig() const
{
    ConfigValue::Object doc;
    doc["type"] = text("compile");
    doc["id"] = number(id);
    for (const CompileKnob &knob : compileKnobs())
        doc[knob.key] = std::visit(
            [this](auto member) { return kvjson(this->*member); },
            knob.field);
    return ConfigValue::makeObject(std::move(doc));
}

Status
RpcCompileRequest::applyKnobs(CompileRequest &request) const
{
    request.opt = opt;
    if ((dual_mode || host_offload) && !tune) {
        // The named level resolves first, then the knobs force on;
        // request.options wins over the string opt inside the session.
        // Tuned requests skip it: the tuner searches both knobs.
        CIMMLC_ASSIGN_OR_RETURN(ScheduleOptions overlay,
                                scheduleOptionsByName(opt));
        overlay.dual_mode = dual_mode;
        overlay.host_offload = host_offload;
        request.options = overlay;
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

StatusOr<RpcCompileRequest>
parseCompileFrame(const ConfigValue &doc)
{
    if (!doc.isObject())
        return parseError("compile frame is not an object");
    const std::vector<CompileKnob> &knobs = compileKnobs();
    RpcCompileRequest request;
    request.id = -1;
    for (const auto &[key, v] : doc.asObject()) {
        if (key == "type")
            continue;
        if (key == "id") {
            CIMMLC_RETURN_IF_ERROR(readKey(key, v, &request.id));
            continue;
        }
        const auto knob =
            std::find_if(knobs.begin(), knobs.end(),
                         [&key](const CompileKnob &k) { return key == k.key; });
        if (knob == knobs.end())
            return invalidArgument(
                "compile frame has unknown key '" + key
                + "' (daemon/client version skew?)");
        CIMMLC_RETURN_IF_ERROR(std::visit(
            [&](auto member) { return readKey(key, v, &(request.*member)); },
            knob->field));
    }
    if (request.id < 0)
        return invalidArgument(
            "compile frame needs a non-negative integer 'id'");
    return request;
}

// ----- frame builders -------------------------------------------------------

ConfigValue
helloFrame(std::int64_t max_inflight, std::int64_t max_queue_depth)
{
    ConfigValue::Object doc;
    doc["type"] = text("hello");
    doc["schema"] = text(kRpcSchema);
    doc["compiler_version"] = text(cimmlcVersion());
    doc["max_inflight"] = number(max_inflight);
    doc["max_queue_depth"] = number(max_queue_depth);
    return ConfigValue::makeObject(std::move(doc));
}

ConfigValue
eventFrame(std::int64_t id, const StageTrace &trace)
{
    ConfigValue::Object doc;
    doc["type"] = text("event");
    doc["id"] = number(id);
    doc["stage"] = text(compileStageName(trace.stage));
    doc["status"] = text(trace.status.toString());
    doc["wall_ms"] = ConfigValue::makeNumber(trace.wall_ms);
    doc["cached"] = ConfigValue::makeBool(trace.cached);
    if (!trace.detail.empty())
        doc["detail"] = text(trace.detail);
    return ConfigValue::makeObject(std::move(doc));
}

ConfigValue
reportFrame(std::int64_t id, const std::string &report_json, bool cached)
{
    ConfigValue::Object doc;
    doc["type"] = text("report");
    doc["id"] = number(id);
    doc["cached"] = ConfigValue::makeBool(cached);
    doc["report"] = text(report_json);
    return ConfigValue::makeObject(std::move(doc));
}

ConfigValue
errorFrame(std::int64_t id, const Status &status)
{
    ConfigValue::Object doc;
    doc["type"] = text("error");
    doc["id"] = number(id);
    doc["code"] = number(static_cast<std::int64_t>(status.code()));
    doc["message"] = text(status.message());
    return ConfigValue::makeObject(std::move(doc));
}

ConfigValue
statsRequestFrame(std::int64_t id)
{
    ConfigValue::Object doc;
    doc["type"] = text("stats");
    doc["id"] = number(id);
    return ConfigValue::makeObject(std::move(doc));
}

ConfigValue
shutdownRequestFrame(std::int64_t id)
{
    ConfigValue::Object doc;
    doc["type"] = text("shutdown");
    doc["id"] = number(id);
    return ConfigValue::makeObject(std::move(doc));
}

ConfigValue
statsReportFrame(std::int64_t id, ConfigValue payload)
{
    ConfigValue::Object doc;
    doc["type"] = text("stats_report");
    doc["id"] = number(id);
    doc["stats"] = std::move(payload);
    return ConfigValue::makeObject(std::move(doc));
}

ConfigValue
byeFrame(std::int64_t id)
{
    ConfigValue::Object doc;
    doc["type"] = text("bye");
    doc["id"] = number(id);
    return ConfigValue::makeObject(std::move(doc));
}

Status
statusFromErrorFrame(const ConfigValue &doc)
{
    const std::int64_t code = doc.getIntOr("code", -1);
    if (code <= 0
        || code > static_cast<std::int64_t>(StatusCode::kParseError))
        return internalError("daemon error: "
                             + doc.getStringOr("message", "(no message)"));
    return Status(static_cast<StatusCode>(code),
                  doc.getStringOr("message", ""));
}

} // namespace cimmlc

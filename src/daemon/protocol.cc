#include "daemon/protocol.h"

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

/** Reads a request frame by the rule every one follows: an object with
 * a non-negative integer "id" (read into @p id) whose other keys are
 * "type" and the compile knobs @p request reads (none when it is
 * null). */
Status
readFrame(const std::string &surface, const ConfigValue &doc,
          std::int64_t *id, RpcCompileRequest *request)
{
    if (!doc.isObject())
        return parseError(surface + " is not an object");
    *id = -1;
    for (const auto &[key, v] : doc.asObject()) {
        if (key == "type")
            continue;
        if (key == "id") {
            CIMMLC_RETURN_IF_ERROR(readTypedKey(surface, key, v, id));
            continue;
        }
        const CompileKnob *knob =
            request != nullptr ? findCompileKnob(key) : nullptr;
        if (knob == nullptr)
            return invalidArgument(surface + " has unknown key '" + key
                                   + "' (daemon/client version skew?)");
        CIMMLC_RETURN_IF_ERROR(knob->read(surface.c_str(), v, *request));
    }
    if (*id < 0)
        return invalidArgument(surface
                               + " needs a non-negative integer 'id'");
    return Status::ok();
}

} // namespace

StatusOr<RpcCompileRequest>
parseCompileFrame(const ConfigValue &doc)
{
    RpcCompileRequest request;
    CIMMLC_RETURN_IF_ERROR(
        readFrame("compile frame", doc, &request.id, &request));
    return request;
}

StatusOr<std::int64_t>
parseControlFrame(const ConfigValue &doc)
{
    std::int64_t id = -1;
    CIMMLC_RETURN_IF_ERROR(readFrame(doc.getStringOr("type", "") + " frame",
                                     doc, &id, nullptr));
    return id;
}

std::int64_t
echoedFrameId(const ConfigValue &doc)
{
    std::int64_t id = -1;
    (void)readTypedMember("frame", doc, "id", &id);
    return id;
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

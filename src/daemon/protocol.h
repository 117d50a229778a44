/**
 * @file
 * `cimmlc.rpc.v1` — the frame vocabulary of the compile-service daemon.
 *
 * Every frame is one kvjson object (transported by common/socket.h
 * framing) with a "type" key:
 *
 *   server -> client on connect:   hello       (schema, compiler_version)
 *   client -> server:              compile     (id + request fields)
 *                                  stats       (id)
 *                                  shutdown    (id; drain and exit)
 *   server -> client per compile:  event*      (id, stage, wall_ms, ...)
 *                                  report|error (id; terminal)
 *   server -> client per stats:    stats_report (id, payload)
 *   server -> client per shutdown: bye          (id)
 *
 * Ordering guarantees: frames for one request id arrive in stage order
 * with the terminal frame last; frames for different ids from one
 * connection may interleave (the daemon may run a connection's queued
 * requests concurrently when it has spare in-flight slots).
 *
 * A compile request carries the workload and architecture **by value**
 * (preset name or inline kvjson text) — the daemon never reads client
 * file paths, so it can serve containerized clients. The client CLI
 * inlines --model-file/--arch-file contents before submitting.
 */
#ifndef CIMMLC_DAEMON_PROTOCOL_H
#define CIMMLC_DAEMON_PROTOCOL_H

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/config.h"
#include "common/flags.h"
#include "common/status.h"
#include "compiler/session.h"

namespace cimmlc {

/** Schema tag carried by the hello frame. */
constexpr const char *kRpcSchema = "cimmlc.rpc.v1";

/**
 * A compile request as it travels over the wire. Field semantics match
 * CompileRequest. The daemon maps it with toCompileRequest(), and an
 * in-process `cimmlc` compile goes through the same applyKnobs(), so a
 * daemon-served compile is byte-identical to `cimmlc --report json`
 * run in-process (timing fields aside). Every field but `id` is a
 * compile knob (compileKnobs()).
 */
struct RpcCompileRequest {
    std::int64_t id = 0;      //!< client-chosen, echoed on every reply
    std::string model;        //!< preset name (models::byName)
    std::string model_text;   //!< inline kvjson graph
    std::string arch;         //!< preset name (presets::byName)
    std::string arch_text;    //!< inline kvjson Abs-arch
    std::string opt = "full"; //!< none | cg | cg+mvm | full
    bool dual_mode = false;    //!< overlay: resident dual-mode arrays
    bool host_offload = false; //!< overlay: host/CIM hybrid offload
    bool tune = false;
    std::string objective = "latency";
    std::int64_t search_budget = -1; //!< -1 = exhaustive
    std::string perf_engine = "closed_form";
    bool lint = false;
    bool lint_strict = false;
    bool verify = false;

    /** Serializes every field explicitly (canonical form: two requests
     * meaning the same compile dump identically). */
    ConfigValue toConfig() const;

    /**
     * Sets the knob part of @p request: the schedule options (the
     * dual_mode/host_offload overlay on `opt`), tuning, perf engine,
     * lint (lint_strict implies lint) and verify. The workload and
     * arch sources, caches and thread budget stay the caller's.
     */
    Status applyKnobs(CompileRequest &request) const;

    /**
     * Maps the wire request onto a staged-session CompileRequest and
     * validates it. @p tune_cache is the daemon's shared warm TuneCache
     * and @p artifact_cache its process-wide stage-level artifact cache
     * (either may be null). The tune stage runs serial (threads=1):
     * daemon concurrency comes from running many sessions, not from
     * oversubscribing one.
     */
    StatusOr<CompileRequest>
    toCompileRequest(TuneCache *tune_cache,
                     ArtifactCache *artifact_cache = nullptr) const;
};

/** The modes of `cimmlc`, as bits of Flag::modes. */
enum CimmlcMode : unsigned {
    kSingleMode = 1U << 0,  //!< one in-process compile
    kTunedMode = 1U << 1,   //!< one in-process compile with --autotune
    kBatchMode = 1U << 2,   //!< --batch
    kDseMode = 1U << 3,     //!< --arch-dse
    kConnectMode = 1U << 4, //!< --connect / --connect-tcp
};

/**
 * One compile knob: an RpcCompileRequest field, its frame key, and the
 * `cimmlc` flag that sets it. The field's type gives the key's kvjson
 * type: a string, a bool, or an integral number. These rows drive the
 * frame codec and the knob rows of cimmlc's flag table.
 */
struct CompileKnob {
    const char *key; //!< frame key, the field's name
    std::variant<std::string RpcCompileRequest::*, bool RpcCompileRequest::*,
                 std::int64_t RpcCompileRequest::*>
        field;
    const char *flag;  //!< the cimmlc flag
    const char *value; //!< its value in --help (nullptr: none)
    const char *help;
    unsigned modes; //!< CimmlcMode bits of the modes that read the flag

    /** The flag's row, writing @p request's field. --model-file and
     * --arch-file write a path into model_text and arch_text; the
     * front end reads the file (--connect) or passes the path on. */
    Flag flagOn(RpcCompileRequest &request) const;
};

/** The 14 compile knobs, in field order. */
const std::vector<CompileKnob> &compileKnobs();

/** Parses a compile frame. An unknown key, or a key of the wrong
 * kvjson type, is an error naming the key: unknown keys usually mean
 * daemon/client version skew, which should be loud. */
StatusOr<RpcCompileRequest> parseCompileFrame(const ConfigValue &doc);

// ----- frame builders -------------------------------------------------------

/** Server handshake: schema + compiler_version (+ the daemon's limits,
 * informational). */
ConfigValue helloFrame(std::int64_t max_inflight,
                       std::int64_t max_queue_depth);

/** One per-stage progress event mirroring a session StageTrace. */
ConfigValue eventFrame(std::int64_t id, const StageTrace &trace);

/** Terminal success frame; @p report_json is the pretty
 * `cimmlc.report.v1` dump, and @p cached marks a request whose every
 * stage after load replayed from the stage artifact cache. */
ConfigValue reportFrame(std::int64_t id, const std::string &report_json,
                        bool cached);

/** Terminal failure frame carrying @p status. */
ConfigValue errorFrame(std::int64_t id, const Status &status);

/** Client stats / shutdown requests. */
ConfigValue statsRequestFrame(std::int64_t id);
ConfigValue shutdownRequestFrame(std::int64_t id);

/** Server stats / shutdown replies. */
ConfigValue statsReportFrame(std::int64_t id, ConfigValue payload);
ConfigValue byeFrame(std::int64_t id);

/** Extracts an error frame's Status (code + message round-trip). */
Status statusFromErrorFrame(const ConfigValue &doc);

} // namespace cimmlc

#endif // CIMMLC_DAEMON_PROTOCOL_H

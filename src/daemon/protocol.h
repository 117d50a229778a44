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
 * inlines --model-file/--arch-file contents before submitting. Its keys
 * are the compile knobs of RpcCompileRequest (compiler/knobs.h).
 */
#ifndef CIMMLC_DAEMON_PROTOCOL_H
#define CIMMLC_DAEMON_PROTOCOL_H

#include <cstdint>
#include <string>

#include "common/config.h"
#include "common/status.h"
#include "compiler/knobs.h"

namespace cimmlc {

/** Schema tag carried by the hello frame. */
constexpr const char *kRpcSchema = "cimmlc.rpc.v1";

/** Parses a compile frame. An unknown key, or a key of the wrong
 * kvjson type, is an error naming the key: unknown keys usually mean
 * daemon/client version skew, which should be loud. */
StatusOr<RpcCompileRequest> parseCompileFrame(const ConfigValue &doc);

/** Parses a stats or shutdown frame into its id, by the compile
 * frame's rules: a non-negative integer "id", and no key but "type"
 * and "id". */
StatusOr<std::int64_t> parseControlFrame(const ConfigValue &doc);

/** The id an error frame about @p doc echoes: its "id" when that reads
 * as an integer, else -1. */
std::int64_t echoedFrameId(const ConfigValue &doc);

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

/**
 * @file
 * Client side of the `cimmlc.rpc.v1` protocol: connect, handshake,
 * submit compile/stats/shutdown requests, and stream per-stage trace
 * events. Used by `cimmlc --connect`, the load-generator bench, and
 * the daemon tests.
 */
#ifndef CIMMLC_DAEMON_CLIENT_H
#define CIMMLC_DAEMON_CLIENT_H

#include <cstdint>
#include <functional>
#include <string>

#include "common/config.h"
#include "common/socket.h"
#include "common/status.h"
#include "daemon/protocol.h"

namespace cimmlc {

/** The terminal outcome of one daemon-served compile. */
struct RpcCompileResponse {
    std::string report_json; //!< pretty `cimmlc.report.v1` document
    bool cached = false;     //!< every stage after load replayed
    std::int64_t events = 0; //!< stage events streamed before the report
};

class DaemonClient
{
  public:
    //! called per stage event with (stage, status text, wall_ms, detail)
    using EventCallback = std::function<void(
        const std::string &, const std::string &, double,
        const std::string &)>;

    /** Connects over a Unix-domain socket and reads the hello frame. */
    static StatusOr<DaemonClient> connectUnixSocket(
        const std::string &path);

    /** Connects over localhost TCP and reads the hello frame. */
    static StatusOr<DaemonClient> connectTcpSocket(
        const std::string &host, int port);

    DaemonClient(DaemonClient &&) = default;
    DaemonClient &operator=(DaemonClient &&) = default;

    /** Daemon identity from the handshake. */
    const std::string &serverSchema() const { return schema_; }
    const std::string &serverVersion() const { return version_; }

    /** True when the daemon was built from a different compiler
     * version than this client (skew the caller should surface). */
    bool versionSkew() const;

    /**
     * Submits @p request and blocks until its terminal frame, invoking
     * @p on_event for every streamed stage event. An error frame
     * (admission rejection, compile failure, cancellation) comes back
     * as this function's error Status.
     */
    StatusOr<RpcCompileResponse> compile(const RpcCompileRequest &request,
                                         const EventCallback &on_event = {});

    /** Fetches the daemon's `cimmlc.stats.v1` snapshot. */
    StatusOr<ConfigValue> stats();

    /** Asks the daemon to drain and exit. */
    Status shutdownServer();

  private:
    explicit DaemonClient(Socket socket) : socket_(std::move(socket)) {}

    static StatusOr<DaemonClient> handshake(Socket socket);

    Socket socket_;
    std::string schema_;
    std::string version_;
    std::int64_t next_id_ = 1;
};

} // namespace cimmlc

#endif // CIMMLC_DAEMON_CLIENT_H

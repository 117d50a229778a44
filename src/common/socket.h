/**
 * @file
 * Minimal POSIX stream-socket wrappers and the kvjson frame transport
 * the compile-service daemon speaks (`cimmlc.rpc.v1`, see
 * daemon/protocol.h).
 *
 * Sockets are RAII file descriptors; listeners bind either a
 * Unix-domain path (the default daemon transport) or localhost TCP
 * (for containerized clients). Framing is deliberately text-first so a
 * captured stream stays debuggable:
 *
 *   cimmlc-rpc <LEN>\n
 *   <LEN bytes of kvjson>\n
 *
 * where LEN counts only the kvjson payload. Both sides enforce a hard
 * frame-size ceiling so a corrupt header cannot trigger an unbounded
 * allocation.
 */
#ifndef CIMMLC_COMMON_SOCKET_H
#define CIMMLC_COMMON_SOCKET_H

#include <cstdint>
#include <string>

#include "common/config.h"
#include "common/status.h"

namespace cimmlc {

/** Hard ceiling on one frame's kvjson payload (64 MiB). */
constexpr std::int64_t kMaxFrameBytes = 64ll * 1024 * 1024;

/**
 * An owned, connected stream-socket file descriptor. Move-only; the
 * destructor closes the descriptor.
 */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    Socket(Socket &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Socket &operator=(Socket &&other) noexcept;
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;
    ~Socket() { close(); }

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** Closes the descriptor (idempotent). */
    void close();

    /** Shuts down both directions, unblocking a peer reader, without
     * releasing the descriptor (a concurrent reader may still own a
     * recv() on it). */
    void shutdownBoth();

    /** Writes all @p size bytes (handles short writes; EPIPE-safe:
     * SIGPIPE is suppressed per-call). */
    Status sendAll(const void *data, std::size_t size);

    /**
     * Reads exactly @p size bytes. A clean EOF before the first byte
     * reports kNotFound ("connection closed"); a mid-buffer EOF or any
     * socket error reports kInternal.
     */
    Status recvAll(void *data, std::size_t size);

  private:
    int fd_ = -1;
};

/** Connects to a Unix-domain socket at @p path. */
StatusOr<Socket> connectUnix(const std::string &path);

/** Connects to TCP @p host : @p port (numeric IPv4 host, e.g.
 * "127.0.0.1"), with TCP_NODELAY set: frames go out unbatched. */
StatusOr<Socket> connectTcp(const std::string &host, int port);

/**
 * A bound, listening socket. Move-only; closing a Unix listener
 * unlinks its path.
 */
class Listener
{
  public:
    Listener() = default;
    Listener(Listener &&other) noexcept;
    Listener &operator=(Listener &&other) noexcept;
    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;
    ~Listener() { close(); }

    /** Binds and listens on a Unix-domain @p path (an existing stale
     * socket file is replaced). */
    static StatusOr<Listener> listenUnix(const std::string &path);

    /** Binds and listens on 127.0.0.1:@p port; 0 picks an ephemeral
     * port (see boundPort()). */
    static StatusOr<Listener> listenTcp(int port);

    bool valid() const { return fd_ >= 0; }

    /** The actual TCP port bound (after listenTcp(0)); 0 for Unix. */
    int boundPort() const { return port_; }

    /**
     * Blocks for the next connection (TCP connections get TCP_NODELAY).
     * When the listener is shut down from another thread (the daemon's
     * stop path), reports kNotFound.
     */
    StatusOr<Socket> accept();

    /**
     * Shuts the listening socket down, unblocking a thread parked in
     * accept(), but keeps the descriptor: that thread may still be
     * reading it. Join it, then close().
     */
    void shutdown();

    /** Closes the listening descriptor (idempotent). Must not race with
     * accept(); a concurrent acceptor is stopped with shutdown(). */
    void close();

  private:
    int fd_ = -1;
    int port_ = 0;
    std::string unix_path_;
};

/** Serializes @p doc as one compact-kvjson frame onto @p socket. */
Status sendFrame(Socket &socket, const ConfigValue &doc);

/**
 * Reads one frame and parses its payload. kNotFound means the peer
 * closed the connection cleanly between frames; anything else
 * malformed (bad magic, oversized length, truncated payload, kvjson
 * parse failure) is an error with context.
 */
StatusOr<ConfigValue> recvFrame(Socket &socket);

} // namespace cimmlc

#endif // CIMMLC_COMMON_SOCKET_H

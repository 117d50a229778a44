#include "common/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/strutil.h"

namespace cimmlc {

namespace {

Status
errnoStatus(const char *what)
{
    return internalError(strformat("%s: %s", what, std::strerror(errno)));
}

/** Sends small frames at once: with Nagle's algorithm a multi-frame
 * reply waits for the peer's delayed ACK (~40 ms) before its tail. */
void
setNoDelay(int fd)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

// ----- Socket ---------------------------------------------------------------

Socket &
Socket::operator=(Socket &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Socket::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

Status
Socket::sendAll(const void *data, std::size_t size)
{
    const char *cursor = static_cast<const char *>(data);
    std::size_t left = size;
    while (left > 0) {
        // MSG_NOSIGNAL: a peer that disconnected mid-stream must
        // surface as an error status, not kill the daemon with SIGPIPE.
        const ssize_t sent = ::send(fd_, cursor, left, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR)
                continue;
            return errnoStatus("send");
        }
        cursor += sent;
        left -= static_cast<std::size_t>(sent);
    }
    return Status::ok();
}

Status
Socket::recvAll(void *data, std::size_t size)
{
    char *cursor = static_cast<char *>(data);
    std::size_t got = 0;
    while (got < size) {
        const ssize_t n = ::recv(fd_, cursor + got, size - got, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errnoStatus("recv");
        }
        if (n == 0) {
            if (got == 0)
                return notFound("connection closed");
            return internalError(strformat(
                "connection closed mid-frame (%zu of %zu bytes)", got,
                size));
        }
        got += static_cast<std::size_t>(n);
    }
    return Status::ok();
}

// ----- connect helpers ------------------------------------------------------

StatusOr<Socket>
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return invalidArgument("unix socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return errnoStatus("socket(AF_UNIX)");
    Socket socket(fd);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
        != 0)
        return errnoStatus(("connect to '" + path + "'").c_str());
    return socket;
}

StatusOr<Socket>
connectTcp(const std::string &host, int port)
{
    if (port <= 0 || port > 65535)
        return invalidArgument(
            strformat("bad TCP port %d (expected 1..65535)", port));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        return invalidArgument("bad IPv4 host '" + host + "'");

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return errnoStatus("socket(AF_INET)");
    Socket socket(fd);
    setNoDelay(fd);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
        != 0)
        return errnoStatus(
            strformat("connect to %s:%d", host.c_str(), port).c_str());
    return socket;
}

// ----- Listener -------------------------------------------------------------

Listener::Listener(Listener &&other) noexcept
    : fd_(other.fd_), port_(other.port_),
      unix_path_(std::move(other.unix_path_))
{
    other.fd_ = -1;
    other.unix_path_.clear();
}

Listener &
Listener::operator=(Listener &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        port_ = other.port_;
        unix_path_ = std::move(other.unix_path_);
        other.fd_ = -1;
        other.unix_path_.clear();
    }
    return *this;
}

StatusOr<Listener>
Listener::listenUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return invalidArgument("unix socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return errnoStatus("socket(AF_UNIX)");
    Listener listener;
    listener.fd_ = fd;
    listener.unix_path_ = path;
    // A previous daemon that died without cleanup leaves the socket
    // file behind; binding over it is the expected restart behavior.
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0)
        return errnoStatus(("bind '" + path + "'").c_str());
    if (::listen(fd, 64) != 0)
        return errnoStatus("listen");
    return listener;
}

StatusOr<Listener>
Listener::listenTcp(int port)
{
    if (port < 0 || port > 65535)
        return invalidArgument(
            strformat("bad TCP port %d (expected 0..65535)", port));
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return errnoStatus("socket(AF_INET)");
    Listener listener;
    listener.fd_ = fd;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0)
        return errnoStatus(strformat("bind 127.0.0.1:%d", port).c_str());
    if (::listen(fd, 64) != 0)
        return errnoStatus("listen");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len) != 0)
        return errnoStatus("getsockname");
    listener.port_ = static_cast<int>(ntohs(bound.sin_port));
    return listener;
}

StatusOr<Socket>
Listener::accept()
{
    for (;;) {
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd >= 0) {
            if (port_ > 0) // TCP listener
                setNoDelay(fd);
            return Socket(fd);
        }
        if (errno == EINTR)
            continue;
        // EINVAL after shutdown() is the normal stop path.
        return notFound(strformat("accept: %s", std::strerror(errno)));
    }
}

void
Listener::shutdown()
{
    // shutdown() unblocks a thread parked in accept(); close alone does
    // not on Linux.
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void
Listener::close()
{
    if (fd_ >= 0) {
        shutdown();
        ::close(fd_);
        fd_ = -1;
    }
    if (!unix_path_.empty()) {
        ::unlink(unix_path_.c_str());
        unix_path_.clear();
    }
}

// ----- framing --------------------------------------------------------------

Status
sendFrame(Socket &socket, const ConfigValue &doc)
{
    const std::string payload = doc.dump(/*pretty=*/false);
    const std::string header =
        strformat("cimmlc-rpc %zu\n", payload.size());
    std::string frame;
    frame.reserve(header.size() + payload.size() + 1);
    frame += header;
    frame += payload;
    frame += '\n';
    return socket.sendAll(frame.data(), frame.size());
}

StatusOr<ConfigValue>
recvFrame(Socket &socket)
{
    // Read the header byte-by-byte up to the newline; headers are tiny
    // and this keeps the socket free of read-ahead buffering state.
    std::string header;
    for (;;) {
        char c = 0;
        const Status got = socket.recvAll(&c, 1);
        if (!got.isOk()) {
            if (got.code() == StatusCode::kNotFound && header.empty())
                return got; // clean close between frames
            return got.withContext("rpc frame header");
        }
        if (c == '\n')
            break;
        header.push_back(c);
        if (header.size() > 64)
            return parseError("rpc frame header too long: '"
                              + header.substr(0, 32) + "...'");
    }
    if (!startsWith(header, "cimmlc-rpc "))
        return parseError("bad rpc frame magic: '" + header + "'");
    std::int64_t length = 0;
    if (!parseInt64(trim(header.substr(11)), &length) || length < 0)
        return parseError("bad rpc frame length: '" + header + "'");
    if (length > kMaxFrameBytes)
        return outOfRange(strformat(
            "rpc frame of %lld bytes exceeds the %lld byte ceiling",
            static_cast<long long>(length),
            static_cast<long long>(kMaxFrameBytes)));
    std::string payload(static_cast<std::size_t>(length), '\0');
    if (length > 0) {
        CIMMLC_RETURN_IF_ERROR(
            socket.recvAll(payload.data(), payload.size())
                .withContext("rpc frame payload"));
    }
    char trailer = 0;
    CIMMLC_RETURN_IF_ERROR(socket.recvAll(&trailer, 1)
                               .withContext("rpc frame trailer"));
    if (trailer != '\n')
        return parseError("rpc frame missing trailing newline");
    auto doc = parseConfig(payload);
    if (!doc.isOk())
        return doc.status().withContext("rpc frame payload");
    return doc;
}

} // namespace cimmlc

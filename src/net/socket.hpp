#ifndef BORG_NET_SOCKET_HPP
#define BORG_NET_SOCKET_HPP

/// \file socket.hpp
/// Thin RAII wrappers over POSIX TCP sockets for the run manager
/// (DESIGN.md §14): a move-only connected Socket, a listening Listener
/// with ephemeral-port support, and a connect-with-backoff helper for
/// workers racing the master's bind.
///
/// Error philosophy: *peer* failures (reset, EOF, refused) are ordinary
/// run-time events for a run manager — they surface as return values so
/// the poll loop can reassign work; *local* failures (no fds, bad
/// address) throw SocketError. All sends use MSG_NOSIGNAL, so a dead peer
/// can never SIGPIPE the master.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

namespace borg::net {

class SocketError : public std::runtime_error {
public:
    explicit SocketError(const std::string& what) : std::runtime_error(what) {}
};

/// One byte-stream connection. Move-only; closes on destruction.
class Socket {
public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket();
    Socket(Socket&& other) noexcept;
    Socket& operator=(Socket&& other) noexcept;
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;

    /// One blocking connect attempt. Returns an invalid socket (not an
    /// exception) when the peer refuses or times out — callers that want
    /// persistence use connect_with_retry. \p recv_buffer_bytes > 0
    /// requests SO_RCVBUF *before* connecting (the advertised TCP window
    /// is sized from it at handshake time, so shrinking it afterwards is
    /// too late — backpressure tests need a genuinely tiny window).
    static Socket connect_to(const std::string& host, std::uint16_t port,
                             int recv_buffer_bytes = 0);

    bool valid() const noexcept { return fd_ >= 0; }
    int fd() const noexcept { return fd_; }
    void close() noexcept;

    void set_nonblocking(bool on);
    void set_nodelay(bool on);

    /// Blocking send of the whole buffer. False when the peer is gone
    /// (EPIPE/ECONNRESET/...); never raises SIGPIPE.
    bool send_all(std::span<const std::uint8_t> bytes) noexcept;

    struct IoResult {
        std::size_t bytes = 0; ///< transferred now (0: would block)
        bool closed = false;   ///< peer EOF or hard error; stop using fd
    };

    /// Nonblocking-friendly partial send (for outbox draining).
    IoResult send_some(std::span<const std::uint8_t> bytes) noexcept;
    /// Nonblocking-friendly read into \p buffer.
    IoResult recv_some(std::span<std::uint8_t> buffer) noexcept;

    /// Requests an SO_SNDBUF of \p bytes (kernel clamps/doubles as it
    /// pleases). The backpressure tests shrink it to force partial writes.
    void set_send_buffer(int bytes);
    /// Requests an SO_RCVBUF of \p bytes.
    void set_recv_buffer(int bytes);

private:
    int fd_ = -1;
};

/// A listening TCP socket bound to host:port. Port 0 binds an ephemeral
/// port; port() reports the actual one. accept_ready() never blocks.
class Listener {
public:
    Listener(const std::string& host, std::uint16_t port);
    int fd() const noexcept { return fd_; }
    std::uint16_t port() const noexcept { return port_; }
    void close() noexcept;
    ~Listener();
    Listener(const Listener&) = delete;
    Listener& operator=(const Listener&) = delete;

    /// Accepts one pending connection if any (nonblocking).
    std::optional<Socket> accept_ready();

private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
};

/// Worker-side connect with exponential backoff (initial_backoff_ms, x2
/// per attempt, capped at 1s) — workers routinely start before the master
/// finishes binding, so the retry loop is load-bearing, not cosmetic.
/// Throws SocketError after \p max_attempts failures. \p attempts_out
/// reports how many attempts were spent (the Hello message carries it so
/// the master can aggregate a net.connect_retries metric).
Socket connect_with_retry(const std::string& host, std::uint16_t port,
                          unsigned max_attempts, unsigned initial_backoff_ms,
                          std::uint32_t* attempts_out = nullptr,
                          int recv_buffer_bytes = 0);

} // namespace borg::net

#endif

#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <utility>

namespace borg::net {

namespace {

std::string errno_text(const char* op) {
    return std::string(op) + ": " + std::strerror(errno);
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        throw SocketError("bad IPv4 address: " + host);
    return addr;
}

} // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
}

void Socket::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Socket Socket::connect_to(const std::string& host, std::uint16_t port,
                          int recv_buffer_bytes) {
    const sockaddr_in addr = make_addr(host, port);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw SocketError(errno_text("socket"));
    if (recv_buffer_bytes > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &recv_buffer_bytes,
                     sizeof(recv_buffer_bytes));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return Socket{}; // refused / unreachable: caller decides to retry
    }
    return Socket{fd};
}

void Socket::set_nonblocking(bool on) {
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0) throw SocketError(errno_text("fcntl(F_GETFL)"));
    const int next = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    if (::fcntl(fd_, F_SETFL, next) < 0)
        throw SocketError(errno_text("fcntl(F_SETFL)"));
}

void Socket::set_nodelay(bool on) {
    const int flag = on ? 1 : 0;
    if (::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag)) != 0)
        throw SocketError(errno_text("setsockopt(TCP_NODELAY)"));
}

bool Socket::send_all(std::span<const std::uint8_t> bytes) noexcept {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

Socket::IoResult Socket::send_some(std::span<const std::uint8_t> bytes) noexcept {
    for (;;) {
        const ssize_t n =
            ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n >= 0) return {static_cast<std::size_t>(n), false};
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return {0, false};
        return {0, true};
    }
}

void Socket::set_send_buffer(int bytes) {
    if (::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) != 0)
        throw SocketError(errno_text("setsockopt(SO_SNDBUF)"));
}

void Socket::set_recv_buffer(int bytes) {
    if (::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)) != 0)
        throw SocketError(errno_text("setsockopt(SO_RCVBUF)"));
}

Socket::IoResult Socket::recv_some(std::span<std::uint8_t> buffer) noexcept {
    for (;;) {
        const ssize_t n = ::recv(fd_, buffer.data(), buffer.size(), 0);
        if (n > 0) return {static_cast<std::size_t>(n), false};
        if (n == 0) return {0, true}; // orderly EOF
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return {0, false};
        return {0, true};
    }
}

Listener::Listener(const std::string& host, std::uint16_t port) {
    const sockaddr_in addr = make_addr(host, port);
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw SocketError(errno_text("socket"));
    const int reuse = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        const std::string what = errno_text("bind");
        ::close(fd_);
        fd_ = -1;
        throw SocketError(what);
    }
    // 1024: a 512-worker fleet restarting en masse must not see ECONNREFUSED
    // from a full backlog (the kernel clamps to somaxconn).
    if (::listen(fd_, 1024) != 0) {
        const std::string what = errno_text("listen");
        ::close(fd_);
        fd_ = -1;
        throw SocketError(what);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        const std::string what = errno_text("getsockname");
        ::close(fd_);
        fd_ = -1;
        throw SocketError(what);
    }
    port_ = ntohs(bound.sin_port);
    // Accepts must never block the poll loop.
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

void Listener::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Listener::~Listener() { close(); }

std::optional<Socket> Listener::accept_ready() {
    if (fd_ < 0) return std::nullopt;
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
            errno == ECONNABORTED)
            return std::nullopt;
        throw SocketError(errno_text("accept"));
    }
    return Socket{fd};
}

Socket connect_with_retry(const std::string& host, std::uint16_t port,
                          unsigned max_attempts, unsigned initial_backoff_ms,
                          std::uint32_t* attempts_out,
                          int recv_buffer_bytes) {
    unsigned backoff_ms = initial_backoff_ms == 0 ? 1 : initial_backoff_ms;
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        Socket s = Socket::connect_to(host, port, recv_buffer_bytes);
        if (s.valid()) {
            if (attempts_out) *attempts_out = attempt;
            return s;
        }
        if (attempt == max_attempts) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = backoff_ms >= 500 ? 1000 : backoff_ms * 2;
    }
    throw SocketError("connect to " + host + ":" + std::to_string(port) +
                      " failed after " + std::to_string(max_attempts) +
                      " attempts");
}

} // namespace borg::net

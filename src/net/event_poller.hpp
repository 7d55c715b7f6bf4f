#ifndef BORG_NET_EVENT_POLLER_HPP
#define BORG_NET_EVENT_POLLER_HPP

/// \file event_poller.hpp
/// Readiness-notification backends for the TCP run manager (DESIGN.md
/// §16). One interface, two implementations:
///
///  * `PollPoller` — poll(2), the portable fallback. Every wait()
///    rebuilds the pollfd array from the registration table, so the
///    kernel walks every registered fd per wait; registration itself
///    costs no syscall.
///  * `EpollPoller` — Linux epoll with persistent fd registration: fds
///    are registered once (epoll_ctl), wait() is O(ready) rather than
///    O(registered), and no per-tick array rebuild exists at all. Only
///    compiled on Linux; `epoll_available()` reports whether this build
///    has it, and `make_poller` throws SocketError when it does not.
///
/// Both backends drive the same serve loop, so under IngestOrder::dispatch
/// the final archive is byte-identical between them (pinned by
/// tests/test_tcp_executor.cpp and bench/micro_net's agreement gate), as
/// are the frames sent and the send/recv syscall counts. What differs is
/// the cost of waiting — wait and ctl syscalls — which `PollerStats`
/// makes observable.

#include <cstdint>
#include <memory>
#include <span>

namespace borg::net {

enum class PollerBackend : std::uint8_t { poll, epoll };

const char* to_string(PollerBackend backend) noexcept;

/// True when this build carries the epoll backend (Linux only).
bool epoll_available() noexcept;

/// One readiness event. `data` is the opaque pointer supplied at add();
/// the run manager registers its listener with data == nullptr and every
/// connection with its Conn*.
struct PollerEvent {
    void* data = nullptr;
    bool readable = false;
    bool writable = false;
    bool hangup = false; ///< POLLHUP/POLLERR-class conditions
};

/// Syscall accounting, folded into the run's net.* metrics.
struct PollerStats {
    std::uint64_t wait_syscalls = 0; ///< poll(2) / epoll_wait(2) calls
    std::uint64_t ctl_syscalls = 0;  ///< epoll_ctl(2) calls (poll: 0)
    std::uint64_t wakeups = 0;       ///< waits that returned >= 1 event
    std::uint64_t events = 0;        ///< fd-events delivered in total
};

class EventPoller {
public:
    virtual ~EventPoller() = default;

    /// Registers \p fd with read interest (always) and optional write
    /// interest. \p data is returned verbatim in PollerEvent.
    virtual void add(int fd, void* data, bool want_write) = 0;

    /// Flips write interest for an already-registered fd. Callers only
    /// invoke this on actual transitions, so the epoll backend performs
    /// zero epoll_ctl syscalls in a steady state whose outboxes drain in
    /// one gathered write.
    virtual void set_write_interest(int fd, void* data, bool want_write) = 0;

    /// Deregisters \p fd. Must precede close(fd).
    virtual void remove(int fd) = 0;

    /// Blocks up to \p timeout_ms for readiness. The returned span
    /// aliases an internal buffer reused across calls (no allocation in
    /// steady state); it is invalidated by the next wait().
    virtual std::span<const PollerEvent> wait(int timeout_ms) = 0;

    virtual PollerBackend backend() const noexcept = 0;

    const PollerStats& stats() const noexcept { return stats_; }

protected:
    PollerStats stats_;
};

/// Throws SocketError when \p backend is epoll on a non-Linux build.
std::unique_ptr<EventPoller> make_poller(PollerBackend backend);

} // namespace borg::net

#endif

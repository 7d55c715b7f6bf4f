#ifndef BORG_NET_EVENT_POLLER_HPP
#define BORG_NET_EVENT_POLLER_HPP

/// \file event_poller.hpp
/// Readiness notification for the TCP run manager (DESIGN.md §16). Two
/// backends with one shape, and the build picks one:
///
///  * `PollPoller` — poll(2), the portable backend. Every wait()
///    rebuilds the pollfd array from the registration table, so the
///    kernel walks every registered fd per wait; registration itself
///    costs no syscall.
///  * `EpollPoller` — Linux epoll with persistent fd registration: fds
///    are registered once (epoll_ctl), wait() is O(ready) rather than
///    O(registered), and no per-wait array rebuild exists at all. Only
///    compiled on Linux.
///
/// `Poller` is the one the run manager uses: epoll where the build has
/// it, poll otherwise. Either drives the same serve loop, so the final
/// archive, the frames sent and the send/recv syscall counts do not
/// depend on it. What differs is the cost of waiting — wait and ctl
/// syscalls — which `PollerStats` makes observable.

#include <poll.h>

#include <cstdint>
#include <span>
#include <vector>

#ifdef __linux__
#include <sys/epoll.h>
#endif

namespace borg::net {

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

// Both backends provide:
//   add(fd, data, want_write) — registers fd with read interest (always)
//     and optional write interest; data is returned verbatim in events.
//   set_write_interest(fd, data, want_write) — flips write interest for a
//     registered fd. Callers only invoke it on actual transitions, so the
//     epoll backend performs zero epoll_ctl syscalls in a steady state
//     whose outboxes drain in one gathered write.
//   remove(fd) — deregisters fd. Must precede close(fd).
//   wait(timeout_ms) — blocks up to timeout_ms for readiness. The span
//     aliases an internal buffer reused across calls (no allocation in
//     steady state); the next wait() invalidates it.

/// The portable backend: a registration table replayed into a fresh
/// pollfd array on every wait.
class PollPoller {
public:
    static constexpr const char* kName = "poll";

    void add(int fd, void* data, bool want_write);
    void set_write_interest(int fd, void* data, bool want_write);
    void remove(int fd);
    std::span<const PollerEvent> wait(int timeout_ms);

    const PollerStats& stats() const noexcept { return stats_; }

private:
    struct Reg {
        int fd;
        void* data;
        bool want_write;
    };
    PollerStats stats_;
    std::vector<Reg> regs_;
    std::vector<pollfd> fds_; ///< rebuilt per wait, capacity reused
    std::vector<PollerEvent> events_;
};

#ifdef __linux__

/// Persistent-registration backend: the kernel holds the interest set, so
/// a wait touches only ready fds and a steady state with stable write
/// interest performs zero epoll_ctl syscalls.
class EpollPoller {
public:
    static constexpr const char* kName = "epoll";

    /// Throws SocketError when the kernel refuses an epoll instance.
    EpollPoller();
    ~EpollPoller();
    EpollPoller(const EpollPoller&) = delete;
    EpollPoller& operator=(const EpollPoller&) = delete;

    void add(int fd, void* data, bool want_write);
    void set_write_interest(int fd, void* data, bool want_write);
    void remove(int fd);
    std::span<const PollerEvent> wait(int timeout_ms);

    const PollerStats& stats() const noexcept { return stats_; }

private:
    void ctl(int op, int fd, void* data, bool want_write);

    PollerStats stats_;
    int epfd_ = -1;
    std::vector<epoll_event> raw_;
    std::vector<PollerEvent> events_;
};

using Poller = EpollPoller;

#else

using Poller = PollPoller;

#endif // __linux__

} // namespace borg::net

#endif

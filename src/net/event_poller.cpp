#include "net/event_poller.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#ifdef __linux__
#include <sys/epoll.h>
#include <unistd.h>
#endif

#include "net/socket.hpp"

namespace borg::net {

const char* to_string(PollerBackend backend) noexcept {
    switch (backend) {
    case PollerBackend::poll: return "poll";
    case PollerBackend::epoll: return "epoll";
    }
    return "unknown";
}

bool epoll_available() noexcept {
#ifdef __linux__
    return true;
#else
    return false;
#endif
}

namespace {

/// The portable backend: a registration table replayed into a fresh
/// pollfd array on every wait.
class PollPoller final : public EventPoller {
public:
    void add(int fd, void* data, bool want_write) override {
        regs_.push_back({fd, data, want_write});
    }

    void set_write_interest(int fd, void* data, bool want_write) override {
        (void)data;
        for (auto& reg : regs_)
            if (reg.fd == fd) {
                reg.want_write = want_write;
                return;
            }
    }

    void remove(int fd) override {
        std::erase_if(regs_, [fd](const Reg& reg) { return reg.fd == fd; });
    }

    std::span<const PollerEvent> wait(int timeout_ms) override {
        fds_.clear();
        for (const Reg& reg : regs_) {
            short events = POLLIN;
            if (reg.want_write) events |= POLLOUT;
            fds_.push_back({reg.fd, events, 0});
        }
        ++stats_.wait_syscalls;
        const int rc =
            ::poll(fds_.data(), static_cast<nfds_t>(fds_.size()), timeout_ms);
        events_.clear();
        if (rc < 0) {
            if (errno == EINTR) return {};
            throw SocketError(std::string("poll: ") + std::strerror(errno));
        }
        if (rc == 0) return {};
        ++stats_.wakeups;
        for (std::size_t i = 0; i < fds_.size(); ++i) {
            const short got = fds_[i].revents;
            if (got == 0) continue;
            PollerEvent event;
            event.data = regs_[i].data;
            event.readable = (got & POLLIN) != 0;
            event.writable = (got & POLLOUT) != 0;
            event.hangup = (got & (POLLHUP | POLLERR | POLLNVAL)) != 0;
            events_.push_back(event);
        }
        stats_.events += events_.size();
        return events_;
    }

    PollerBackend backend() const noexcept override {
        return PollerBackend::poll;
    }

private:
    struct Reg {
        int fd;
        void* data;
        bool want_write;
    };
    std::vector<Reg> regs_;
    std::vector<pollfd> fds_;        ///< rebuilt per wait, capacity reused
    std::vector<PollerEvent> events_;
};

#ifdef __linux__

/// Persistent-registration backend: the kernel holds the interest set, so
/// a wait touches only ready fds and a steady state with stable write
/// interest performs zero epoll_ctl syscalls.
class EpollPoller final : public EventPoller {
public:
    EpollPoller() : epfd_(::epoll_create1(0)) {
        if (epfd_ < 0)
            throw SocketError(std::string("epoll_create1: ") +
                              std::strerror(errno));
        raw_.resize(kMaxEvents);
        events_.reserve(kMaxEvents);
    }

    ~EpollPoller() override {
        if (epfd_ >= 0) ::close(epfd_);
    }

    void add(int fd, void* data, bool want_write) override {
        ctl(EPOLL_CTL_ADD, fd, data, want_write);
    }

    void set_write_interest(int fd, void* data, bool want_write) override {
        ctl(EPOLL_CTL_MOD, fd, data, want_write);
    }

    void remove(int fd) override {
        ++stats_.ctl_syscalls;
        ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    }

    std::span<const PollerEvent> wait(int timeout_ms) override {
        ++stats_.wait_syscalls;
        const int rc = ::epoll_wait(epfd_, raw_.data(),
                                    static_cast<int>(raw_.size()), timeout_ms);
        events_.clear();
        if (rc < 0) {
            if (errno == EINTR) return {};
            throw SocketError(std::string("epoll_wait: ") +
                              std::strerror(errno));
        }
        if (rc == 0) return {};
        ++stats_.wakeups;
        for (int i = 0; i < rc; ++i) {
            const std::uint32_t got = raw_[static_cast<std::size_t>(i)].events;
            PollerEvent event;
            event.data = raw_[static_cast<std::size_t>(i)].data.ptr;
            event.readable = (got & EPOLLIN) != 0;
            event.writable = (got & EPOLLOUT) != 0;
            event.hangup = (got & (EPOLLHUP | EPOLLERR)) != 0;
            events_.push_back(event);
        }
        stats_.events += events_.size();
        return events_;
    }

    PollerBackend backend() const noexcept override {
        return PollerBackend::epoll;
    }

private:
    /// 256 ready fds per wait is plenty: level triggering re-reports
    /// anything beyond the batch on the next wait.
    static constexpr std::size_t kMaxEvents = 256;

    void ctl(int op, int fd, void* data, bool want_write) {
        epoll_event ev{};
        ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
        ev.data.ptr = data;
        ++stats_.ctl_syscalls;
        if (::epoll_ctl(epfd_, op, fd, &ev) != 0)
            throw SocketError(std::string("epoll_ctl: ") +
                              std::strerror(errno));
    }

    int epfd_ = -1;
    std::vector<epoll_event> raw_;
    std::vector<PollerEvent> events_;
};

#endif // __linux__

} // namespace

std::unique_ptr<EventPoller> make_poller(PollerBackend backend) {
    switch (backend) {
    case PollerBackend::poll: return std::make_unique<PollPoller>();
    case PollerBackend::epoll:
#ifdef __linux__
        return std::make_unique<EpollPoller>();
#else
        throw SocketError("epoll backend is unavailable on this platform "
                          "(Linux only); use PollerBackend::poll");
#endif
    }
    throw SocketError("unknown poller backend");
}

} // namespace borg::net

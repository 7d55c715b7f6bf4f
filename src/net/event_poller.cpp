#include "net/event_poller.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#ifdef __linux__
#include <unistd.h>
#endif

#include "net/socket.hpp"

namespace borg::net {

void PollPoller::add(int fd, void* data, bool want_write) {
    regs_.push_back({fd, data, want_write});
}

void PollPoller::set_write_interest(int fd, void* data, bool want_write) {
    (void)data;
    for (auto& reg : regs_)
        if (reg.fd == fd) {
            reg.want_write = want_write;
            return;
        }
}

void PollPoller::remove(int fd) {
    std::erase_if(regs_, [fd](const Reg& reg) { return reg.fd == fd; });
}

std::span<const PollerEvent> PollPoller::wait(int timeout_ms) {
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

#ifdef __linux__

namespace {

/// 256 ready fds per wait is plenty: level triggering re-reports anything
/// beyond the batch on the next wait.
constexpr std::size_t kMaxEpollEvents = 256;

} // namespace

EpollPoller::EpollPoller() : epfd_(::epoll_create1(0)) {
    if (epfd_ < 0)
        throw SocketError(std::string("epoll_create1: ") +
                          std::strerror(errno));
    raw_.resize(kMaxEpollEvents);
    events_.reserve(kMaxEpollEvents);
}

EpollPoller::~EpollPoller() {
    if (epfd_ >= 0) ::close(epfd_);
}

void EpollPoller::add(int fd, void* data, bool want_write) {
    ctl(EPOLL_CTL_ADD, fd, data, want_write);
}

void EpollPoller::set_write_interest(int fd, void* data, bool want_write) {
    ctl(EPOLL_CTL_MOD, fd, data, want_write);
}

void EpollPoller::remove(int fd) {
    ++stats_.ctl_syscalls;
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
}

std::span<const PollerEvent> EpollPoller::wait(int timeout_ms) {
    ++stats_.wait_syscalls;
    const int rc = ::epoll_wait(epfd_, raw_.data(),
                                static_cast<int>(raw_.size()), timeout_ms);
    events_.clear();
    if (rc < 0) {
        if (errno == EINTR) return {};
        throw SocketError(std::string("epoll_wait: ") + std::strerror(errno));
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

void EpollPoller::ctl(int op, int fd, void* data, bool want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.ptr = data;
    ++stats_.ctl_syscalls;
    if (::epoll_ctl(epfd_, op, fd, &ev) != 0)
        throw SocketError(std::string("epoll_ctl: ") + std::strerror(errno));
}

#endif // __linux__

} // namespace borg::net

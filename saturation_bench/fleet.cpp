#include "fleet.hpp"

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <stdexcept>
#include <thread>
#include <variant>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "stats/summary.hpp"

namespace satbench {

namespace {

namespace net = borg::net;

std::uint64_t now_ns() {
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

timespec to_timespec(std::uint64_t ns) {
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000u);
    ts.tv_nsec = static_cast<long>(ns % 1'000'000'000u);
    return ts;
}

/// One evaluated task waiting for its due time.
struct Held {
    std::uint64_t seq = 0;
    std::uint64_t due_ns = 0;
    std::vector<double> objectives;
    std::vector<double> constraints;
};

struct Conn {
    net::Socket socket;
    bool readable = true; ///< last wait reported input (or never waited)
    net::FrameReader reader;
    std::deque<Held> held;         ///< FIFO; due times non-decreasing
    /// Frames not yet taken by the socket. Writes never block: a master
    /// that stops reading must not stall the generator's clock.
    std::vector<std::uint8_t> out;
    std::size_t out_start = 0;
    std::vector<std::uint64_t> sent_ns; ///< send time of result k
    std::uint64_t tasks_read = 0;
    std::uint32_t worker_id = 0;
    bool handshaken = false;
    bool open = true;
};

/// Writes as much of \p conn's pending frames as the socket takes now.
/// Returns false when the peer is gone.
bool flush(Conn& conn) {
    while (conn.out_start < conn.out.size()) {
        const ssize_t n =
            ::send(conn.socket.fd(), conn.out.data() + conn.out_start,
                   conn.out.size() - conn.out_start, MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_start += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
    conn.out.clear();
    conn.out_start = 0;
    return true;
}

/// Reads whatever \p conn has buffered and handles every complete frame.
/// Returns false on a protocol failure (rejected handshake, bad bytes).
bool read_conn(Conn& conn, const FleetSpec& spec,
               const borg::problems::Problem& problem, std::uint64_t now,
               std::vector<std::uint8_t>& buffer,
               LogHistogram& turnaround, std::uint32_t& heartbeat_ms) {
    for (;;) {
        const ssize_t n = ::recv(conn.socket.fd(), buffer.data(), buffer.size(),
                                 MSG_DONTWAIT);
        if (n > 0) {
            conn.reader.feed({buffer.data(), static_cast<std::size_t>(n)});
            if (static_cast<std::size_t>(n) < buffer.size()) break;
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        conn.open = false; // EOF or reset: the master is done with us
        break;
    }
    const auto tf_ns = static_cast<std::uint64_t>(spec.tf_s * 1e9);
    try {
        while (std::optional<net::Message> message = conn.reader.next()) {
            if (auto* task = std::get_if<net::Task>(&*message)) {
                ++conn.tasks_read;
                // Task k >= depth refills the credit result k - depth freed.
                if (conn.tasks_read > spec.depth) {
                    const std::uint64_t k = conn.tasks_read - spec.depth - 1;
                    if (k < conn.sent_ns.size())
                        turnaround.add(
                            static_cast<double>(now - conn.sent_ns[k]) * 1e-9);
                }
                Held held;
                held.seq = task->seq;
                held.due_ns = now + tf_ns;
                held.objectives.resize(problem.num_objectives());
                held.constraints.resize(problem.num_constraints());
                problem.evaluate(task->variables, held.objectives,
                                 held.constraints);
                conn.held.push_back(std::move(held));
            } else if (auto* ack = std::get_if<net::HelloAck>(&*message)) {
                if (!ack->accepted) return false;
                conn.worker_id = ack->worker_id;
                conn.handshaken = true;
                if (ack->heartbeat_interval_ms > 0)
                    heartbeat_ms = ack->heartbeat_interval_ms;
            } else if (std::get_if<net::Shutdown>(&*message) != nullptr) {
                conn.open = false;
                break;
            }
        }
    } catch (const net::ProtocolError&) {
        return false;
    }
    if (!conn.open) conn.socket.close();
    return true;
}

FleetReport run_fleet(const FleetSpec& spec,
                      const borg::problems::Problem& problem) {
    FleetReport report;
    // Wake-ups close to the due time: the default 50 us slack would show
    // up as generator lateness at T_F = 1 ms.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    if (spec.cpu >= 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(spec.cpu, &set);
        ::sched_setaffinity(0, sizeof(set), &set);
    }

    const std::uint64_t start = now_ns();
    std::vector<Conn> conns(spec.connections);
    for (Conn& conn : conns) {
        std::uint32_t attempts = 0;
        conn.socket =
            net::connect_with_retry("127.0.0.1", spec.port, 50, 10, &attempts);
        conn.socket.set_nodelay(true);
        net::Hello hello;
        hello.connect_attempts = attempts;
        hello.pid = static_cast<std::uint64_t>(::getpid());
        hello.num_variables =
            static_cast<std::uint32_t>(problem.num_variables());
        hello.num_objectives =
            static_cast<std::uint32_t>(problem.num_objectives());
        hello.num_constraints =
            static_cast<std::uint32_t>(problem.num_constraints());
        hello.problem = problem.name();
        hello.worker_name = "simulated-fleet";
        if (!conn.socket.send_all(net::encode_frame(hello))) return report;
    }

    std::vector<double> lateness;
    std::vector<std::uint8_t> buffer(std::size_t{64} * 1024);
    std::vector<pollfd> pfds;
    std::uint32_t heartbeat_ms = 250;
    std::uint64_t next_heartbeat = 0; ///< 0: no connection handshaken yet
    const auto tf = spec.tf_s;
    const auto quantum_ns = static_cast<std::uint64_t>(spec.wake_quantum_s * 1e9);
    std::uint64_t parked_ns = 0;
    std::uint64_t last_wake = start;
    bool failed = false;

    for (;;) {
        const std::uint64_t now = now_ns();
        for (Conn& conn : conns)
            if (conn.open && conn.readable &&
                !read_conn(conn, spec, problem, now, buffer, report.turnaround,
                           heartbeat_ms))
                failed = true;
        if (failed) break;

        const std::uint64_t send_at = now_ns();
        bool any_open = false;
        bool beat = false;
        if (next_heartbeat == 0) {
            for (const Conn& conn : conns)
                if (conn.handshaken)
                    next_heartbeat = send_at + heartbeat_ms * 1'000'000ull;
        } else if (send_at >= next_heartbeat) {
            beat = true;
            next_heartbeat = send_at + heartbeat_ms * 1'000'000ull;
        }
        for (Conn& conn : conns) {
            if (!conn.open || !conn.handshaken) {
                any_open |= conn.open;
                continue;
            }
            any_open = true;
            while (!conn.held.empty() && conn.held.front().due_ns <= send_at) {
                Held& held = conn.held.front();
                net::Result result;
                result.seq = held.seq;
                result.worker_id = conn.worker_id;
                result.eval_seconds = tf;
                result.sent_at_ns = send_at;
                result.objectives = std::move(held.objectives);
                result.constraints = std::move(held.constraints);
                net::encode_frame_into(result, conn.out);
                lateness.push_back(
                    static_cast<double>(send_at - held.due_ns) * 1e-9);
                conn.sent_ns.push_back(send_at);
                conn.held.pop_front();
            }
            if (beat)
                net::encode_frame_into(
                    net::Heartbeat{conn.worker_id, conn.sent_ns.size()},
                    conn.out);
            if (!flush(conn)) {
                conn.open = false; // master closed after its last ingest
                conn.socket.close();
            }
        }
        if (!any_open) break;

        std::uint64_t wake_at = next_heartbeat == 0 ? send_at + 1'000'000'000ull
                                                    : next_heartbeat;
        for (const Conn& conn : conns)
            if (conn.open && !conn.held.empty())
                wake_at = std::min(wake_at, conn.held.front().due_ns);

        const std::uint64_t park_start = now_ns();
        if (quantum_ns > 0 && park_start < last_wake + quantum_ns) {
            const timespec until = to_timespec(last_wake + quantum_ns);
            while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &until,
                                     nullptr) == EINTR) {
            }
        }
        pfds.clear();
        for (const Conn& conn : conns)
            if (conn.open)
                pfds.push_back({conn.socket.fd(),
                                static_cast<short>(conn.out.empty()
                                                       ? POLLIN
                                                       : POLLIN | POLLOUT),
                                0});
        const std::uint64_t before_poll = now_ns();
        const timespec timeout =
            to_timespec(wake_at > before_poll ? wake_at - before_poll : 0);
        ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
        last_wake = now_ns();
        std::size_t polled = 0;
        for (Conn& conn : conns)
            if (conn.open)
                conn.readable =
                    (pfds[polled++].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
        parked_ns += last_wake - park_start;
    }

    const std::uint64_t end = now_ns();
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    report.ok = failed ? 0 : 1;
    if (!lateness.empty())
        report.lateness_p99_s = borg::stats::quantile(lateness, 0.99);
    report.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
    report.wall_s = static_cast<double>(end - start) * 1e-9;
    report.busy_s = static_cast<double>(end - start - parked_ns) * 1e-9;
    return report;
}

} // namespace

FleetProcess::FleetProcess(const FleetSpec& spec,
                           const borg::problems::Problem& problem) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("fleet: pipe failed");
    std::fflush(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        throw std::runtime_error("fleet: fork failed");
    }
    if (pid_ == 0) {
        ::close(fds[0]);
        FleetReport report;
        try {
            report = run_fleet(spec, problem);
        } catch (...) {
            report.ok = 0;
        }
        const auto* bytes = reinterpret_cast<const char*>(&report);
        std::size_t done = 0;
        while (done < sizeof(report)) {
            const ssize_t n = ::write(fds[1], bytes + done, sizeof(report) - done);
            if (n <= 0 && errno != EINTR) break;
            if (n > 0) done += static_cast<std::size_t>(n);
        }
        ::_exit(0);
    }
    ::close(fds[1]);
    report_fd_ = fds[0];
}

FleetProcess::~FleetProcess() {
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
    }
    if (report_fd_ >= 0) ::close(report_fd_);
}

FleetReport FleetProcess::finish(double timeout_s) {
    FleetReport report;
    auto* bytes = reinterpret_cast<char*>(&report);
    std::size_t done = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (done < sizeof(report)) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0) break;
        pollfd pfd{report_fd_, POLLIN, 0};
        if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
        const ssize_t n = ::read(report_fd_, bytes + done, sizeof(report) - done);
        if (n == 0) break;
        if (n < 0 && errno != EINTR) break;
        if (n > 0) done += static_cast<std::size_t>(n);
    }
    if (done < sizeof(report)) report = FleetReport{};
    // The fleet exits right after writing; a hung one is killed by the
    // destructor path below.
    int status = 0;
    for (int i = 0; i < 200 && ::waitpid(pid_, &status, WNOHANG) == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (::waitpid(pid_, &status, WNOHANG) == 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        report.ok = 0;
    }
    pid_ = -1;
    return report;
}

} // namespace satbench

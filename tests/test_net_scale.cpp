/// Unit tests for the fleet-scale net primitives (DESIGN.md §16): the
/// per-connection Outbox byte queue, the RingQueue::push_front
/// reassignment path, and the poller backends (poll everywhere; epoll
/// where the build carries it).
///
/// The loopback integration suites prove the run manager as a whole;
/// these tests pin the primitives' edge cases directly — partial sends,
/// compaction under backlog, head underflow, growth — where a bug would
/// surface in the integration tier only as rare flaky corruption.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "des/ring_queue.hpp"
#include "net/event_poller.hpp"
#include "net/outbox.hpp"
#include "net/socket.hpp"

namespace {

using namespace borg;

// ---------------------------------------------------------------- Outbox

TEST(Outbox, RandomAppendAndPartialConsumeMatchStringReference) {
    // Appends of random frames interleaved with random partial sends —
    // the shape of a backlog under backpressure — must leave exactly the
    // reference's unsent bytes queued, through every drain-to-empty and
    // every compaction of the sent prefix.
    std::mt19937_64 rng(2718);
    net::Outbox outbox;
    std::string reference;
    std::vector<std::uint8_t> frame;
    std::uniform_int_distribution<int> byte(0, 255);
    std::size_t drains = 0;
    for (int step = 0; step < 20000; ++step) {
        if (rng() % 2 == 0) {
            frame.resize(rng() % 300);
            for (std::uint8_t& b : frame)
                b = static_cast<std::uint8_t>(byte(rng));
            outbox.append(frame);
            reference.append(frame.begin(), frame.end());
        } else {
            // One send in eight drains everything queued.
            const std::size_t n = rng() % 8 == 0
                                      ? reference.size()
                                      : rng() % (reference.size() + 1);
            outbox.consume(n);
            reference.erase(0, n);
            if (n > 0 && reference.empty()) ++drains;
        }
        ASSERT_EQ(outbox.size(), reference.size()) << "step " << step;
        ASSERT_EQ(outbox.empty(), reference.empty()) << "step " << step;
        const std::span<const std::uint8_t> unsent = outbox.unsent();
        ASSERT_TRUE(std::equal(unsent.begin(), unsent.end(),
                               reference.begin(), reference.end(),
                               [](std::uint8_t a, char b) {
                                   return a == static_cast<std::uint8_t>(b);
                               }))
            << "step " << step;
    }
    EXPECT_GT(drains, 100u) << "the walk never drained the queue";
}

// -------------------------------------------------- RingQueue::push_front

TEST(RingQueue, PushFrontJumpsTheFifo) {
    des::RingQueue<std::uint64_t> q;
    q.push_back(1);
    q.push_back(2);
    q.push_front(0); // the reassigned task cuts the line
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.front(), 0u);
    q.pop_front();
    EXPECT_EQ(q.front(), 1u);
    q.pop_front();
    EXPECT_EQ(q.front(), 2u);
}

TEST(RingQueue, PushFrontSurvivesGrowthAndHeadUnderflow) {
    // push_front on a fresh queue wraps head_ below zero (unsigned);
    // masked indexing and grow() must both stay correct.
    des::RingQueue<int> q;
    q.push_front(100);
    for (int i = 0; i < 50; ++i) q.push_back(i);
    ASSERT_EQ(q.size(), 51u);
    EXPECT_EQ(q.front(), 100);
    q.pop_front();
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

// ------------------------------------------------------------ EventPoller

/// Exercises one backend against a unix socketpair: read readiness,
/// write-interest transitions, hangup on peer close, deregistration.
template <typename Poller>
void exercise_poller() {
    Poller backend;
    Poller* poller = &backend;

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    int tag = 42;
    poller->add(fds[0], &tag, /*want_write=*/false);

    // Nothing pending: wait times out with no events.
    auto events = poller->wait(0);
    EXPECT_TRUE(events.empty());

    // A byte from the peer makes it readable.
    const char byte = 'x';
    ASSERT_EQ(::write(fds[1], &byte, 1), 1);
    events = poller->wait(1000);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].data, &tag);
    EXPECT_TRUE(events[0].readable);
    EXPECT_FALSE(events[0].writable);
    char sink;
    ASSERT_EQ(::read(fds[0], &sink, 1), 1);

    // Write interest: an idle socket is immediately writable.
    poller->set_write_interest(fds[0], &tag, true);
    events = poller->wait(1000);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_TRUE(events[0].writable);
    poller->set_write_interest(fds[0], &tag, false);
    events = poller->wait(0);
    EXPECT_TRUE(events.empty());

    // Peer close surfaces as readable and/or hangup — either lets the
    // run manager discover EOF via recv.
    ::close(fds[1]);
    events = poller->wait(1000);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_TRUE(events[0].readable || events[0].hangup);

    const net::PollerStats& stats = poller->stats();
    EXPECT_GE(stats.wait_syscalls, 4u);
    EXPECT_GE(stats.wakeups, 3u);
    EXPECT_GE(stats.events, 3u);

    poller->remove(fds[0]);
    events = poller->wait(0);
    EXPECT_TRUE(events.empty()) << "deregistered fd still reported";
    ::close(fds[0]);
}

TEST(EventPoller, PollBackendBasics) {
    exercise_poller<net::PollPoller>();
}

#ifdef __linux__

TEST(EventPoller, EpollBackendBasics) {
    exercise_poller<net::EpollPoller>();
}

TEST(EventPoller, EpollRegistrationIsPersistent) {
    net::EpollPoller backend;
    net::EpollPoller* poller = &backend;
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    poller->add(fds[0], nullptr, false);
    const std::uint64_t ctl_after_add = poller->stats().ctl_syscalls;
    EXPECT_GE(ctl_after_add, 1u);

    // Steady-state waits cost zero epoll_ctl: registration is persistent,
    // unlike the poll backend's per-wait array rebuild.
    const char byte = 'y';
    for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(::write(fds[1], &byte, 1), 1);
        auto events = poller->wait(1000);
        ASSERT_EQ(events.size(), 1u);
        char sink;
        ASSERT_EQ(::read(fds[0], &sink, 1), 1);
    }
    EXPECT_EQ(poller->stats().ctl_syscalls, ctl_after_add);

    poller->remove(fds[0]);
    ::close(fds[0]);
    ::close(fds[1]);
}

#endif // __linux__

TEST(EventPoller, BackendNamesAreStable) {
    // The names land in BENCH_net.json and borg_master's report.
    EXPECT_STREQ(net::PollPoller::kName, "poll");
#ifdef __linux__
    EXPECT_STREQ(net::EpollPoller::kName, "epoll");
    EXPECT_STREQ(net::Poller::kName, "epoll");
#else
    EXPECT_STREQ(net::Poller::kName, "poll");
#endif
}

} // namespace

/// Unit tests for the fleet-scale net primitives (DESIGN.md §16): the
/// OutboxRing byte queue and its pool, the heartbeat TimingWheel, the
/// RingQueue::push_front reassignment path, and the poller backends
/// (poll everywhere; epoll where the build carries it).
///
/// The loopback integration suites prove the run manager as a whole;
/// these tests pin the primitives' edge cases directly — wrap-around,
/// growth under load, lazy deadlines, free-list reuse — where a bug
/// would surface in the integration tier only as rare flaky corruption.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "des/ring_queue.hpp"
#include "net/event_poller.hpp"
#include "net/outbox.hpp"
#include "net/socket.hpp"
#include "net/timing_wheel.hpp"

namespace {

using namespace borg;

// ------------------------------------------------------------ OutboxRing

std::vector<std::uint8_t> bytes_of(const std::string& s) {
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

/// Reads everything currently queued via gather(), without consuming.
std::string gathered(const net::OutboxRing& ring) {
    iovec segments[2];
    const std::size_t count = ring.gather(segments);
    std::string out;
    for (std::size_t i = 0; i < count; ++i)
        out.append(static_cast<const char*>(segments[i].iov_base),
                   segments[i].iov_len);
    return out;
}

TEST(OutboxRing, AppendGatherConsumeRoundTrip) {
    net::OutboxRing ring;
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.gather(nullptr), 0u);

    const auto a = bytes_of("hello ");
    const auto b = bytes_of("world");
    ring.append(a);
    ring.append(b);
    EXPECT_EQ(ring.size(), 11u);
    EXPECT_EQ(gathered(ring), "hello world");

    ring.consume(6);
    EXPECT_EQ(ring.size(), 5u);
    EXPECT_EQ(gathered(ring), "world");
    ring.consume(5);
    EXPECT_TRUE(ring.empty());
}

TEST(OutboxRing, WrapProducesTwoSegmentsThatReconstruct) {
    net::OutboxRing ring;
    // Fill most of the initial 512-byte ring, drain the front, then
    // append past the physical end so the content genuinely wraps.
    std::vector<std::uint8_t> first(400);
    std::iota(first.begin(), first.end(), 0);
    ring.append(first);
    ring.consume(300);

    std::vector<std::uint8_t> second(300);
    std::iota(second.begin(), second.end(), 100);
    ring.append(second); // 100 + 300 = 400 <= 512, but tail wraps at 512
    EXPECT_EQ(ring.size(), 400u);
    EXPECT_EQ(ring.capacity(), 512u) << "no growth expected";

    iovec segments[2];
    ASSERT_EQ(ring.gather(segments), 2u) << "content must straddle the wrap";

    std::vector<std::uint8_t> expect(first.begin() + 300, first.end());
    expect.insert(expect.end(), second.begin(), second.end());
    std::string got = gathered(ring);
    ASSERT_EQ(got.size(), expect.size());
    EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), expect.size()));

    // Partial consume across the wrap keeps the remainder intact.
    ring.consume(150);
    std::string rest = gathered(ring);
    EXPECT_EQ(0, std::memcmp(rest.data(), expect.data() + 150,
                             expect.size() - 150));
}

TEST(OutboxRing, GrowthPreservesWrappedContentAndDoubles) {
    net::OutboxRing ring;
    std::vector<std::uint8_t> pattern(500);
    std::iota(pattern.begin(), pattern.end(), 7);
    ring.append(pattern);
    ring.consume(450); // leave 50, head deep into the buffer
    ring.append(pattern); // wraps, then forces growth past 512
    EXPECT_EQ(ring.size(), 550u);
    EXPECT_EQ(ring.capacity(), 1024u) << "power-of-two doubling";

    std::vector<std::uint8_t> expect(pattern.begin() + 450, pattern.end());
    expect.insert(expect.end(), pattern.begin(), pattern.end());
    std::string got = gathered(ring);
    ASSERT_EQ(got.size(), expect.size());
    EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), expect.size()));
    // Growth linearizes: one segment afterwards.
    iovec segments[2];
    EXPECT_EQ(ring.gather(segments), 1u);
}

TEST(OutboxRing, PoolRecyclesWarmedCapacity) {
    net::OutboxPool pool;
    net::OutboxRing ring = pool.acquire();
    EXPECT_EQ(pool.pooled(), 0u);
    std::vector<std::uint8_t> big(4096, 0xab);
    ring.append(big);
    const std::size_t warmed = ring.capacity();
    EXPECT_GE(warmed, 4096u);

    pool.release(std::move(ring));
    EXPECT_EQ(pool.pooled(), 1u);

    net::OutboxRing again = pool.acquire();
    EXPECT_EQ(pool.pooled(), 0u);
    EXPECT_TRUE(again.empty()) << "release() must clear content";
    EXPECT_EQ(again.capacity(), warmed) << "capacity survives the pool";
}

// ------------------------------------------------------------ TimingWheel

TEST(TimingWheel, FiresAtDeadlineNotBefore) {
    net::TimingWheel wheel(/*now_ms=*/1000);
    const std::uint32_t id = wheel.arm(2000);
    EXPECT_EQ(wheel.armed(), 1u);

    std::vector<std::uint32_t> due;
    wheel.advance(1900, due);
    EXPECT_TRUE(due.empty()) << "fired 100 ms early";
    wheel.advance(2064, due); // one slot past the deadline
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], id);
    // Fired entries stay armed until the caller decides.
    EXPECT_EQ(wheel.armed(), 1u);
    wheel.cancel(id);
    EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, LazyRearmPushesDeadlineOut) {
    // The heartbeat pattern: the deadline fires, but the owner knows the
    // peer spoke recently and re-arms at last_heard + timeout instead of
    // declaring death.
    net::TimingWheel wheel(0);
    const std::uint32_t id = wheel.arm(500);
    std::vector<std::uint32_t> due;
    wheel.advance(600, due);
    ASSERT_EQ(due.size(), 1u);

    wheel.rearm(id, 1500);
    due.clear();
    wheel.advance(1400, due);
    EXPECT_TRUE(due.empty()) << "re-armed entry fired at the old deadline";
    wheel.advance(1600, due);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], id);
    wheel.cancel(id);
}

TEST(TimingWheel, CancelledEntryNeverFiresAndIdIsRecycled) {
    net::TimingWheel wheel(0);
    const std::uint32_t a = wheel.arm(300);
    const std::uint32_t b = wheel.arm(300);
    wheel.cancel(a);

    std::vector<std::uint32_t> due;
    wheel.advance(1000, due);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], b);

    // The freed id comes back off the free list.
    const std::uint32_t c = wheel.arm(2000);
    EXPECT_EQ(c, a);
    wheel.cancel(b);
    wheel.cancel(c);
    EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, BeyondHorizonDeadlineWaitsForLaterRevolution) {
    // granularity 64 ms x 512 slots = 32768 ms horizon. A deadline two
    // revolutions out shares a slot with near-term entries but must not
    // fire until its own revolution.
    net::TimingWheel wheel(0);
    const std::uint64_t far = 2 * 64 * 512 + 128;
    const std::uint32_t id = wheel.arm(far);

    std::vector<std::uint32_t> due;
    wheel.advance(64 * 512, due); // one full revolution
    EXPECT_TRUE(due.empty()) << "far deadline fired a revolution early";
    wheel.advance(far + 64, due);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], id);
    wheel.cancel(id);
}

TEST(TimingWheel, MsUntilNextBoundsTheWaitTimeout) {
    net::TimingWheel wheel(0);
    EXPECT_EQ(wheel.ms_until_next(0, 500), 500u) << "nothing armed: cap";

    wheel.arm(200);
    const std::uint64_t wait = wheel.ms_until_next(0, 500);
    EXPECT_GE(wait, 200u) << "woke before the deadline's slot closes";
    EXPECT_LE(wait, 256u) << "overshot by more than one slot";
    EXPECT_EQ(wheel.ms_until_next(0, 100), 100u) << "cap applies";
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
